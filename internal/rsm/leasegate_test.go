package rsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// leaseSvc is the service of the leased-read tests. A command whose
// payload starts with 'w' is a write ("w!…" first waits for gate to
// close, when gate is set); one starting with 'r' is an ordered read
// and 'p' a plain read. Every reply names its request: "ok:<id>" for a
// write, "ordered:<id>" for a read that went through the total order
// and "local:<id>" for one served from local state. seen records how
// many writes the last local read saw.
type leaseSvc struct {
	gate      chan struct{}
	writes    atomic.Int64
	seen      atomic.Int64
	respondFn func([]byte) *codec.Encoder // respond, bound once
}

func newLeaseSvc() *leaseSvc {
	s := &leaseSvc{gate: make(chan struct{})}
	s.respondFn = s.respond
	return s
}

func (s *leaseSvc) Apply(cmd Command, reply *codec.Encoder) {
	switch {
	case len(cmd.Payload) == 0:
	case cmd.Payload[0] == 'w':
		if len(cmd.Payload) > 1 && cmd.Payload[1] == '!' && s.gate != nil {
			<-s.gate
		}
		s.writes.Add(1)
		reply.PutRaw([]byte("ok:"))
		reply.PutRaw(cmd.ReqID)
	case cmd.Payload[0] == 'r':
		reply.PutRaw([]byte("ordered:"))
		reply.PutRaw(cmd.ReqID)
	}
}

func (s *leaseSvc) ConflictKey(Command) string { return "" }
func (s *leaseSvc) Snapshot() []byte           { return nil }
func (s *leaseSvc) Fork() func() []byte        { return s.Snapshot }
func (s *leaseSvc) Restore([]byte) error       { return nil }

func (s *leaseSvc) classify(p []byte) Classification {
	switch {
	case len(p) == 0:
		return Classification{Verdict: Ignore}
	case p[0] == 'r':
		return Classification{Verdict: OrderedRead, ReqID: p, Respond: s.respondFn}
	case p[0] == 'p':
		return Classification{Verdict: Reply, Respond: s.respondFn}
	}
	return Classification{Verdict: Replicate, ReqID: p}
}

func (s *leaseSvc) respond(p []byte) *codec.Encoder {
	s.seen.Store(s.writes.Load())
	e := codec.GetEncoder(16 + len(p))
	e.PutRaw([]byte("local:"))
	e.PutRaw(p)
	return e
}

// leaseGroup is n durable replicas of leaseSvc over simnet, all
// initial members, with a client endpoint to talk to them. Replica i
// lives on host "rep<i>".
type leaseGroup struct {
	net  *simnet.Network
	reps []*Replica
	svcs []*leaseSvc
	cli  transport.Endpoint
	open []func() // open[i] releases svcs[i]'s gate, once
}

// startLeaseGroup starts the group with the given group-layer lease
// length (negative grants none). Every replica's service has a closed
// gate; tune may adjust each replica's Config before it starts. A long
// failure timeout keeps a granted lease live for the whole test: only
// a connection-loss hint or a departure changes the view.
func startLeaseGroup(t *testing.T, n int, lease time.Duration, tune func(i int, c *Config)) *leaseGroup {
	t.Helper()
	g := &leaseGroup{net: simnet.New(simnet.Config{})}
	t.Cleanup(g.net.Close)
	peers := map[gcs.MemberID]transport.Addr{}
	var members []gcs.MemberID
	for i := 0; i < n; i++ {
		m := gcs.MemberID(fmt.Sprintf("rep%d", i))
		peers[m] = transport.Addr(fmt.Sprintf("rep%d/gcs", i))
		members = append(members, m)
	}
	for i := 0; i < n; i++ {
		groupEP, err := g.net.Endpoint(peers[members[i]])
		if err != nil {
			t.Fatal(err)
		}
		clientEP, err := g.net.Endpoint(transport.Addr(fmt.Sprintf("rep%d/cli", i)))
		if err != nil {
			t.Fatal(err)
		}
		svc := newLeaseSvc()
		cfg := Config{
			Self:           members[i],
			GroupEndpoint:  groupEP,
			ClientEndpoint: clientEP,
			Peers:          peers,
			InitialMembers: members,
			Service:        svc,
			Classify:       svc.classify,
			DataDir:        t.TempDir(),
			TuneGCS: func(c *gcs.Config) {
				c.FailTimeout = 10 * time.Second
				c.LeaseDuration = lease
			},
		}
		if tune != nil {
			tune(i, &cfg)
		}
		r, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		open := func() { once.Do(func() { close(svc.gate) }) }
		// Cleanups run last-in first-out: the gate opens before the
		// replica closes, so no apply is left waiting on it.
		t.Cleanup(r.Close)
		t.Cleanup(open)
		g.reps = append(g.reps, r)
		g.svcs = append(g.svcs, svc)
		g.open = append(g.open, open)
	}
	cli, err := g.net.Endpoint("cl/0")
	if err != nil {
		t.Fatal(err)
	}
	g.cli = cli
	for _, r := range g.reps {
		select {
		case <-r.Ready():
		case <-time.After(10 * time.Second):
			t.Fatal("replica not ready")
		}
	}
	return g
}

// send sends payload to replica i's client endpoint.
func (g *leaseGroup) send(t *testing.T, i int, payload string) {
	t.Helper()
	if err := g.cli.Send(transport.Addr(fmt.Sprintf("rep%d/cli", i)), []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

// next returns the next reply, or "" after timeout. Connection-loss
// hints are skipped.
func (g *leaseGroup) next(timeout time.Duration) string {
	expire := time.After(timeout)
	for {
		select {
		case dg := <-g.cli.Recv():
			if !dg.Lost {
				return string(dg.Payload)
			}
		case <-expire:
			return ""
		}
	}
}

// await skips replies until want arrives, failing on any reply in
// never and on timeout.
func (g *leaseGroup) await(t *testing.T, want string, never ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := g.next(time.Until(deadline))
		switch {
		case got == want:
			return
		case got == "":
			t.Fatalf("no reply %q", want)
		}
		for _, bad := range never {
			if got == bad {
				t.Fatalf("got reply %q while waiting for %q", got, want)
			}
		}
	}
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// servesNow reports whether r holds a live lease and a read taken now
// would be served at once.
func servesNow(r *Replica) bool {
	epoch, mark := r.group.ReadMark()
	now := r.leaseNow()
	pr := parkedRead{epoch: epoch, mark: mark}
	return !now.broken(&pr) && now.ready(&pr)
}

// behind reports whether r holds a live lease but a read taken now
// would park.
func behind(r *Replica) bool {
	epoch, mark := r.group.ReadMark()
	now := r.leaseNow()
	pr := parkedRead{epoch: epoch, mark: mark}
	return !now.broken(&pr) && !now.ready(&pr)
}

// blockWrite sends a gated write to replica i and waits until i has
// received it but cannot apply it, so an ordered read arriving there
// now parks.
func (g *leaseGroup) blockWrite(t *testing.T, i int, id string) {
	t.Helper()
	g.send(t, i, "w!"+id)
	waitFor(t, "the gated write to hold replica back", func() bool { return behind(g.reps[i]) })
}

type leaseCounts struct{ reads, waits, noLease, wait, fallbacks uint64 }

func leaseCountsOf(r *Replica) leaseCounts {
	st := r.Stats()
	return leaseCounts{st.LeaseReads, st.LeaseWaits, st.LeaseFallbackNoLease, st.LeaseFallbackWait, st.LeaseFallbacks}
}

// TestLeasedReadGateCounters drives each outcome of an ordered read
// — no lease, served at once, parked behind an apply or behind the
// fsync watermark and then served — and checks
// that each is counted alone and that LeaseFallbacks stays the sum of
// the fallback counters.
func TestLeasedReadGateCounters(t *testing.T) {
	// No live lease when the read arrives: it is ordered.
	g := startLeaseGroup(t, 1, -1, nil)
	g.send(t, 0, "r1")
	g.await(t, "ordered:r1")
	if got, want := leaseCountsOf(g.reps[0]), (leaseCounts{noLease: 1, fallbacks: 1}); got != want {
		t.Errorf("no lease: counters %+v, want %+v", got, want)
	}

	g = startLeaseGroup(t, 1, 5*time.Second, nil)
	r := g.reps[0]
	g.send(t, 0, "w1")
	g.await(t, "ok:w1")
	waitFor(t, "a lease over applied, durable state", func() bool { return servesNow(r) })
	g.send(t, 0, "r1")
	g.await(t, "local:r1")
	if got, want := leaseCountsOf(r), (leaseCounts{reads: 1}); got != want {
		t.Errorf("caught up: counters %+v, want %+v", got, want)
	}

	// Behind an applying write, the read parks, and is served locally
	// once the write is applied and durable.
	g.blockWrite(t, 0, "2")
	g.send(t, 0, "r2")
	waitFor(t, "the read to park", func() bool { return r.Stats().LeaseWaits == 1 })
	if got := g.next(50 * time.Millisecond); got != "" {
		t.Fatalf("reply %q while the read waits for its mark", got)
	}
	g.open[0]()
	g.await(t, "local:r2")
	if got, want := leaseCountsOf(r), (leaseCounts{reads: 2, waits: 1}); got != want {
		t.Errorf("parked: counters %+v, want %+v", got, want)
	}

	// Applied state ahead of the fsync watermark: the read waits for
	// the durability step as well.
	waitFor(t, "a lease over applied, durable state", func() bool { return servesNow(r) })
	r.appliedPub.Add(1)
	g.send(t, 0, "r3")
	waitFor(t, "the read to park", func() bool { return r.Stats().LeaseWaits == 2 })
	r.appliedPub.Add(^uint64(0))
	r.resumeParked()
	g.await(t, "local:r3")
	if got, want := leaseCountsOf(r), (leaseCounts{reads: 3, waits: 2}); got != want {
		t.Errorf("durability: counters %+v, want %+v", got, want)
	}
	if n := g.svcs[0].writes.Load(); n != 2 {
		t.Errorf("service applied %d writes, want 2", n)
	}
}

// TestLeasedReadWaitsForReceivedSuffix cuts the link between the two
// non-sequencer replicas of three, so rep1 receives a write but cannot
// deliver it (safe delivery waits for rep2's receipt ack) while rep0
// delivers it and answers the client. An ordered read sent to rep1
// after that answer must not be served from rep1's state without the
// write: it waits until the link heals and the write applies there.
func TestLeasedReadWaitsForReceivedSuffix(t *testing.T) {
	g := startLeaseGroup(t, 3, 5*time.Second, nil)
	r := g.reps[1]
	waitFor(t, "every replica leased", func() bool {
		for _, r := range g.reps {
			if !r.group.LeaseValid() {
				return false
			}
		}
		return true
	})
	g.net.Partition("rep1", "rep2")
	g.send(t, 0, "w1")
	g.await(t, "ok:w1")
	if n := g.svcs[1].writes.Load(); n != 0 {
		t.Fatalf("rep1 applied %d writes across the cut; the test needs it behind", n)
	}
	g.send(t, 1, "r1")
	waitFor(t, "the read to park", func() bool { return r.Stats().LeaseWaits == 1 })
	if got := g.next(50 * time.Millisecond); got != "" {
		t.Fatalf("reply %q while rep1 has not applied the acknowledged write", got)
	}
	g.net.HealAll()
	g.await(t, "local:r1")
	if seen := g.svcs[1].seen.Load(); seen != 1 {
		t.Errorf("the leased read saw %d writes, want the acknowledged one", seen)
	}
}

// TestParkedReadFallsBackAcrossMembershipChange parks an ordered read
// behind a write its replica cannot yet apply, changes the membership,
// and then lets the write apply: the read's mark is now reached, but
// its lease epoch is not the one it was taken in, so it must be
// ordered rather than answered locally.
func TestParkedReadFallsBackAcrossMembershipChange(t *testing.T) {
	t.Run("view change", func(t *testing.T) {
		g := startLeaseGroup(t, 2, 5*time.Second, nil)
		r := g.reps[0]
		waitFor(t, "both replicas leased", func() bool {
			return g.reps[0].group.LeaseValid() && g.reps[1].group.LeaseValid()
		})
		g.blockWrite(t, 0, "1")
		g.send(t, 0, "r1")
		waitFor(t, "the read to park", func() bool { return r.Stats().LeaseWaits == 1 })
		epoch := r.group.LeaseEpoch()

		g.reps[1].Leave()
		// The group layer installs the new view and grants a new lease
		// while the replica's loop is still held in the write's apply.
		waitFor(t, "a new view with a new lease", func() bool {
			return len(r.group.View().Members) == 1 && r.group.LeaseValid() && r.group.LeaseEpoch() != epoch
		})
		g.open[0]()
		g.await(t, "ordered:r1", "local:r1")
		if got := leaseCountsOf(r); got.reads != 0 || got.wait != 1 {
			t.Errorf("counters %+v, want no local serve and one wait fallback", got)
		}
	})

	t.Run("flush entry", func(t *testing.T) {
		// Under the majority policy the coordinator holds a flush that
		// excludes a member open for one lease length, so the write
		// applies while no view is installed and no lease is live.
		g := startLeaseGroup(t, 3, time.Second, func(_ int, c *Config) { c.PartitionPolicy = gcs.Majority })
		r := g.reps[0]
		waitFor(t, "every replica leased", func() bool {
			for _, r := range g.reps {
				if !r.group.LeaseValid() {
					return false
				}
			}
			return true
		})
		g.blockWrite(t, 0, "1")
		g.send(t, 0, "r1")
		waitFor(t, "the read to park", func() bool { return r.Stats().LeaseWaits == 1 })
		epoch := r.group.LeaseEpoch()

		g.net.CrashHost("rep2")
		g.reps[2].Close()
		waitFor(t, "the flush to begin", func() bool { return r.group.LeaseEpoch() != epoch })
		g.open[0]()
		waitFor(t, "the read to fall back", func() bool { return r.Stats().LeaseFallbackWait == 1 })
		if n := len(r.group.View().Members); n != 3 {
			t.Errorf("the read fell back only once a view of %d members was installed; want it during the flush", n)
		}
		g.await(t, "ordered:r1", "local:r1")
		if got := leaseCountsOf(r); got.reads != 0 {
			t.Errorf("counters %+v, want no local serve", got)
		}
	})
}

// TestParkedReadFallsBackAfterLeasePeriod parks an ordered read whose
// mark is never reached (the write before it never applies while the
// read waits) and sends nothing more: the read must fall back to the
// broadcast once one lease period has passed, not sooner and not much
// later, while the lease itself stays live.
func TestParkedReadFallsBackAfterLeasePeriod(t *testing.T) {
	const lease = 300 * time.Millisecond
	g := startLeaseGroup(t, 1, lease, nil)
	r := g.reps[0]
	g.blockWrite(t, 0, "1")
	start := time.Now()
	g.send(t, 0, "r1")
	waitFor(t, "the read to fall back", func() bool { return r.Stats().LeaseFallbackWait == 1 })
	if took := time.Since(start); took < lease || took > lease+time.Second {
		t.Errorf("fell back after %v, want one lease period (%v)", took, lease)
	}
	if !r.group.LeaseValid() {
		t.Error("lease lost; the fallback should come from the lease period alone")
	}
	g.open[0]()
	g.await(t, "ordered:r1", "local:r1")
	if got, want := leaseCountsOf(r), (leaseCounts{waits: 1, wait: 1, fallbacks: 1}); got != want {
		t.Errorf("counters %+v, want %+v", got, want)
	}
}

// TestParkedReadDoesNotDelayPlainRead gives the replica one read
// worker, parks an ordered read on it and queues a plain read behind:
// the plain read is answered while the ordered one still waits.
func TestParkedReadDoesNotDelayPlainRead(t *testing.T) {
	g := startLeaseGroup(t, 1, 5*time.Second, func(_ int, c *Config) { c.ReadConcurrency = 1 })
	r := g.reps[0]
	g.blockWrite(t, 0, "1")
	g.send(t, 0, "r1")
	g.send(t, 0, "p1")
	if got := g.next(5 * time.Second); got != "local:p1" {
		t.Fatalf("first reply %q, want local:p1", got)
	}
	if got, want := leaseCountsOf(r), (leaseCounts{waits: 1}); got != want {
		t.Errorf("counters %+v, want %+v", got, want)
	}
	g.open[0]()
	g.await(t, "local:r1")
	if got, want := leaseCountsOf(r), (leaseCounts{reads: 1, waits: 1}); got != want {
		t.Errorf("counters %+v, want %+v", got, want)
	}
}

// TestParkResumeServeZeroAlloc pins the replica's share of a parked
// leased read — classify, park, resume, serve — at zero allocations.
// The client endpoint discards replies, so the transport's copy is not
// counted.
func TestParkResumeServeZeroAlloc(t *testing.T) {
	ep := &nullEP{addr: "rep0/cli", recv: make(chan transport.Message, 1)}
	g := startLeaseGroup(t, 1, 5*time.Second, func(_ int, c *Config) { c.ClientEndpoint = ep })
	r := g.reps[0]
	ep.recv <- transport.Message{From: "cl/0", Payload: []byte("w1")}
	waitFor(t, "a lease over applied, durable state", func() bool {
		return r.delivHandled.Load() == 1 && servesNow(r)
	})

	payload := []byte("r1")
	var buf []parkedRead
	parkResumeServe := func() {
		r.delivHandled.Add(^uint64(0)) // hold the write back: the read parks
		r.serveRequest("cl/0", payload)
		r.delivHandled.Add(1)
		buf = r.serveParked(buf)
	}
	parkResumeServe() // warm the parked slice, the scratch and the encoder pool
	before := leaseCountsOf(r)
	allocs := testing.AllocsPerRun(200, parkResumeServe)
	after := leaseCountsOf(r)
	if !raceEnabled && allocs != 0 {
		t.Errorf("park → resume → serve: %v allocs/op, want 0", allocs)
	}
	if waits, reads := after.waits-before.waits, after.reads-before.reads; waits < 200 || reads != waits || after.fallbacks != 0 {
		t.Errorf("measured %d parks and %d local serves (%d fallbacks), want every read parked and then served", waits, reads, after.fallbacks)
	}
}
