package gcs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// fastTimings keeps tests quick while leaving headroom over the
// simulated network latency.
func fastTimings(c *Config) {
	c.Heartbeat = 10 * time.Millisecond
	c.FailTimeout = 80 * time.Millisecond
	c.ResendInterval = 40 * time.Millisecond
	c.FlushTimeout = 150 * time.Millisecond
	c.JoinInterval = 50 * time.Millisecond
	c.SnapshotTimeout = 500 * time.Millisecond
}

// observer drains a process's event stream and records everything.
type observer struct {
	p *Process

	mu         sync.Mutex
	deliveries []DeliverEvent
	views      []View
	transfers  [][]byte
	// snapshot, when non-nil, answers SnapshotRequestEvents; nil
	// replies with the concatenation of delivered payloads, which
	// makes state transfer verifiable.
	snapshot func() []byte
	ignore   bool // when true, never reply to snapshot requests
}

func observe(p *Process) *observer {
	o := &observer{p: p}
	go func() {
		for e := range p.Events() {
			switch ev := e.(type) {
			case DeliverEvent:
				o.mu.Lock()
				o.deliveries = append(o.deliveries, ev)
				o.mu.Unlock()
			case ViewEvent:
				o.mu.Lock()
				o.views = append(o.views, ev.View)
				o.mu.Unlock()
			case StateTransferEvent:
				o.mu.Lock()
				o.transfers = append(o.transfers, ev.State)
				o.mu.Unlock()
			case SnapshotRequestEvent:
				o.mu.Lock()
				ignore := o.ignore
				var state []byte
				if o.snapshot != nil {
					state = o.snapshot()
				} else {
					state = o.concatLocked()
				}
				o.mu.Unlock()
				if !ignore {
					ev.Reply(state)
				}
			}
		}
	}()
	return o
}

func (o *observer) concatLocked() []byte {
	var b []byte
	for _, d := range o.deliveries {
		b = append(b, d.Payload...)
		b = append(b, '|')
	}
	return b
}

func (o *observer) deliveredPayloads() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, len(o.deliveries))
	for i, d := range o.deliveries {
		out[i] = string(d.Payload)
	}
	return out
}

func (o *observer) viewCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.views)
}

func (o *observer) lastView() (View, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.views) == 0 {
		return View{}, false
	}
	return o.views[len(o.views)-1], true
}

func (o *observer) transferCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.transfers)
}

// group spins up a static group of n members named m0..m(n-1), one
// per simulated host, in the mode every head runs (rsm.Start): safe
// delivery, with read leases at their default length. A test that
// needs agreed delivery turns SafeDelivery off in mutate and says why.
func group(t *testing.T, net *simnet.Network, n int, mutate func(i int, c *Config)) []*observer {
	t.Helper()
	ids := make([]MemberID, n)
	peers := make(map[MemberID]transport.Addr, n)
	for i := 0; i < n; i++ {
		ids[i] = MemberID(fmt.Sprintf("m%d", i))
		peers[ids[i]] = transport.Addr(fmt.Sprintf("host%d/gcs", i))
	}
	obs := make([]*observer, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(peers[ids[i]])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self:           ids[i],
			Endpoint:       ep,
			Peers:          peers,
			InitialMembers: ids,
			SafeDelivery:   true,
		}
		fastTimings(&cfg)
		if mutate != nil {
			mutate(i, &cfg)
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		obs[i] = observe(p)
		t.Cleanup(p.Close)
	}
	return obs
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSingletonBootstrap(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("h/gcs")
	cfg := Config{
		Self:         "solo",
		Endpoint:     ep,
		Peers:        map[MemberID]transport.Addr{"solo": "h/gcs"},
		Bootstrap:    true,
		SafeDelivery: true,
	}
	fastTimings(&cfg)
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o := observe(p)

	waitFor(t, time.Second, "initial view", func() bool { return o.viewCount() == 1 })
	v, _ := o.lastView()
	if v.ID != 1 || !v.Primary || len(v.Members) != 1 {
		t.Fatalf("initial view = %v", v)
	}
	for i := 0; i < 10; i++ {
		if err := p.Broadcast([]byte(fmt.Sprintf("msg%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "self-delivery", func() bool {
		return len(o.deliveredPayloads()) == 10
	})
	got := o.deliveredPayloads()
	for i, s := range got {
		if s != fmt.Sprintf("msg%d", i) {
			t.Fatalf("delivery %d = %q (FIFO violated)", i, s)
		}
	}
}

func TestStaticGroupTotalOrder(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	const perSender = 20
	var wg sync.WaitGroup
	for i, o := range obs {
		wg.Add(1)
		go func(i int, o *observer) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				if err := o.p.Broadcast([]byte(fmt.Sprintf("m%d-%d", i, k))); err != nil {
					t.Errorf("broadcast: %v", err)
					return
				}
			}
		}(i, o)
	}
	wg.Wait()

	total := perSender * len(obs)
	waitFor(t, 10*time.Second, "all deliveries", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != total {
				return false
			}
		}
		return true
	})

	ref := obs[0].deliveredPayloads()
	for i, o := range obs[1:] {
		got := o.deliveredPayloads()
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("member %d delivery %d = %q, member 0 has %q (total order violated)", i+1, k, got[k], ref[k])
			}
		}
	}
	// Per-sender FIFO within the total order.
	for s := 0; s < len(obs); s++ {
		last := -1
		for _, pay := range ref {
			var snd, k int
			fmt.Sscanf(pay, "m%d-%d", &snd, &k)
			if snd == s {
				if k != last+1 {
					t.Fatalf("sender %d FIFO violated: %d after %d", s, k, last)
				}
				last = k
			}
		}
		if last != perSender-1 {
			t.Fatalf("sender %d: delivered %d of %d", s, last+1, perSender)
		}
	}
}

func TestTotalOrderUnderJitterAndLoss(t *testing.T) {
	net := simnet.New(simnet.Config{
		Latency:  simnet.Latency{Remote: time.Millisecond, Jitter: 3 * time.Millisecond},
		DropRate: 0.03,
		Seed:     7,
	})
	defer net.Close()
	obs := group(t, net, 4, nil)

	const perSender = 15
	var wg sync.WaitGroup
	for i, o := range obs {
		wg.Add(1)
		go func(i int, o *observer) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				o.p.Broadcast([]byte(fmt.Sprintf("m%d-%d", i, k)))
			}
		}(i, o)
	}
	wg.Wait()

	total := perSender * len(obs)
	waitFor(t, 20*time.Second, "all deliveries despite loss", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) < total {
				return false
			}
		}
		return true
	})
	ref := obs[0].deliveredPayloads()
	for _, o := range obs[1:] {
		got := o.deliveredPayloads()
		if len(got) != len(ref) {
			t.Fatalf("delivery counts differ: %d vs %d", len(got), len(ref))
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("total order violated at %d: %q vs %q", k, got[k], ref[k])
			}
		}
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, pay := range ref {
		if seen[pay] {
			t.Fatalf("duplicate delivery of %q", pay)
		}
		seen[pay] = true
	}
}

func TestMemberFailureInstallsNewView(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	// Seed some traffic.
	for i := 0; i < 5; i++ {
		obs[0].p.Broadcast([]byte(fmt.Sprintf("pre%d", i)))
	}
	waitFor(t, 5*time.Second, "pre-failure deliveries", func() bool {
		return len(obs[2].deliveredPayloads()) == 5
	})

	// Kill the middle member (not the sequencer).
	net.CrashHost("host1")
	obs[1].p.Close()

	waitFor(t, 10*time.Second, "survivors install 2-member view", func() bool {
		for _, i := range []int{0, 2} {
			v, ok := obs[i].lastView()
			if !ok || len(v.Members) != 2 || !v.Primary {
				return false
			}
		}
		return true
	})

	// Service continues after the failure.
	obs[2].p.Broadcast([]byte("post"))
	waitFor(t, 5*time.Second, "post-failure delivery", func() bool {
		d := obs[0].deliveredPayloads()
		return len(d) == 6 && d[5] == "post"
	})
}

func TestSequencerFailureMidBurst(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	// m0 is the sequencer. Submit from m1 and m2 while killing m0.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 30; k++ {
			obs[1].p.Broadcast([]byte(fmt.Sprintf("a%d", k)))
			obs[2].p.Broadcast([]byte(fmt.Sprintf("b%d", k)))
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	net.CrashHost("host0")
	obs[0].p.Close()
	<-done

	waitFor(t, 15*time.Second, "survivors deliver all survivor messages", func() bool {
		for _, i := range []int{1, 2} {
			count := map[byte]int{}
			for _, p := range obs[i].deliveredPayloads() {
				count[p[0]]++
			}
			if count['a'] != 30 || count['b'] != 30 {
				return false
			}
		}
		return true
	})

	// Identical order at both survivors, no duplicates.
	d1, d2 := obs[1].deliveredPayloads(), obs[2].deliveredPayloads()
	// Messages from the dead m0 cannot exist (it never sent any);
	// survivor streams must match exactly.
	if len(d1) != len(d2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(d1), len(d2))
	}
	seen := map[string]bool{}
	for k := range d1 {
		if d1[k] != d2[k] {
			t.Fatalf("order differs at %d: %q vs %q", k, d1[k], d2[k])
		}
		if seen[d1[k]] {
			t.Fatalf("duplicate delivery %q", d1[k])
		}
		seen[d1[k]] = true
	}
}

func TestMultipleSimultaneousFailures(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 4, nil)

	obs[3].p.Broadcast([]byte("before"))
	waitFor(t, 5*time.Second, "initial delivery", func() bool {
		return len(obs[0].deliveredPayloads()) == 1
	})

	// Kill two heads at once, including the sequencer — the paper's
	// "multiple simultaneous failures" functional test.
	net.CrashHost("host0")
	net.CrashHost("host2")
	obs[0].p.Close()
	obs[2].p.Close()

	waitFor(t, 15*time.Second, "2-member view", func() bool {
		for _, i := range []int{1, 3} {
			v, ok := obs[i].lastView()
			if !ok || len(v.Members) != 2 {
				return false
			}
		}
		return true
	})
	obs[1].p.Broadcast([]byte("after"))
	waitFor(t, 5*time.Second, "post-failure delivery at both", func() bool {
		for _, i := range []int{1, 3} {
			d := obs[i].deliveredPayloads()
			if len(d) != 2 || d[1] != "after" {
				return false
			}
		}
		return true
	})
	// FailStop policy: the surviving pair stays primary even though it
	// is not a majority of the original four.
	v, _ := obs[1].lastView()
	if !v.Primary {
		t.Fatal("FailStop survivors should remain primary")
	}
}

func TestVirtualSynchronyAtFailure(t *testing.T) {
	// All survivors must agree on the exact set of messages delivered
	// in the old view (before their view-change event).
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: 2 * time.Millisecond, Jitter: 2 * time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				obs[i].p.Broadcast([]byte(fmt.Sprintf("s%d-%d", i, k)))
				k++
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	net.CrashHost("host0") // kill the sequencer mid-stream
	obs[0].p.Close()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	waitFor(t, 15*time.Second, "survivors install new view", func() bool {
		for _, i := range []int{1, 2} {
			if v, ok := obs[i].lastView(); !ok || v.ID < 2 || len(v.Members) != 2 {
				return false
			}
		}
		return true
	})

	// Compare the old-view delivery prefix: deliveries with the
	// original view ID must be identical at both survivors.
	prefix := func(o *observer) []string {
		o.mu.Lock()
		defer o.mu.Unlock()
		var out []string
		for _, d := range o.deliveries {
			if d.ViewID == 1 {
				out = append(out, string(d.Payload))
			}
		}
		return out
	}
	waitFor(t, 10*time.Second, "quiescence", func() bool {
		a, b := len(obs[1].deliveredPayloads()), len(obs[2].deliveredPayloads())
		time.Sleep(100 * time.Millisecond)
		return len(obs[1].deliveredPayloads()) == a && len(obs[2].deliveredPayloads()) == b
	})
	p1, p2 := prefix(obs[1]), prefix(obs[2])
	if len(p1) != len(p2) {
		t.Fatalf("old-view delivery sets differ in size: %d vs %d", len(p1), len(p2))
	}
	for k := range p1 {
		if p1[k] != p2[k] {
			t.Fatalf("old-view deliveries differ at %d: %q vs %q", k, p1[k], p2[k])
		}
	}
}

func TestJoinWithStateTransfer(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()

	peers := map[MemberID]transport.Addr{
		"m0": "host0/gcs",
		"m1": "host1/gcs",
	}
	ep0, _ := net.Endpoint("host0/gcs")
	cfg0 := Config{Self: "m0", Endpoint: ep0, Peers: peers, Bootstrap: true, SafeDelivery: true}
	fastTimings(&cfg0)
	p0, err := Start(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	o0 := observe(p0)

	for i := 0; i < 5; i++ {
		p0.Broadcast([]byte(fmt.Sprintf("old%d", i)))
	}
	waitFor(t, 5*time.Second, "founder deliveries", func() bool {
		return len(o0.deliveredPayloads()) == 5
	})

	ep1, _ := net.Endpoint("host1/gcs")
	cfg1 := Config{Self: "m1", Endpoint: ep1, Peers: peers, SafeDelivery: true}
	fastTimings(&cfg1)
	p1, err := Start(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	o1 := observe(p1)

	waitFor(t, 10*time.Second, "joiner admitted", func() bool {
		v, ok := o1.lastView()
		return ok && len(v.Members) == 2
	})
	if o1.transferCount() != 1 {
		t.Fatalf("joiner got %d state transfers, want 1", o1.transferCount())
	}
	// The transferred snapshot is the founder's concatenated history.
	o1.mu.Lock()
	snap := string(o1.transfers[0])
	o1.mu.Unlock()
	want := "old0|old1|old2|old3|old4|"
	if snap != want {
		t.Fatalf("snapshot = %q, want %q", snap, want)
	}

	// New messages flow to both, in the same order.
	p1.Broadcast([]byte("from-joiner"))
	p0.Broadcast([]byte("from-founder"))
	waitFor(t, 5*time.Second, "post-join deliveries", func() bool {
		return len(o1.deliveredPayloads()) == 2 && len(o0.deliveredPayloads()) == 7
	})
	d0 := o0.deliveredPayloads()[5:]
	d1 := o1.deliveredPayloads()
	for k := range d0 {
		if d0[k] != d1[k] {
			t.Fatalf("post-join order differs: %v vs %v", d0, d1)
		}
	}
}

func TestLeaveProducesViewQuickly(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	waitFor(t, 5*time.Second, "initial views", func() bool {
		for _, o := range obs {
			if o.viewCount() < 1 {
				return false
			}
		}
		return true
	})

	start := time.Now()
	obs[1].p.Leave()
	waitFor(t, 5*time.Second, "2-member view", func() bool {
		for _, i := range []int{0, 2} {
			v, ok := obs[i].lastView()
			if !ok || len(v.Members) != 2 {
				return false
			}
		}
		return true
	})
	// Leave is announced, so exclusion should not wait out the full
	// failure-detection timeout.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("leave took %v", elapsed)
	}
}

func TestPartitionFailStopSplitBrain(t *testing.T) {
	// Under the paper's fail-stop assumption, a real partition makes
	// both fragments continue as primary — the documented limitation.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 4, nil)

	net.Partition("host0", "host2")
	net.Partition("host0", "host3")
	net.Partition("host1", "host2")
	net.Partition("host1", "host3")

	waitFor(t, 15*time.Second, "both fragments form views", func() bool {
		for _, o := range obs {
			v, ok := o.lastView()
			if !ok || len(v.Members) != 2 {
				return false
			}
		}
		return true
	})
	for i, o := range obs {
		if v, _ := o.lastView(); !v.Primary {
			t.Errorf("member %d: fragment not primary under FailStop", i)
		}
	}
}

func TestPartitionMajorityPolicy(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, func(i int, c *Config) {
		c.PartitionPolicy = Majority
	})

	net.Isolate("host2")

	waitFor(t, 15*time.Second, "majority fragment installs primary view", func() bool {
		for _, i := range []int{0, 1} {
			v, ok := obs[i].lastView()
			if !ok || len(v.Members) != 2 || !v.Primary {
				return false
			}
		}
		return true
	})
	waitFor(t, 15*time.Second, "minority fragment loses primary", func() bool {
		v, ok := obs[2].lastView()
		return ok && len(v.Members) == 1 && !v.Primary
	})
}

func TestSnapshotTimeoutAbortsJoin(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()

	peers := map[MemberID]transport.Addr{"m0": "host0/gcs", "m1": "host1/gcs"}
	ep0, _ := net.Endpoint("host0/gcs")
	cfg0 := Config{Self: "m0", Endpoint: ep0, Peers: peers, Bootstrap: true, SafeDelivery: true}
	fastTimings(&cfg0)
	cfg0.SnapshotTimeout = 100 * time.Millisecond
	p0, err := Start(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	o0 := observe(p0)
	o0.mu.Lock()
	o0.ignore = true // application never answers snapshot requests
	o0.mu.Unlock()

	ep1, _ := net.Endpoint("host1/gcs")
	cfg1 := Config{Self: "m1", Endpoint: ep1, Peers: peers, SafeDelivery: true}
	fastTimings(&cfg1)
	p1, err := Start(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	o1 := observe(p1)

	// The join must not complete, and the founder must keep working.
	time.Sleep(time.Second)
	if o1.viewCount() != 0 {
		t.Fatal("joiner was admitted without a state snapshot")
	}
	p0.Broadcast([]byte("still-alive"))
	waitFor(t, 5*time.Second, "founder still delivers", func() bool {
		d := o0.deliveredPayloads()
		return len(d) >= 1 && d[len(d)-1] == "still-alive"
	})
}

func TestBroadcastAfterClose(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("h/gcs")
	cfg := Config{Self: "solo", Endpoint: ep, Peers: map[MemberID]transport.Addr{"solo": "h/gcs"}, Bootstrap: true, SafeDelivery: true}
	fastTimings(&cfg)
	p, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Broadcast([]byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestStartValidation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("h/gcs")
	if _, err := Start(Config{Endpoint: ep, Peers: map[MemberID]transport.Addr{"x": "h/gcs"}}); err == nil {
		t.Error("missing Self should fail")
	}
	if _, err := Start(Config{Self: "x", Peers: map[MemberID]transport.Addr{"x": "h/gcs"}}); err == nil {
		t.Error("missing Endpoint should fail")
	}
	if _, err := Start(Config{Self: "x", Endpoint: ep, Peers: map[MemberID]transport.Addr{"y": "h/gcs"}}); err == nil {
		t.Error("Peers without Self should fail")
	}
	if _, err := Start(Config{Self: "x", Endpoint: ep, Peers: map[MemberID]transport.Addr{"x": "h/gcs"}, InitialMembers: []MemberID{"y"}}); err == nil {
		t.Error("InitialMembers without Self should fail")
	}
}
