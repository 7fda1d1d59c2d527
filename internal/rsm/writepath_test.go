package rsm

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// nullEP discards what is sent, reporting each destination on sent
// and a copy of each reply on bodies when those are set.
type nullEP struct {
	addr   transport.Addr
	recv   chan transport.Message
	sent   chan transport.Addr
	bodies chan []byte
}

func (n *nullEP) Addr() transport.Addr           { return n.addr }
func (n *nullEP) Recv() <-chan transport.Message { return n.recv }
func (n *nullEP) Close() error                   { return nil }
func (n *nullEP) Send(to transport.Addr, b []byte) error {
	if n.bodies != nil {
		n.bodies <- append([]byte(nil), b...)
	}
	if n.sent != nil {
		n.sent <- to
	}
	return nil
}

type benchSvc struct {
	resp []byte
}

func newBenchSvc() *benchSvc { return &benchSvc{resp: []byte("ok-response-payload")} }

func (s *benchSvc) Apply(cmd Command, reply *codec.Encoder) { reply.PutRaw(s.resp) }
func (s *benchSvc) Snapshot() []byte                        { return nil }
func (s *benchSvc) Fork() func() []byte                     { return s.Snapshot }
func (s *benchSvc) Restore([]byte) error                    { return nil }

// startBenchReplica assembles the write-path engine — dedup table,
// WAL, releaser — without a group layer or
// event loop, so tests and benchmarks can drive applyBatch directly
// (standing in for the loop goroutine) with no concurrent loop racing
// them. Everything downstream of the loop is the real machinery.
func startBenchReplica(tb testing.TB, svc Service) *Replica {
	tb.Helper()
	return startEngine(tb, svc, &nullEP{addr: "rep0/cli", recv: make(chan transport.Message)})
}

// startEngine is startBenchReplica over a given client endpoint.
func startEngine(tb testing.TB, svc Service, ep *nullEP) *Replica {
	tb.Helper()
	l, err := wal.Open(wal.Options{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	r := &Replica{
		cfg: Config{
			Self:       "rep0",
			DedupLimit: 4096,
			// Checkpoints (a deliberately allocating cold path: full
			// dedup snapshot + service snapshot) are pushed out of the
			// measured window so the benchmark isolates the per-command
			// submit→apply→reply chain the CI alloc gate budgets.
			CheckpointEvery: 1 << 30,
		},
		clientEP: ep,
		service:  svc,
		done:     make(chan struct{}),
		ready:    make(chan struct{}),
		dedup:    newDedupTable(4096),
		log:      l,
	}
	r.view = gcs.View{Primary: true}
	r.relQ = make(chan releaseBatch, 64)
	r.replyFree = make(chan []reply, 4)
	go r.releaser()
	tb.Cleanup(func() {
		close(r.done)
		l.Close()
	})
	return r
}

// drainReleaser waits for every dispatched round to clear the release
// pipeline before the caller reads loop-owned state.
func drainReleaser(tb testing.TB, r *Replica) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.relQ) > 0 {
		if !time.Now().Before(deadline) {
			tb.Fatal("releaser did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSubmitApply measures the engine-side write path — pooled
// envelope decode, shared-buffer WAL stage, serial apply, dedup insert,
// reply handoff — per delivered command, batched 64 per
// round as the event loop would. CI gates allocs/op on this benchmark
// at zero: the ReqID stays a view into the delivered command and the
// dedup table copies it and the reply into its ring.
func BenchmarkSubmitApply(b *testing.B) {
	r := startBenchReplica(b, newBenchSvc())

	const batch = 64
	n := b.N
	if n < batch {
		n = batch
	}
	wires := make([][]byte, n)
	payload := make([]byte, 32)
	for i := range wires {
		payload[0] = byte(i)
		env := &envelope{
			ReqID:   fmt.Appendf(nil, "user%05d/cli#%08d", i%1000, i),
			Origin:  r.cfg.Self,
			Client:  "user/cli",
			Payload: payload,
		}
		wires[i] = env.encode()
	}

	b.ReportAllocs()
	b.ResetTimer()
	envs := make([]*envelope, 0, batch)
	for i := 0; i < b.N; i += batch {
		envs = envs[:0]
		for j := i; j < i+batch && j < b.N; j++ {
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, wires[j]); err != nil {
				b.Fatal(err)
			}
			envs = append(envs, env)
		}
		r.applyBatch(envs)
	}
}

// echoSvc answers every command with a copy of its ReqID, so any
// stale or recycled buffer observed anywhere downstream (dedup retry
// hits, state transfer, replies) is detectable by content. Its state
// is the ReqIDs in apply order.
type echoSvc struct {
	applied []string
}

func (s *echoSvc) Apply(cmd Command, reply *codec.Encoder) {
	s.applied = append(s.applied, string(cmd.ReqID))
	reply.PutRaw([]byte("resp:" + string(cmd.ReqID)))
}
func (s *echoSvc) Snapshot() []byte {
	var buf bytes.Buffer
	for _, id := range s.applied {
		buf.WriteString(id)
		buf.WriteByte(',')
	}
	return buf.Bytes()
}

// Fork encodes eagerly: the tests that fork an echoSvc never run Apply
// concurrently with the capture, so no copy-on-write is needed.
func (s *echoSvc) Fork() func() []byte {
	b := s.Snapshot()
	return func() []byte { return b }
}
func (s *echoSvc) Restore(b []byte) error {
	s.applied = s.applied[:0]
	for _, id := range bytes.Split(b, []byte{','}) {
		if len(id) > 0 {
			s.applied = append(s.applied, string(id))
		}
	}
	return nil
}

func wireFor(reqID string, origin gcs.MemberID, client transport.Addr, payload []byte) []byte {
	return (&envelope{ReqID: []byte(reqID), Origin: origin, Client: client, Payload: payload}).encode()
}

// TestRecyclingSnapshotsIdentical feeds two replicas the identical
// command stream — including in-round duplicates and cross-round
// retries — chopped into different batch sizes, and requires their
// state-transfer snapshots to be byte-identical. Run under -race this
// is the donor-side recycling assertion: pooled envelopes and dedup
// buffers churn heavily (batches of 1 recycle an envelope per round
// while the WAL may still stage round N-1's wire buffer and the
// releaser still sends its replies), yet no recycled memory leaks
// into applied state, the dedup table, or the snapshot.
func TestRecyclingSnapshotsIdentical(t *testing.T) {
	const total = 2000
	var stream [][]byte
	var origin gcs.MemberID = "rep0"
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("cli%03d#%06d", i%97, i)
		payload := []byte{byte(i % 7), byte(i), byte(i >> 8)}
		stream = append(stream, wireFor(id, origin, "cli/addr", payload))
		if i%13 == 0 { // in-round duplicate (client retried fast)
			stream = append(stream, wireFor(id, origin, "cli/addr", payload))
		}
	}
	// Cross-round retries of early commands at the tail.
	for i := 0; i < total; i += 31 {
		id := fmt.Sprintf("cli%03d#%06d", i%97, i)
		payload := []byte{byte(i % 7), byte(i), byte(i >> 8)}
		stream = append(stream, wireFor(id, origin, "cli/addr", payload))
	}

	snapshots := make([][]byte, 2)
	for variant, batchSize := range []int{64, 1} {
		r := startBenchReplica(t, &echoSvc{})
		var envs []*envelope
		for i := 0; i < len(stream); i += batchSize {
			envs = envs[:0]
			for j := i; j < i+batchSize && j < len(stream); j++ {
				env := getEnvelope()
				// Decode from a fresh copy: the envelope adopts the
				// buffer and the WAL stages it, exactly as with a
				// delivered payload.
				wire := append([]byte(nil), stream[j]...)
				if err := r.decodeEnvelopeInto(env, wire); err != nil {
					t.Fatal(err)
				}
				envs = append(envs, env)
			}
			r.applyBatch(envs)
		}
		// Let the releaser drain every in-flight round before the
		// snapshot (the state itself is updated synchronously by
		// applyBatch; this maximizes pool churn before comparing).
		drainReleaser(t, r)
		job := r.fork()
		snapshots[variant] = (&replicaState{Applied: job.index, Service: job.encode(), DedupIDs: job.ids, DedupResp: job.resps}).encode()
	}
	if !bytes.Equal(snapshots[0], snapshots[1]) {
		t.Fatalf("snapshots diverge under recycling: %d vs %d bytes",
			len(snapshots[0]), len(snapshots[1]))
	}
}

// TestDedupFetchUnderChurn hammers dedup retry hits from a concurrent
// goroutine while the loop keeps applying fresh commands — enough to
// evict FIFO entries and recycle their response buffers many times
// over. Every fetched response must still match its request ID
// exactly: fetch copies under the shard lock, so a recycled entry
// buffer is never observable through a retry hit.
func TestDedupFetchUnderChurn(t *testing.T) {
	r := startBenchReplica(t, &echoSvc{})
	const probes = 200
	// Seed commands whose responses the prober will re-fetch.
	ids := make([]string, probes)
	var envs []*envelope
	for i := range ids {
		ids[i] = fmt.Sprintf("probe#%04d", i)
		env := getEnvelope()
		if err := r.decodeEnvelopeInto(env, wireFor(ids[i], "rep0", "cli/addr", []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	r.applyBatch(envs)

	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range ids {
				enc, _, ok := r.dedup.fetch([]byte(id))
				if !ok || enc == nil {
					continue // evicted by churn: a miss, never a wrong hit
				}
				if want := "resp:" + id; string(enc.Bytes()) != want {
					errc <- fmt.Errorf("dedup fetch for %s returned %q", id, enc.Bytes())
					enc.Release()
					return
				}
				enc.Release()
			}
		}
	}()

	// Churn: more fresh commands than the dedup limit, so the probe
	// entries are evicted and their buffers recycled while the prober
	// reads.
	for round := 0; round < 40; round++ {
		envs = envs[:0]
		for j := 0; j < 200; j++ {
			id := fmt.Sprintf("churn#%04d/%04d", round, j)
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, wireFor(id, "rep0", "cli/addr", []byte{byte(j)})); err != nil {
				t.Fatal(err)
			}
			envs = append(envs, env)
		}
		r.applyBatch(envs)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestEnvelopeRefcountSurvivesOverlap drives rounds back-to-back so
// the releaser (sending round N's replies once its fsync resolves)
// runs concurrently with decode of round N+1 from the same pool. The
// round is the envelopes' one owner: the releaser holds none of them,
// and the WAL stages a view of the wire buffer without taking a
// reference. -race makes any use-after-recycle visible; the test then
// confirms every fresh command applied exactly once.
func TestEnvelopeRefcountSurvivesOverlap(t *testing.T) {
	svc := &echoSvc{}
	r := startBenchReplica(t, svc)
	const rounds, per = 200, 16
	var envs []*envelope
	for i := 0; i < rounds; i++ {
		envs = envs[:0]
		for j := 0; j < per; j++ {
			id := fmt.Sprintf("ov#%04d/%02d", i, j)
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, wireFor(id, "rep0", "cli/addr", []byte{byte(j % 5)})); err != nil {
				t.Fatal(err)
			}
			envs = append(envs, env)
		}
		r.applyBatch(envs)
	}
	drainReleaser(t, r)
	if applied := len(svc.applied); applied != rounds*per {
		t.Fatalf("applied %d commands, want %d", applied, rounds*per)
	}
}

// TestReplyRule pins the output rule on one replica (rep0): it answers
// a command it intercepted, and a command it sequenced for another
// origin, once either way; it stays silent as a bystander and in a
// non-primary view. Each case's client address names it; the marker
// command, replied to last, proves the silent cases were decided.
func TestReplyRule(t *testing.T) {
	// sent holds more than the six cases can produce, so the replier
	// never blocks on it.
	ep := &nullEP{addr: "rep0/cli", recv: make(chan transport.Message), sent: make(chan transport.Addr, 16)}
	r := startEngine(t, &echoSvc{}, ep)
	seq := []gcs.MemberID{"rep0", "rep1"}
	follower := []gcs.MemberID{"head0", "rep0"} // head0 sequences
	cases := []struct {
		client  transport.Addr
		members []gcs.MemberID
		primary bool
		origin  gcs.MemberID
	}{
		{"origin-and-sequencer", seq, true, "rep0"},
		{"sequencer-copy", seq, true, "rep1"},
		{"origin-only", follower, true, "rep0"},
		{"bystander", follower, true, "head0"},
		{"non-primary", seq, false, "rep0"},
		{"marker", seq, true, "rep0"},
	}
	for i, c := range cases {
		r.view = gcs.View{ID: uint64(i + 1), Members: c.members, Primary: c.primary}
		env := getEnvelope()
		if err := r.decodeEnvelopeInto(env, wireFor(fmt.Sprintf("req#%d", i), c.origin, c.client, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		r.applyBatch([]*envelope{env})
	}
	var got []transport.Addr
	for {
		select {
		case to := <-ep.sent:
			got = append(got, to)
		case <-time.After(5 * time.Second):
			t.Fatalf("marker reply never sent; got %v", got)
		}
		if got[len(got)-1] == "marker" {
			break
		}
	}
	want := []transport.Addr{"origin-and-sequencer", "sequencer-copy", "origin-only", "marker"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replies went to %v, want %v", got, want)
	}
}

// TestInRoundCopyAnsweredFromTable pins the replies to a second copy
// of a command within one round: the copy is not applied, and it is
// answered from the dedup table, which pass 2 has filled by the time
// it reaches the copy.
func TestInRoundCopyAnsweredFromTable(t *testing.T) {
	decode := func(r *Replica, reqID string, origin gcs.MemberID, client transport.Addr) *envelope {
		env := getEnvelope()
		if err := r.decodeEnvelopeInto(env, wireFor(reqID, origin, client, []byte(reqID))); err != nil {
			t.Fatal(err)
		}
		return env
	}

	t.Run("copy replies with the first copy's bytes", func(t *testing.T) {
		ep := &nullEP{addr: "rep0/cli", recv: make(chan transport.Message), sent: make(chan transport.Addr, 8), bodies: make(chan []byte, 8)}
		svc := &echoSvc{}
		r := startEngine(t, svc, ep)
		// rep0 sequences, so it answers A from rep1 as well as its own
		// copy A′; B goes to another client.
		r.view = gcs.View{ID: 1, Members: []gcs.MemberID{"rep0", "rep1"}, Primary: true}
		r.applyBatch([]*envelope{
			decode(r, "A", "rep1", "cli/a"),
			decode(r, "B", "rep1", "cli/b"),
			decode(r, "A", "rep0", "cli/a"),
		})
		if fmt.Sprint(svc.applied) != "[A B]" {
			t.Fatalf("applied %v, want [A B]", svc.applied)
		}
		var to []transport.Addr
		var body [][]byte
		for len(to) < 3 {
			select {
			case a := <-ep.sent:
				to, body = append(to, a), append(body, <-ep.bodies)
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of 3 replies sent", len(to))
			}
		}
		if fmt.Sprint(to) != "[cli/a cli/b cli/a]" {
			t.Fatalf("replies went to %v, want [cli/a cli/b cli/a]", to)
		}
		if string(body[0]) != "resp:A" || !bytes.Equal(body[2], body[0]) {
			t.Fatalf("A′'s reply %q, A's %q: want both %q", body[2], body[0], "resp:A")
		}
	})

	t.Run("copy past the dedup limit is not applied again", func(t *testing.T) {
		svc := &echoSvc{}
		r := startBenchReplica(t, svc)
		r.dedup = newDedupTable(4)
		batch := []*envelope{decode(r, "A", "rep0", "cli/a")}
		for i := 0; i < 5; i++ {
			batch = append(batch, decode(r, fmt.Sprintf("F%d", i), "rep0", "cli/f"))
		}
		batch = append(batch, decode(r, "A", "rep0", "cli/a"))
		r.applyBatch(batch)
		n := 0
		for _, id := range svc.applied {
			if id == "A" {
				n++
			}
		}
		if n != 1 || len(svc.applied) != 6 {
			t.Fatalf("applied %v: A %d times, want once among 6 commands", svc.applied, n)
		}
	})
}
