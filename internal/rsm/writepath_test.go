package rsm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// nullEP discards what is sent, reporting each destination on sent
// when that is set.
type nullEP struct {
	addr transport.Addr
	recv chan transport.Message
	sent chan transport.Addr
}

func (n *nullEP) Addr() transport.Addr           { return n.addr }
func (n *nullEP) Recv() <-chan transport.Message { return n.recv }
func (n *nullEP) Close() error                   { return nil }
func (n *nullEP) Send(to transport.Addr, _ []byte) error {
	if n.sent != nil {
		n.sent <- to
	}
	return nil
}

type benchSvc struct {
	keys [64]string
	resp []byte
}

func newBenchSvc() *benchSvc {
	s := &benchSvc{resp: []byte("ok-response-payload")}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("key%02d", i)
	}
	return s
}

func (s *benchSvc) Apply(cmd Command, reply *codec.Encoder) { reply.PutRaw(s.resp) }
func (s *benchSvc) ConflictKey(cmd Command) string {
	if len(cmd.Payload) == 0 {
		return ""
	}
	return s.keys[int(cmd.Payload[0])%len(s.keys)]
}
func (s *benchSvc) Snapshot() []byte     { return nil }
func (s *benchSvc) Fork() func() []byte  { return s.Snapshot }
func (s *benchSvc) Restore([]byte) error { return nil }

// startBenchReplica assembles the write-path engine — dedup table,
// WAL, apply workers, releaser — without a group layer or
// event loop, so tests and benchmarks can drive applyBatch directly
// (standing in for the loop goroutine) with no concurrent loop racing
// them. Everything downstream of the loop is the real machinery.
func startBenchReplica(tb testing.TB, svc Service, applyConc int) *Replica {
	tb.Helper()
	return startEngine(tb, svc, applyConc, &nullEP{addr: "rep0/cli", recv: make(chan transport.Message)})
}

// startEngine is startBenchReplica over a given client endpoint.
func startEngine(tb testing.TB, svc Service, applyConc int, ep *nullEP) *Replica {
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
			CheckpointEvery:  1 << 30,
			ApplyConcurrency: applyConc,
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
	r.envFree = make(chan []*envelope, 4)
	r.replyFree = make(chan []reply, 4)
	go r.releaser()
	if applyConc > 1 {
		r.applyQ = make(chan applyRun, applyConc*2)
		for i := 0; i < applyConc; i++ {
			go r.applyWorker()
		}
	}
	tb.Cleanup(func() {
		if r.applyQ != nil {
			close(r.applyQ) // the test goroutine was the sole sender
		}
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
// envelope decode, shared-buffer WAL stage, conflict-keyed apply,
// dedup insert, reply handoff — per delivered command, batched 64 per
// round as the event loop would. CI gates allocs/op on this benchmark
// at zero: the ReqID stays a view into the delivered command and the
// dedup table copies it and the reply into its ring.
func BenchmarkSubmitApply(b *testing.B) {
	r := startBenchReplica(b, newBenchSvc(), 4)

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
// hits, state transfer, replies) is detectable by content. State is
// kept per conflict key (commands on distinct keys commute, so
// per-key order — not cross-key interleaving — is what must be
// deterministic) and snapshots emit keys sorted.
type echoSvc struct {
	mu      sync.Mutex
	applied map[string][]string // conflict key → ReqIDs in apply order
	total   int
}

func (s *echoSvc) Apply(cmd Command, reply *codec.Encoder) {
	key := s.ConflictKey(cmd)
	s.mu.Lock()
	if s.applied == nil {
		s.applied = make(map[string][]string)
	}
	s.applied[key] = append(s.applied[key], string(cmd.ReqID))
	s.total++
	s.mu.Unlock()
	reply.PutRaw([]byte("resp:" + string(cmd.ReqID)))
}
func (s *echoSvc) ConflictKey(cmd Command) string {
	if len(cmd.Payload) == 0 {
		return ""
	}
	return string(cmd.Payload[:1])
}
func (s *echoSvc) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.applied))
	for k := range s.applied {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		buf.WriteString(k)
		buf.WriteByte(':')
		for _, id := range s.applied[k] {
			buf.WriteString(id)
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = make(map[string][]string)
	s.total = 0
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		key, rest, ok := bytes.Cut(line, []byte{':'})
		if !ok {
			continue
		}
		for _, id := range bytes.Split(rest, []byte{','}) {
			if len(id) > 0 {
				s.applied[string(key)] = append(s.applied[string(key)], string(id))
				s.total++
			}
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
// while apply workers and the releaser still hold round N-1's), yet
// no recycled memory leaks into applied state, the dedup table, or
// the snapshot.
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
		r := startBenchReplica(t, &echoSvc{}, 4)
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
	r := startBenchReplica(t, &echoSvc{}, 2)
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
// the releaser (holding round N's envelopes until the fsync resolves)
// runs concurrently with decode of round N+1 from the same pool, and
// the WAL flush releases its shared-buffer refs on yet another
// goroutine. The refcount makes over-release a panic and -race makes
// any use-after-recycle visible; the test then confirms every fresh
// command applied exactly once.
func TestEnvelopeRefcountSurvivesOverlap(t *testing.T) {
	svc := &echoSvc{}
	r := startBenchReplica(t, svc, 4)
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
	svc.mu.Lock()
	applied := svc.total
	svc.mu.Unlock()
	if applied != rounds*per {
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
	r := startEngine(t, &echoSvc{}, 1, ep)
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
