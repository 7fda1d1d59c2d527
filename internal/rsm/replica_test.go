package rsm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// kvRig runs N replicas of the key-value demo service on the generic
// engine over simnet — the proof that the replication machinery is
// service-agnostic: no engine code here is specific to kvstore.
type kvRig struct {
	t      *testing.T
	net    *simnet.Network
	peers  map[gcs.MemberID]transport.Addr
	reps   map[int]*rsm.Replica
	stores map[int]*kvstore.Store
	cli    transport.Endpoint
	seq    int
}

const rigMaxReplicas = 4

func repMember(i int) gcs.MemberID { return gcs.MemberID(fmt.Sprintf("rep%d", i)) }
func repHost(i int) string         { return fmt.Sprintf("rep%d", i) }
func repGroupAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("rep%d/gcs", i))
}
func repClientAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("rep%d/kv", i))
}

func newKVRig(t *testing.T, n int, mutate func(*rsm.Config)) *kvRig {
	t.Helper()
	r := &kvRig{
		t:      t,
		net:    simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}}),
		peers:  map[gcs.MemberID]transport.Addr{},
		reps:   map[int]*rsm.Replica{},
		stores: map[int]*kvstore.Store{},
	}
	for i := 0; i < rigMaxReplicas; i++ {
		r.peers[repMember(i)] = repGroupAddr(i)
	}
	var initial []gcs.MemberID
	for i := 0; i < n; i++ {
		initial = append(initial, repMember(i))
	}
	for i := 0; i < n; i++ {
		r.start(i, initial, mutate)
	}
	for i := 0; i < n; i++ {
		select {
		case <-r.reps[i].Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("replica %d not ready", i)
		}
	}
	var err error
	r.cli, err = r.net.Endpoint("user/kv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, rep := range r.reps {
			rep.Close()
		}
		r.net.Close()
	})
	return r
}

// start launches replica i; initial==nil joins the running group with
// state transfer.
func (r *kvRig) start(i int, initial []gcs.MemberID, mutate func(*rsm.Config)) {
	r.t.Helper()
	groupEP, err := r.net.Endpoint(repGroupAddr(i))
	if err != nil {
		r.t.Fatal(err)
	}
	clientEP, err := r.net.Endpoint(repClientAddr(i))
	if err != nil {
		r.t.Fatal(err)
	}
	store := kvstore.NewStore()
	cfg := rsm.Config{
		Self:             repMember(i),
		GroupEndpoint:    groupEP,
		ClientEndpoint:   clientEP,
		Peers:            r.peers,
		InitialMembers:   initial,
		Service:          store,
		Classify:         kvstore.Classifier(store),
		RejectNotPrimary: kvstore.RejectNotPrimary,
		TuneGCS: func(g *gcs.Config) {
			g.Heartbeat = 10 * time.Millisecond
			g.FailTimeout = 80 * time.Millisecond
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := rsm.Start(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.reps[i] = rep
	r.stores[i] = store
}

// join starts replica i against the running group and waits for its
// first view (which includes the state transfer).
func (r *kvRig) join(i int, mutate func(*rsm.Config)) {
	r.t.Helper()
	r.start(i, nil, mutate)
	select {
	case <-r.reps[i].Ready():
	case <-time.After(10 * time.Second):
		r.t.Fatalf("joiner %d not ready", i)
	}
}

// crash fail-stops replica i.
func (r *kvRig) crash(i int) {
	r.net.CrashHost(repHost(i))
	r.reps[i].Close()
	delete(r.reps, i)
	delete(r.stores, i)
}

// send fires one raw request datagram at replica i without waiting.
func (r *kvRig) send(i int, req *kvstore.Request) {
	r.t.Helper()
	if err := r.cli.Send(repClientAddr(i), kvstore.EncodeRequest(req)); err != nil {
		r.t.Fatal(err)
	}
}

// call sends a request to replica i and waits for the first matching
// reply, reporting which replica's endpoint sent it.
func (r *kvRig) call(i int, req *kvstore.Request, timeout time.Duration) (*kvstore.Response, transport.Addr) {
	r.t.Helper()
	r.send(i, req)
	return r.await(req.ReqID, timeout)
}

// await waits for the reply matching reqID.
func (r *kvRig) await(reqID string, timeout time.Duration) (*kvstore.Response, transport.Addr) {
	r.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case dg := <-r.cli.Recv():
			resp, err := kvstore.DecodeResponse(dg.Payload)
			if err != nil || resp.ReqID != reqID {
				continue
			}
			return resp, dg.From
		case <-deadline:
			r.t.Fatalf("no reply for %s", reqID)
		}
	}
}

func (r *kvRig) reqID() string {
	r.seq++
	return fmt.Sprintf("user/kv#%d", r.seq)
}

// waitConverged polls until every live store holds exactly want.
func (r *kvRig) waitConverged(want map[string]string, timeout time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, s := range r.stores {
			if !reflect.DeepEqual(s.Dump(), want) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for i, s := range r.stores {
				r.t.Logf("replica %d: %v", i, s.Dump())
			}
			r.t.Fatalf("stores never converged to %v", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKVReplicationWithCrashAndJoin is the acceptance scenario for the
// engine's generality: N replicas of a service the engine knows
// nothing about, interleaved client retries, one crash, one join —
// and identical state everywhere at the end.
func TestKVReplicationWithCrashAndJoin(t *testing.T) {
	r := newKVRig(t, 3, nil)

	// Normal operation plus an interleaved retry: the same request is
	// sent to two replicas back to back (a client retrying before the
	// first replica answered). Append is non-idempotent, so any dedup
	// failure shows up as a doubled suffix.
	put := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpPut, Key: "greeting", Value: "hello"}
	if resp, _ := r.call(0, put, 5*time.Second); !resp.OK {
		t.Fatalf("put: %+v", resp)
	}
	retry := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "log", Value: "A"}
	r.send(0, retry)
	r.send(1, retry) // interleaved retry at a second replica
	if resp, _ := r.await(retry.ReqID, 5*time.Second); !resp.OK {
		t.Fatalf("retried append: %+v", resp)
	}

	// One replica fail-stops; the survivors keep serving.
	r.crash(2)
	if resp, _ := r.call(1, &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "log", Value: "B"}, 5*time.Second); !resp.OK {
		t.Fatalf("append after crash: %+v", resp)
	}

	// A fresh replica joins and receives the full state by transfer.
	r.join(3, nil)
	if resp, _ := r.call(3, &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "log", Value: "C"}, 5*time.Second); !resp.OK {
		t.Fatalf("append at joiner: %+v", resp)
	}

	r.waitConverged(map[string]string{"greeting": "hello", "log": "ABC"}, 5*time.Second)
}

// TestDedupEvictionReExecutesExactlyOnceMore pins the FIFO-eviction
// contract: a retry arriving after its table entry was evicted is
// re-executed exactly once more (the documented at-least-once fallback
// beyond the table size), then deduplicates normally again.
func TestDedupEvictionReExecutesExactlyOnceMore(t *testing.T) {
	r := newKVRig(t, 1, func(c *rsm.Config) { c.DedupLimit = 4 })

	victim := &kvstore.Request{ReqID: "user/kv#victim", Op: kvstore.OpAppend, Key: "k", Value: "x"}
	if resp, _ := r.call(0, victim, 5*time.Second); resp.Value != "x" {
		t.Fatalf("first execution: %+v", resp)
	}

	// Push the victim out of the 4-entry table.
	for i := 0; i < 4; i++ {
		fill := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("fill%d", i), Value: "f"}
		if resp, _ := r.call(0, fill, 5*time.Second); !resp.OK {
			t.Fatalf("fill %d: %+v", i, resp)
		}
	}
	if st := r.reps[0].Stats(); st.DedupEntries != 4 {
		t.Fatalf("DedupEntries = %d, want 4", st.DedupEntries)
	}

	// Retry after eviction: re-executed exactly once more.
	if resp, _ := r.call(0, victim, 5*time.Second); resp.Value != "xx" {
		t.Fatalf("post-eviction retry: %+v, want value xx", resp)
	}
	// Now it is back in the table: a further retry is a dedup hit and
	// returns the recorded (post-re-execution) response unchanged.
	hits := r.reps[0].Stats().DedupHits
	if resp, _ := r.call(0, victim, 5*time.Second); resp.Value != "xx" {
		t.Fatalf("dedup-hit retry: %+v, want value xx", resp)
	}
	if got, _ := r.stores[0].Get("k"); got != "xx" {
		t.Errorf("k = %q, want exactly two executions", got)
	}
	if st := r.reps[0].Stats(); st.DedupHits != hits+1 {
		t.Errorf("DedupHits = %d, want %d", st.DedupHits, hits+1)
	}
}

// replies collects every reply to reqID until want have arrived, then
// listens for settle more to catch any extra one. It returns them by
// sender.
func (r *kvRig) replies(reqID string, want int, settle time.Duration) map[transport.Addr][]byte {
	r.t.Helper()
	got := map[transport.Addr][]byte{}
	n := 0
	deadline := time.After(5 * time.Second)
	var quiet <-chan time.Time
	for {
		select {
		case dg := <-r.cli.Recv():
			resp, err := kvstore.DecodeResponse(dg.Payload)
			if err != nil || resp.ReqID != reqID {
				continue
			}
			if _, dup := got[dg.From]; dup {
				r.t.Fatalf("%s answered %s twice", dg.From, reqID)
			}
			got[dg.From] = dg.Payload
			if n++; n == want {
				quiet = time.After(settle)
			}
		case <-deadline:
			r.t.Fatalf("%s: %d of %d replies: %v", reqID, n, want, got)
		case <-quiet:
			return got
		}
	}
}

// TestOriginAndSequencerReply pins the output rule end to end: the
// replica that intercepted a command answers, and the view's sequencer
// sends the same bytes when it is not the origin. After the sequencer
// crashes, the new view's sequencer sends the copy.
func TestOriginAndSequencerReply(t *testing.T) {
	r := newKVRig(t, 3, nil)
	const settle = 100 * time.Millisecond

	// Intercepted by the sequencer: one reply.
	req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "k", Value: "a"}
	r.send(0, req)
	if got := r.replies(req.ReqID, 1, settle); got[repClientAddr(0)] == nil || len(got) != 1 {
		t.Fatalf("origin == sequencer: replies %v, want rep0's alone", got)
	}

	// Intercepted elsewhere: the origin and the sequencer, same bytes.
	req = &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "k", Value: "b"}
	r.send(1, req)
	got := r.replies(req.ReqID, 2, settle)
	if len(got) != 2 || !bytes.Equal(got[repClientAddr(0)], got[repClientAddr(1)]) {
		t.Fatalf("origin != sequencer: replies %v, want identical ones from rep1 and rep0", got)
	}

	// The sequencer dies; rep1 sequences the two-member view.
	r.crash(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := r.reps[1].View()
		if len(v.Members) == 2 && v.Primary {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never installed 2-member view: %+v", r.reps[1].View())
		}
		time.Sleep(5 * time.Millisecond)
	}
	req = &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "k", Value: "c"}
	r.send(2, req)
	got = r.replies(req.ReqID, 2, settle)
	if len(got) != 2 || !bytes.Equal(got[repClientAddr(1)], got[repClientAddr(2)]) {
		t.Fatalf("after failover: replies %v, want identical ones from rep2 and rep1", got)
	}
	r.waitConverged(map[string]string{"k": "abc"}, 5*time.Second)
}

// kvClient opens a kvstore client at addr over every replica of the
// rig, in replica order.
func (r *kvRig) kvClient(addr transport.Addr, n int, attempt time.Duration) *kvstore.Client {
	r.t.Helper()
	ep, err := r.net.Endpoint(addr)
	if err != nil {
		r.t.Fatal(err)
	}
	heads := make([]transport.Addr, n)
	for i := range heads {
		heads[i] = repClientAddr(i)
	}
	cli, err := kvstore.NewClient(ep, heads, attempt)
	if err != nil {
		r.t.Fatal(err)
	}
	return cli
}

// TestKVClientHedgesPastSilentHead: the kvstore client hedges a
// mutation whose first replica is silent, cut off by a partition
// rather than crashed so that no send fails, to the next replica after
// a sixteenth of its attempt timeout, and the mutation applies once.
func TestKVClientHedgesPastSilentHead(t *testing.T) {
	r := newKVRig(t, 3, nil)
	const attempt = 10 * time.Second // the hedge is due after 625 ms
	cli := r.kvClient("app/kv", 3, attempt)
	defer cli.Close()
	r.net.Partition("app", repHost(0))
	t0 := time.Now()
	got, err := cli.Append("k", "a")
	if took := time.Since(t0); err != nil || got != "a" || took > attempt/4 {
		t.Fatalf("append past a silent replica: %q, %v after %v; want \"a\" well within the %v attempt timeout", got, err, took, attempt)
	}
	r.waitConverged(map[string]string{"k": "a"}, 5*time.Second)
}

// TestKVClientReusedAddressNotDeduplicated: two clients, one after the
// other at one address, each append once. The second mints IDs of its
// own, so its append runs instead of being answered with the first
// client's reply from the dedup table.
func TestKVClientReusedAddressNotDeduplicated(t *testing.T) {
	r := newKVRig(t, 3, nil)
	for _, v := range []string{"a", "b"} {
		cli := r.kvClient("app/kv", 3, 5*time.Second)
		_, err := cli.Append("k", v)
		cli.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	r.waitConverged(map[string]string{"k": "ab"}, 5*time.Second)
}

// TestStateTransferCarriesDedupTable pins the join contract: the
// deduplication table travels with the service snapshot, so a client
// retry landing on the joiner is answered from the table instead of
// re-executing.
func TestStateTransferCarriesDedupTable(t *testing.T) {
	r := newKVRig(t, 2, nil)

	req := &kvstore.Request{ReqID: "user/kv#pre-join", Op: kvstore.OpAppend, Key: "k", Value: "v"}
	if resp, _ := r.call(0, req, 5*time.Second); resp.Value != "v" {
		t.Fatalf("append: %+v", resp)
	}

	r.join(2, nil)
	r.waitConverged(map[string]string{"k": "v"}, 5*time.Second)
	if st := r.reps[2].Stats(); st.DedupEntries == 0 {
		t.Fatal("joiner's dedup table is empty after state transfer")
	}

	// Retry the pre-join request at the joiner: dedup hit, no third
	// execution, and the recorded response comes back.
	if resp, _ := r.call(2, req, 5*time.Second); resp.Value != "v" {
		t.Fatalf("retry at joiner: %+v, want recorded value v", resp)
	}
	if st := r.reps[2].Stats(); st.DedupHits != 1 || st.Applied != 0 {
		t.Errorf("joiner stats = %+v, want 1 dedup hit and 0 applications", st)
	}
	if got, _ := r.stores[2].Get("k"); got != "v" {
		t.Errorf("k = %q, retry must not re-execute", got)
	}
}

// TestLocalReadsSkipTotalOrder pins the Reply verdict path: gets are
// served by the receiving replica alone.
func TestLocalReadsSkipTotalOrder(t *testing.T) {
	r := newKVRig(t, 2, nil)
	put := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpPut, Key: "k", Value: "v"}
	if resp, _ := r.call(0, put, 5*time.Second); !resp.OK {
		t.Fatalf("put: %+v", resp)
	}
	r.waitConverged(map[string]string{"k": "v"}, 5*time.Second)

	applied := r.reps[1].Stats().Applied
	get := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpGet, Key: "k"}
	resp, from := r.call(1, get, 5*time.Second)
	if !resp.OK || !resp.Found || resp.Value != "v" {
		t.Fatalf("get: %+v", resp)
	}
	if from != repClientAddr(1) {
		t.Errorf("local read answered by %s, want the receiving replica", from)
	}
	if got := r.reps[1].Stats().Applied; got != applied {
		t.Errorf("local read went through the total order (applied %d -> %d)", applied, got)
	}
}

// TestBatchedCommandsDedupExactlyOnce fires a rapid burst of client
// requests with every ReqID retried at both replicas, so the group
// layer coalesces the commands into REQBATCH/BATCH frames while the
// duplicates race each other. Non-idempotent appends make any dedup
// slip visible: a doubled value means a command inside a batch was
// applied twice.
func TestBatchedCommandsDedupExactlyOnce(t *testing.T) {
	r := newKVRig(t, 2, nil) // batching is on by default

	const n = 12
	want := map[string]string{}
	var last string
	for k := 0; k < n; k++ {
		req := &kvstore.Request{
			ReqID: r.reqID(),
			Op:    kvstore.OpAppend,
			Key:   fmt.Sprintf("k%d", k),
			Value: "x",
		}
		// Three copies, interleaved across both replicas, no waiting:
		// the retries land while the original may still sit in a
		// pending batch.
		r.send(0, req)
		r.send(1, req)
		r.send(0, req)
		want[req.Key] = "x"
		last = req.ReqID
	}
	if resp, _ := r.await(last, 5*time.Second); !resp.OK {
		t.Fatalf("burst tail: %+v", resp)
	}
	r.waitConverged(want, 5*time.Second)
}

// hintCounter forwards an endpoint's receive stream, counting the
// connection-loss hints in it.
type hintCounter struct {
	transport.Endpoint
	recv  chan transport.Message
	hints atomic.Int64
}

func countHints(inner transport.Endpoint) *hintCounter {
	h := &hintCounter{Endpoint: inner, recv: make(chan transport.Message, 64)}
	go func() {
		defer close(h.recv)
		for m := range inner.Recv() {
			if m.Lost {
				h.hints.Add(1)
			}
			select {
			case h.recv <- m:
			default: // full: dropped, as a transport would
			}
		}
	}()
	return h
}

func (h *hintCounter) Recv() <-chan transport.Message { return h.recv }

// TestConnectionLossHintIsNotIntercepted: a client's crash hands the
// replica's client endpoint a connection-loss hint, which the intercept
// drops like any datagram it cannot classify.
func TestConnectionLossHintIsNotIntercepted(t *testing.T) {
	var ep *hintCounter
	r := newKVRig(t, 2, func(c *rsm.Config) {
		if c.Self == repMember(0) {
			ep = countHints(c.ClientEndpoint)
			c.ClientEndpoint = ep
		}
	})
	if resp, _ := r.call(0, &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "k", Value: "a"}, 5*time.Second); !resp.OK {
		t.Fatalf("first request: %+v", resp)
	}
	before := r.reps[0].Stats().Intercepted

	r.net.CrashHost("user")
	deadline := time.Now().Add(5 * time.Second)
	for ep.hints.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ep.hints.Load() == 0 {
		t.Fatal("the client's crash raised no hint at the replica")
	}
	// A request from another client queues behind the hint, so once it
	// is answered the hint has been through the intercept.
	r.cli, _ = r.net.Endpoint("user2/kv")
	if resp, _ := r.call(0, &kvstore.Request{ReqID: "user2/kv#1", Op: kvstore.OpAppend, Key: "k", Value: "b"}, 5*time.Second); !resp.OK {
		t.Fatalf("second request: %+v", resp)
	}
	if got := r.reps[0].Stats().Intercepted - before; got != 1 {
		t.Errorf("Intercepted rose by %d across a hint and one request, want 1", got)
	}
}

// TestStartValidation pins the required-config, pool-size and lease
// errors.
func TestStartValidation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("r/x")
	store := kvstore.NewStore()
	if _, err := rsm.Start(rsm.Config{ClientEndpoint: ep, Classify: kvstore.Classifier(store)}); err == nil {
		t.Error("missing Service should fail")
	}
	if _, err := rsm.Start(rsm.Config{ClientEndpoint: ep, Service: store}); err == nil {
		t.Error("missing Classify should fail")
	}
	if _, err := rsm.Start(rsm.Config{Service: store, Classify: kvstore.Classifier(store)}); err == nil {
		t.Error("missing ClientEndpoint should fail")
	}
	for _, cfg := range []rsm.Config{{ReadConcurrency: -1}, {LeaseDuration: -1}} {
		cfg.ClientEndpoint, cfg.Service, cfg.Classify = ep, store, kvstore.Classifier(store)
		if _, err := rsm.Start(cfg); err == nil {
			t.Errorf("negative pool size or lease should fail: read %d, lease %v",
				cfg.ReadConcurrency, cfg.LeaseDuration)
		}
	}
}
