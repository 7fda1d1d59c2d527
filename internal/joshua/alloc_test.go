package joshua

import (
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// This file is the allocation gate for the client's submit encode, the
// heads' apply of a replicated command (held jsub, repeated jdone)
// and the server's read replies (leased ordered listing, jstat <id>);
// the client's listing decode is gated in listing_test.go. The
// AllocsPerRun tests fail the ordinary test run on any regression; the
// benchmarks report allocs/op for the CI -benchmem threshold check.
// "Zero" means zero at the codec boundary: pooled encoders in,
// zero-copy decoder views out, cached listing bodies framed behind the
// caller's ReqID.

// benchSubmitReq is a representative qsub request.
func benchSubmitReq() *rpcRequest {
	return &rpcRequest{
		ReqID: "login1/cli#00000042",
		Op:    OpSubmit,
		Args:  cmdArgs{Name: "bench", Owner: "bench", Script: "#!/bin/sh\ntrue\n", Hold: true},
	}
}

// newApplyDaemon returns a batch daemon with no moms, closed at the end
// of the test: the state a head's services apply commands to.
func newApplyDaemon(t testing.TB) *pbs.Daemon {
	net := simnet.New(simnet.Config{})
	ep, err := net.Endpoint("head/pbs")
	if err != nil {
		t.Fatal(err)
	}
	srv := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: []string{"c0", "c1"}, Exclusive: true})
	d := pbs.NewDaemon(srv, pbs.DaemonConfig{Endpoint: ep, Moms: map[string]transport.Addr{}})
	t.Cleanup(func() {
		d.Close()
		net.Close()
	})
	return d
}

// leaseRig boots a single head and waits for it to grant itself a
// lease, then returns the server plus an encoded ordered StatAll
// request, which the replica serves with the classification's Respond
// hook while it holds the lease.
func leaseRig(t testing.TB) (*Server, []byte) {
	r := newRawRig(t, 1, nil)
	s := r.heads[0]

	// Seed one job through the real client path so listings carry
	// payload and the listing has something to encode.
	seed := &rpcRequest{ReqID: "user/raw#seed", Op: OpSubmit, Args: cmdArgs{Name: "seed", Hold: true}}
	if resp := r.sendReq(t, 0, seed, 5*time.Second); !resp.OK {
		t.Fatalf("seed submit rejected: %s", resp.ErrMsg)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !s.Stats().LeaseHeld {
		if time.Now().After(deadline) {
			t.Fatal("head never granted itself a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	payload := (&rpcRequest{ReqID: "user/raw#read", Op: OpStatAll, Ordered: true}).encode()
	return s, payload
}

// leasedServe classifies payload and builds the reply a lease holder
// sends; it is the measured operation. The replica's own share of a
// leased read (mark, park, resume) is gated in internal/rsm.
func leasedServe(t testing.TB, s *Server, payload []byte) {
	cls := s.classify(payload)
	if cls.Verdict != rsm.OrderedRead || cls.Respond == nil || len(cls.ReqID) == 0 {
		t.Fatalf("ordered read classified %v, want an OrderedRead with Respond and ReqID", cls.Verdict)
	}
	enc := cls.Respond(payload)
	if enc == nil {
		t.Fatal("read handler returned no encoder")
	}
	enc.Release()
}

func TestSubmitEncodeZeroAlloc(t *testing.T) {
	req := benchSubmitReq()
	req.encodeTo().Release() // warm the encoder pool
	allocs := testing.AllocsPerRun(200, func() {
		enc := req.encodeTo()
		_ = enc.Bytes()
		enc.Release()
	})
	if allocs != 0 {
		t.Errorf("submit encode: %v allocs/op, want 0", allocs)
	}
}

func TestLeasedReadServeZeroAlloc(t *testing.T) {
	s, payload := leaseRig(t)
	leasedServe(t, s, payload) // warm the pool and the listing cache
	allocs := testing.AllocsPerRun(200, func() {
		leasedServe(t, s, payload)
	})
	if allocs != 0 {
		t.Errorf("leased StatAll serve: %v allocs/op, want 0", allocs)
	}
}

// TestStatServeAllocs pins jstat <id> on the head: the ID is looked up
// in place in the request and the one-job reply encoded straight from
// the live table into a pooled encoder, so nothing is allocated.
func TestStatServeAllocs(t *testing.T) {
	s, _ := leaseRig(t)
	payload := (&rpcRequest{ReqID: "user/raw#stat", Op: OpStat, Args: cmdArgs{JobID: "1.cluster"}}).encode()
	// Check the reply once, which also warms the encoder pool.
	cls := s.classify(payload)
	if cls.Verdict != rsm.Reply || cls.Respond == nil {
		t.Fatal("jstat <id> not classified as a local read")
	}
	enc := cls.Respond(payload)
	if _, resp, err := decodeRPC(enc.Bytes()); err != nil || !resp.OK || len(resp.Jobs) != 1 {
		t.Fatalf("jstat <id> reply: %+v, %v", resp, err)
	}
	enc.Release()
	allocs := testing.AllocsPerRun(200, func() {
		cls := s.classify(payload)
		cls.Respond(payload).Release()
	})
	if allocs != 0 {
		t.Errorf("jstat <id> serve: %v allocs/op, want 0", allocs)
	}
}

// applyPooled applies cmd into a pooled encoder and releases it, as
// the engine does for a command whose reply it has recorded and sent.
func applyPooled(svc *headService, cmd rsm.Command) {
	e := codec.GetEncoder(256)
	svc.Apply(cmd, e)
	e.Release()
}

// TestApplyAllocs pins what every head pays to apply a replicated
// command. A held jsub decodes Name, Owner and Script as views into
// the payload and allocates only what pbs keeps: the job and the one
// string of its encoding, which holds its ID and its text; the reply
// goes into the engine's pooled encoder. A repeated jdone for a
// completed job looks the job ID and the reporting node up in place
// and copies only the output.
func TestApplyAllocs(t *testing.T) {
	svc := newHeadService(newApplyDaemon(t))
	submit := rsm.Command{Payload: benchSubmitReq().encode()}
	if _, resp, err := decodeRPC(applied(svc, submit)); err != nil || !resp.OK || len(resp.Jobs) != 1 {
		t.Fatalf("held jsub reply: %+v, %v", resp, err)
	}
	if allocs := testing.AllocsPerRun(200, func() { applyPooled(svc, submit) }); allocs > 2 {
		t.Errorf("held jsub apply: %v allocs/op, want <= 2", allocs)
	}

	run := (&rpcRequest{ReqID: "user/cli#run", Op: OpSubmit, Args: cmdArgs{Name: "run", WallTime: time.Minute}}).encode()
	_, resp, err := decodeRPC(applied(svc, rsm.Command{Payload: run}))
	if err != nil || !resp.OK || resp.Jobs[0].Nodes[0] != "c0" {
		t.Fatalf("jsub of a job to run on c0: %+v, %v", resp, err)
	}
	id := resp.Jobs[0].ID
	jdone := rsm.Command{Payload: (&rpcRequest{ReqID: "jdone/" + string(id), Op: OpJDone,
		Args: cmdArgs{JobID: id, Node: "c0", Output: "hi\n"}}).encode()}
	if _, resp, err := decodeRPC(applied(svc, jdone)); err != nil || !resp.OK {
		t.Fatalf("first jdone reply: %+v, %v", resp, err)
	}
	if allocs := testing.AllocsPerRun(200, func() { applyPooled(svc, jdone) }); allocs > 1 {
		t.Errorf("repeated jdone apply: %v allocs/op, want <= 1", allocs)
	}

	// A jdel looks its job ID up in place: deleting a held job
	// allocates nothing.
	const runs = 200
	jdels := make([]rsm.Command, runs+1) // AllocsPerRun warms up with one extra run
	for i := range jdels {
		_, resp, err := decodeRPC(applied(svc, submit))
		if err != nil || !resp.OK {
			t.Fatalf("held jsub reply: %+v, %v", resp, err)
		}
		id := resp.Jobs[0].ID
		jdels[i] = rsm.Command{Payload: (&rpcRequest{ReqID: "user/cli#del" + string(id), Op: OpDelete,
			Args: cmdArgs{JobID: id}}).encode()}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		applyPooled(svc, jdels[next])
		next++
	})
	if !raceEnabled && allocs != 0 {
		t.Errorf("jdel apply: %v allocs/op, want 0", allocs)
	}
	if _, resp, err := decodeRPC(applied(svc, jdels[0])); err != nil || resp.OK {
		t.Errorf("a second jdel of a deleted job: %+v, %v; want refused", resp, err)
	}
}

func BenchmarkApplySubmit(b *testing.B) {
	svc := newHeadService(newApplyDaemon(b))
	submit := rsm.Command{Payload: benchSubmitReq().encode()}
	applyPooled(svc, submit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyPooled(svc, submit)
	}
}

func BenchmarkSubmitEncode(b *testing.B) {
	req := benchSubmitReq()
	req.encodeTo().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := req.encodeTo()
		_ = enc.Bytes()
		enc.Release()
	}
}

func BenchmarkLeasedReadServe(b *testing.B) {
	s, payload := leaseRig(b)
	leasedServe(b, s, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leasedServe(b, s, payload)
	}
}
