package joshua

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
)

func TestRPCRequestRoundTrip(t *testing.T) {
	req := &rpcRequest{
		ReqID: "cli-1/client#42",
		Op:    OpSubmit,
		Args: cmdArgs{
			Name:      "job",
			Owner:     "alice",
			Script:    "#!/bin/sh\ntrue\n",
			NodeCount: 2,
			WallTime:  3 * time.Second,
			Hold:      true,
			Count:     5,
		},
	}
	gotReq, gotResp, err := decodeRPC(req.encode())
	if err != nil || gotResp != nil {
		t.Fatalf("decode: %v (resp %v)", err, gotResp)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", gotReq, req)
	}
}

func TestRPCResponseRoundTrip(t *testing.T) {
	resp := &rpcResponse{
		ReqID: "x#1",
		OK:    true,
		Jobs: []pbs.Job{
			{ID: "1.cluster", Seq: 1, Name: "a", Owner: "u", State: pbs.StateRunning, NodeCount: 1, Nodes: []string{"c0"}},
			{ID: "2.cluster", Seq: 2, Name: "b", State: pbs.StateCompleted, ExitCode: -271},
		},
	}
	gotReq, gotResp, err := decodeRPC(resp.encode())
	if err != nil || gotReq != nil {
		t.Fatalf("decode: %v (req %v)", err, gotReq)
	}
	if gotResp.ReqID != resp.ReqID || !gotResp.OK {
		t.Errorf("header mismatch: %+v", gotResp)
	}
	if len(gotResp.Jobs) != 2 || gotResp.Jobs[0].ID != "1.cluster" || gotResp.Jobs[1].ExitCode != -271 {
		t.Errorf("jobs mismatch: %+v", gotResp.Jobs)
	}
}

func TestRPCErrorResponse(t *testing.T) {
	resp := &rpcResponse{ReqID: "x#2", OK: false, ErrMsg: "pbs: qstat 9.c: Unknown Job Id"}
	_, got, err := decodeRPC(resp.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.OK || got.ErrMsg != resp.ErrMsg {
		t.Errorf("got %+v", got)
	}
}

func TestRPCDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0}, {99}, {rpcKindRequest}, {rpcKindResponse, 0xFF}} {
		if _, _, err := decodeRPC(b); err == nil {
			t.Errorf("decodeRPC(%v) should fail", b)
		}
	}
}

// TestRequestOpPeek checks that the header peek the classifier runs
// on the receive path reads the request ID and operation alone.
func TestRequestOpPeek(t *testing.T) {
	req := &rpcRequest{
		ReqID: "c#9",
		Op:    OpJDone,
		Args:  cmdArgs{JobID: "3.cluster", Node: "compute0", Output: "hi\n"},
	}
	p := req.encode()
	var v view
	if !v.header(codec.NewDecoder(p)) || v.op != OpJDone || string(v.reqID) != "c#9" {
		t.Fatalf("header = %q %v; want c#9 jdone", v.reqID, v.op)
	}
	if v.header(codec.NewDecoder(nil)) {
		t.Error("header(nil) accepted")
	}
	resp := &rpcResponse{ReqID: "c#9", OK: true}
	if v.header(codec.NewDecoder(resp.encode())) {
		t.Error("header(response) accepted")
	}
}

// viewRequest rebuilds the request a view read, for comparison with
// decodeRPC's.
func viewRequest(v *view) *rpcRequest {
	sr := v.submitRequest()
	return &rpcRequest{ReqID: string(v.reqID), Op: v.op, Ordered: v.ordered, Args: cmdArgs{
		Name: sr.Name, Owner: sr.Owner, Script: sr.Script,
		NodeCount: sr.NodeCount, WallTime: sr.WallTime, Hold: sr.Hold, Count: v.count,
		NCPUs: sr.Resources.NCPUs, Mem: sr.Resources.Mem, Priority: sr.Priority,
		ArraySet: sr.Array.Set, ArrayStart: sr.Array.Start, ArrayEnd: sr.Array.End,
		JobID: pbs.JobID(v.jobID), Signal: string(v.signal),
		ExitCode: v.exitCode, Output: string(v.output), Node: string(v.node),
	}}
}

// TestViewMatchesDecode compares the head service's request view with
// decodeRPC over every operation, with and without a job ID, and over
// every truncation of each payload, every single-byte corruption of
// it, a payload with a trailing byte and a response. The view must
// accept exactly the payloads decodeRPC accepts and read the same
// request from them.
func TestViewMatchesDecode(t *testing.T) {
	full := cmdArgs{
		Name: "n", Owner: "o", Script: "#!/bin/sh\n", NodeCount: 2, WallTime: time.Second,
		Hold: true, Count: 3, NCPUs: 4, Mem: 1 << 30, Priority: -5,
		ArraySet: true, ArrayStart: 1, ArrayEnd: 9,
		Signal: "SIGUSR1", ExitCode: -271,
		Output: "out\n", Node: "compute0",
	}
	var payloads [][]byte
	for op := Op(0); op <= OpInfoLocal+1; op++ {
		for _, args := range []cmdArgs{{}, {JobID: "7.cluster"}, full} {
			if args.Name != "" {
				args.JobID = "12.cluster"
			}
			for _, ordered := range []bool{false, true} {
				p := (&rpcRequest{ReqID: "c#1", Op: op, Ordered: ordered, Args: args}).encode()
				for n := 0; n <= len(p); n++ {
					payloads = append(payloads, p[:n])
				}
				for i := range p {
					bad := bytes.Clone(p)
					bad[i] = 0xFF
					payloads = append(payloads, bad)
				}
				payloads = append(payloads, append(append([]byte(nil), p...), 0))
			}
		}
	}
	payloads = append(payloads, (&rpcResponse{ReqID: "c#1", OK: true}).encode())

	var accepted int
	for _, p := range payloads {
		req, _, err := decodeRPC(p)
		var v view
		if ok := v.parse(p); ok != (err == nil && req != nil) {
			t.Fatalf("view.parse(%x) = %v, decodeRPC: %v, %v", p, ok, req, err)
		} else if ok {
			accepted++
			if got := viewRequest(&v); !reflect.DeepEqual(got, req) {
				t.Fatalf("view of %x:\n got %+v\nwant %+v", p, got, req)
			}
		}
	}
	if accepted == 0 || accepted == len(payloads) {
		t.Fatalf("view accepted %d of %d payloads", accepted, len(payloads))
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpSubmit: "jsub", OpDelete: "jdel", OpStat: "jstat",
		OpJDone: "jdone", Op(8): "op(8)", Op(10): "op(10)",
		Op(11): "op(11)", Op(200): "op(200)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if OpStatAll.mutating() || !OpSubmit.mutating() || !OpJDone.mutating() {
		t.Error("mutating classification wrong")
	}
}

// TestOpValues pins every operation's byte: WAL records and replicated
// dedup replies carry it, so renumbering one would make a head misread
// its own log. Values 8, 10 and 11 stay reserved for the retired
// jmutex, local-state read and head-originated completion.
func TestOpValues(t *testing.T) {
	want := []struct {
		op   Op
		wire byte
	}{
		{OpSubmit, 1}, {OpDelete, 2}, {OpStat, 3}, {OpStatAll, 4},
		{OpHold, 5}, {OpRelease, 6}, {OpSignal, 7}, {OpJDone, 9},
		{OpNodeOffline, 12}, {OpNodeOnline, 13}, {OpNodesLocal, 14},
		{OpInfoLocal, 15},
	}
	for _, w := range want {
		if byte(w.op) != w.wire {
			t.Errorf("%v = %d, want %d", w.op, byte(w.op), w.wire)
		}
	}
	for _, reserved := range []Op{8, 10, 11} {
		if got, want := reserved.String(), fmt.Sprintf("op(%d)", reserved); got != want {
			t.Errorf("reserved byte %d names %q, want %q", reserved, got, want)
		}
	}
}

// Property: arbitrary command args survive the round trip through a
// client request (the same bytes the engine replicates verbatim).
func TestQuickRPCRequest(t *testing.T) {
	f := func(reqID, name, owner, script, jobID, node string, nodes uint8, wall int64, hold bool, count uint8) bool {
		req := &rpcRequest{
			ReqID: reqID,
			Op:    OpSubmit,
			Args: cmdArgs{
				Name: name, Owner: owner, Script: script,
				NodeCount: int(nodes), WallTime: time.Duration(wall),
				Hold: hold, Count: int(count),
				JobID: pbs.JobID(jobID), Node: node,
			},
		}
		got, _, err := decodeRPC(req.encode())
		return err == nil && reflect.DeepEqual(req, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
