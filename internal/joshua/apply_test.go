package joshua

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// oracle is the reference apply the heads' one-pass path must
// reproduce byte for byte: a full decodeRPC, the operation applied from
// the decoded strings, and the reply built as an rpcResponse value and
// encoded.
type oracle struct {
	d *pbs.Daemon
}

func (o *oracle) apply(payload []byte) []byte {
	req, _, err := decodeRPC(payload)
	if err != nil || req == nil {
		return nil
	}
	a := &req.Args
	resp := &rpcResponse{ReqID: req.ReqID, OK: true}
	srv := o.d.Server()
	fail := func(err error) []byte {
		resp.OK = false
		resp.ErrMsg = err.Error()
		resp.Epoch = srv.Version()
		return resp.encode()
	}
	one := func(j pbs.Job, err error) []byte {
		if err != nil {
			return fail(err)
		}
		resp.Jobs = []pbs.Job{j}
		resp.Epoch = srv.Version()
		return resp.encode()
	}
	switch req.Op {
	case OpSubmit:
		sr := pbs.SubmitRequest{
			Name: a.Name, Owner: a.Owner, Script: a.Script,
			NodeCount: a.NodeCount, WallTime: a.WallTime, Hold: a.Hold,
			Resources: pbs.ResourceSpec{NCPUs: a.NCPUs, Mem: a.Mem},
			Priority:  a.Priority,
		}
		if a.ArraySet {
			sr.Array = pbs.ArraySpec{Set: true, Start: a.ArrayStart, End: a.ArrayEnd}
			jobs, err := o.d.SubmitArray(sr)
			if err != nil {
				return fail(err)
			}
			resp.Jobs = jobs
			break
		}
		for i := 0; i < max(a.Count, 1); i++ {
			j, err := o.d.Submit(sr)
			if err != nil {
				return fail(err)
			}
			resp.Jobs = append(resp.Jobs, j)
		}
	case OpDelete:
		return one(o.d.Delete([]byte(a.JobID)))
	case OpHold:
		return one(o.d.Hold([]byte(a.JobID)))
	case OpRelease:
		return one(o.d.Release([]byte(a.JobID)))
	case OpSignal:
		return one(o.d.Signal(a.JobID, a.Signal))
	case OpStat:
		return one(o.d.Status(a.JobID))
	case OpStatAll:
		resp.Jobs = o.d.StatusAll()
	case OpNodesLocal:
		resp.Nodes = srv.NodesStatus()
	case OpNodeOffline:
		if err := srv.SetNodeOffline(a.Node, true); err != nil {
			return fail(err)
		}
	case OpNodeOnline:
		if err := srv.SetNodeOffline(a.Node, false); err != nil {
			return fail(err)
		}
		o.d.FlushActions()
	case OpJDone:
		if err := o.d.ApplyDone([]byte(a.JobID), []byte(a.Node), a.ExitCode, []byte(a.Output)); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("joshua: unknown operation %v", req.Op))
	}
	resp.Epoch = srv.Version()
	return resp.encode()
}

// applyScript is a command stream over every operation: success and
// error paths, Count 0/1/3 and an array, ordered reads, node state,
// and completions: accepted, refused, duplicate and unknown.
func applyScript() []rpcRequest {
	sub := cmdArgs{Name: "job", Owner: "alice", Script: "#!/bin/sh\necho hi\n", WallTime: time.Minute}
	held := sub
	held.Hold = true
	three := held
	three.Count = 3
	one := sub
	one.Count = 1
	array := held
	array.ArraySet, array.ArrayStart, array.ArrayEnd = true, 1, 3
	badArray := held
	badArray.ArraySet, badArray.ArrayStart, badArray.ArrayEnd = true, 5, 2
	tooBig := sub
	tooBig.NodeCount = 9
	prio := held
	prio.Name, prio.Owner, prio.Script = "", "", ""
	prio.NCPUs, prio.Mem, prio.Priority, prio.NodeCount = 1, 1<<20, -3, 2
	id := func(s string) cmdArgs { return cmdArgs{JobID: pbs.JobID(s)} }
	done := func(job, node string, exit int, output string) cmdArgs {
		return cmdArgs{JobID: pbs.JobID(job), Node: node, ExitCode: exit, Output: output}
	}

	reqs := []rpcRequest{
		{Op: Op(0)},
		{Op: Op(200), Args: sub},
		{Op: OpSubmit, Args: sub},   // 1.cluster runs on c0
		{Op: OpSubmit, Args: one},   // 2.cluster runs on c1
		{Op: OpSubmit, Args: held},  // 3.cluster
		{Op: OpSubmit, Args: three}, // 4-6.cluster
		{Op: OpSubmit, Args: array}, // 7[1..3].cluster
		{Op: OpSubmit, Args: badArray},
		{Op: OpSubmit, Args: tooBig},
		{Op: OpSubmit, Args: prio},
		{Op: OpStat, Args: id("1.cluster")},
		{Op: OpStat, Args: id("9.cluster")},
		{Op: OpStat, Ordered: true, Args: id("3.cluster")},
		{Op: OpStat},
		{Op: OpStatAll, Ordered: true},
		{Op: OpHold, Args: id("3.cluster")},
		{Op: OpHold, Args: id("1.cluster")},
		{Op: OpHold, Args: id("99.cluster")},
		{Op: OpRelease, Args: id("3.cluster")},
		{Op: OpRelease, Args: id("3.cluster")},
		{Op: OpSignal, Args: cmdArgs{JobID: "1.cluster", Signal: "SIGUSR1"}},
		{Op: OpSignal, Args: cmdArgs{JobID: "4.cluster", Signal: "SIGUSR1"}},
		{Op: OpDelete, Args: id("5.cluster")},
		{Op: OpDelete, Args: id("2.cluster")},
		{Op: OpDelete, Args: id("2.cluster")},
		{Op: OpDelete, Args: id("99.cluster")},
		{Op: OpNodeOffline, Args: cmdArgs{Node: "c1"}},
		{Op: OpNodeOffline, Args: cmdArgs{Node: "c9"}},
		{Op: OpNodesLocal, Ordered: true},
		{Op: OpJDone, Args: done("1.cluster", "c1", 0, "wrong node\n")},
		{Op: OpJDone, Args: done("1.cluster", "c0", 0, "hi\n")},
		{Op: OpJDone, Args: done("2.cluster", "c1", -271, "killed\n")},
		{Op: OpJDone, Args: done("1.cluster", "c0", 0, "again\n")},
		{Op: OpJDone, Args: done("99.cluster", "c0", 0, "")},
		{Op: OpNodeOnline, Args: cmdArgs{Node: "c1"}},
		{Op: OpNodeOnline, Args: cmdArgs{Node: "c9"}},
		{Op: OpJDone, Args: done("3.cluster", "c0", 0, "")},
		{Op: OpInfoLocal, Ordered: true},
		{Op: OpStatAll, Ordered: true},
		{Op: OpNodesLocal, Ordered: true},
	}
	for i := range reqs {
		reqs[i].ReqID = fmt.Sprintf("user/cli#%d", i+1)
	}
	return reqs
}

// TestApplyReplyMatchesEncode drives the head service and the oracle
// on twin daemons through applyScript and checks every reply byte for
// byte, then the twins' whole state. Truncated copies of each command,
// fed to the head service alone, must produce no reply and change
// nothing.
func TestApplyReplyMatchesEncode(t *testing.T) {
	svc := newHeadService(newApplyDaemon(t))
	ref := &oracle{d: newApplyDaemon(t)}
	var failed, done int
	for _, req := range applyScript() {
		payload := req.encode()
		for _, n := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
			if got := applied(svc, rsm.Command{Payload: payload[:n]}); got != nil {
				t.Fatalf("%v %s truncated to %d bytes: reply %x, want none", req.Op, req.ReqID, n, got)
			}
		}
		want := ref.apply(payload)
		got := applied(svc, rsm.Command{Payload: payload})
		if !bytes.Equal(got, want) {
			_, g, _ := decodeRPC(got)
			_, w, _ := decodeRPC(want)
			t.Fatalf("%v %s: reply differs\n got %+v\nwant %+v", req.Op, req.ReqID, g, w)
		}
		_, resp, err := decodeRPC(got)
		if err != nil {
			t.Fatalf("%v %s: reply does not decode: %v", req.Op, req.ReqID, err)
		}
		switch {
		case !resp.OK:
			failed++
		case req.Op == OpJDone:
			done++
		}
	}
	if failed < 10 || done < 3 {
		t.Errorf("script exercised %d errors and %d accepted completions; want at least 10 and 3", failed, done)
	}
	want := &headService{daemon: ref.d}
	if !bytes.Equal(svc.Snapshot(), want.Snapshot()) {
		t.Error("state after the script differs from the oracle twin's")
	}
}

// TestAppliedStateOwnsItsStrings applies submits and completions
// through the head service and then overwrites every byte of
// every payload, as the engine's envelope recycling may: the state
// must be byte-identical to a twin fed fresh copies, and no job may
// change.
func TestAppliedStateOwnsItsStrings(t *testing.T) {
	daemon := newApplyDaemon(t)
	svc, twin := newHeadService(daemon), newHeadService(newApplyDaemon(t))
	var payloads [][]byte
	for _, req := range applyScript() {
		p := req.encode()
		payloads = append(payloads, p)
		applied(svc, rsm.Command{Payload: p})
		applied(twin, rsm.Command{Payload: bytes.Clone(p)})
	}
	before := daemon.StatusAll()
	var statuses []pbs.Job
	for _, j := range before {
		s, err := daemon.Status(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, s)
	}
	if len(statuses) < 8 {
		t.Fatalf("only %d jobs after the script", len(statuses))
	}
	for _, p := range payloads {
		for i := range p {
			p[i] = 0xA5
		}
	}
	if !bytes.Equal(svc.Snapshot(), twin.Snapshot()) {
		t.Error("state changed with the recycled payloads")
	}
	for _, want := range statuses {
		got, err := daemon.Status(want.ID)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("job %s changed with the recycled payloads:\n got %+v (%v)\nwant %+v", want.ID, got, err, want)
		}
	}
}
