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
	d     *pbs.Daemon
	locks map[pbs.JobID]string
}

func (o *oracle) apply(payload []byte) []byte {
	req, _, err := decodeRPC(payload)
	if err != nil || req == nil {
		return nil
	}
	a := &req.Args
	resp := &rpcResponse{ReqID: req.ReqID, OK: true}
	switch req.Op {
	case OpJMutex:
		owner, held := o.locks[a.JobID]
		if !held {
			o.locks[a.JobID] = a.AttemptID
			owner = a.AttemptID
		}
		resp.Granted = owner == a.AttemptID
		return resp.encode()
	case OpJDone:
		delete(o.locks, a.JobID)
		return resp.encode()
	case OpJobDone:
		o.d.ApplyDone(a.JobID, a.ExitCode, a.Output)
		return resp.encode()
	}
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
		return one(o.d.Delete(a.JobID))
	case OpHold:
		return one(o.d.Hold(a.JobID))
	case OpRelease:
		return one(o.d.Release(a.JobID))
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
	default:
		return fail(fmt.Errorf("joshua: unknown operation %v", req.Op))
	}
	resp.Epoch = srv.Version()
	return resp.encode()
}

// applyScript is a command stream over every operation: success and
// error paths, Count 0/1/3 and an array, ordered reads, node state,
// completions, and the jmutex grant/deny/release cycle.
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
	lock := func(job, attempt string) cmdArgs { return cmdArgs{JobID: pbs.JobID(job), AttemptID: attempt} }

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
		{Op: OpJobDone, Args: cmdArgs{JobID: "1.cluster", ExitCode: 0, Output: "hi\n"}},
		{Op: OpJobDone, Args: cmdArgs{JobID: "2.cluster", ExitCode: -271, Output: "killed\n"}},
		{Op: OpJobDone, Args: cmdArgs{JobID: "1.cluster", ExitCode: 0, Output: "again\n"}},
		{Op: OpJobDone, Args: id("99.cluster")},
		{Op: OpNodeOnline, Args: cmdArgs{Node: "c1"}},
		{Op: OpNodeOnline, Args: cmdArgs{Node: "c9"}},
		{Op: OpJMutex, Args: lock("3.cluster", "head0/pbs+c0")},
		{Op: OpJMutex, Args: lock("3.cluster", "head1/pbs+c0")},
		{Op: OpJMutex, Args: lock("3.cluster", "head0/pbs+c0")},
		{Op: OpJMutex, Args: lock("4.cluster", "head1/pbs+c1")},
		{Op: OpJDone, Args: id("3.cluster")},
		{Op: OpJMutex, Args: lock("3.cluster", "head1/pbs+c0")},
		{Op: OpJDone, Args: id("99.cluster")},
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
	ref := &oracle{d: newApplyDaemon(t), locks: map[pbs.JobID]string{}}
	var failed, granted, denied int
	for _, req := range applyScript() {
		payload := req.encode()
		for _, n := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
			if got := svc.Apply(rsm.Command{Payload: payload[:n]}); got != nil {
				t.Fatalf("%v %s truncated to %d bytes: reply %x, want none", req.Op, req.ReqID, n, got)
			}
		}
		want := ref.apply(payload)
		got := svc.Apply(rsm.Command{Payload: payload})
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
		case req.Op == OpJMutex && resp.Granted:
			granted++
		case req.Op == OpJMutex:
			denied++
		}
	}
	if failed < 10 || granted < 3 || denied < 1 {
		t.Errorf("script exercised %d errors, %d grants, %d denials; want at least 10, 3, 1", failed, granted, denied)
	}
	want := &headService{daemon: ref.d, locks: &lockTable{held: ref.locks}}
	if !bytes.Equal(svc.Snapshot(), want.Snapshot()) {
		t.Error("state after the script differs from the oracle twin's")
	}
}

// TestAppliedStateOwnsItsStrings applies submits, completions and
// jmutex through the head service and then overwrites every byte of
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
		svc.Apply(rsm.Command{Payload: p})
		twin.Apply(rsm.Command{Payload: bytes.Clone(p)})
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
