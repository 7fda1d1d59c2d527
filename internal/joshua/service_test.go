package joshua

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// TestHeadForkMatchesSnapshot walks applyScript and, before each
// command, forks the head service and takes a Snapshot. The fork is
// encoded only once the command has applied — on every other step
// while it applies — and must still give the Snapshot's bytes. The
// last image restores into a fresh service with the same Snapshot.
// Last, a fork taken while a job runs, which shares the job's node
// list, is encoded after that job completes and the next one starts,
// is deleted and completes.
func TestHeadForkMatchesSnapshot(t *testing.T) {
	svc := newHeadService(newApplyDaemon(t))
	changed := 0
	for i, req := range applyScript() {
		want := svc.Snapshot()
		enc := svc.Fork()
		cmd := rsm.Command{Payload: req.encode()}
		var got []byte
		if i%2 == 0 {
			done := make(chan struct{})
			go func() {
				defer close(done)
				got = enc()
			}()
			applied(svc, cmd)
			<-done
		} else {
			applied(svc, cmd)
			got = enc()
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v %s: fork encode differs from the Snapshot at fork time", req.Op, req.ReqID)
		}
		if !bytes.Equal(svc.Snapshot(), want) {
			changed++
		}
	}
	if changed < 20 {
		t.Fatalf("the script changed the state %d times; want at least 20", changed)
	}

	image := svc.Fork()()
	dst := newHeadService(newApplyDaemon(t))
	if err := dst.Restore(image); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Snapshot(), image) {
		t.Error("restored service's Snapshot differs from the forked image")
	}

	svc = newHeadService(newApplyDaemon(t))
	seq := 0
	apply := func(op Op, args cmdArgs) {
		seq++
		applied(svc, rsm.Command{Payload: (&rpcRequest{ReqID: fmt.Sprintf("user/cli#%d", seq), Op: op, Args: args}).encode()})
	}
	firstNode := func(id pbs.JobID) string {
		j, err := svc.daemon.Server().Status(id)
		if err != nil || j.State != pbs.StateRunning || len(j.Nodes) == 0 {
			t.Fatalf("%s is %v on %v (%v), want running", id, j.State, j.Nodes, err)
		}
		return j.Nodes[0]
	}
	sub := cmdArgs{Name: "job", Owner: "alice", Script: "#!/bin/sh\necho hi\n", WallTime: time.Minute}
	apply(OpSubmit, sub) // 1.cluster runs
	apply(OpSubmit, sub) // 2.cluster waits for it
	node := firstNode("1.cluster")
	want := svc.Snapshot()
	enc := svc.Fork()
	apply(OpJDone, cmdArgs{JobID: "1.cluster", Node: node, Output: "hi\n"})
	node = firstNode("2.cluster")
	apply(OpDelete, cmdArgs{JobID: "2.cluster"})
	apply(OpJDone, cmdArgs{JobID: "2.cluster", Node: node, ExitCode: pbs.ExitCodeKilled})
	if j, _ := svc.daemon.Server().Status("2.cluster"); j.State != pbs.StateCompleted {
		t.Fatalf("2.cluster is %v, want completed", j.State)
	}
	if !bytes.Equal(enc(), want) {
		t.Fatal("fork encoded after its running job completed differs from the Snapshot at fork time")
	}
}

// TestHeadSnapshotRestoreRoundTrip restores the Snapshot of a service
// that ran applyScript into a fresh service: the PBS server state must
// come across.
func TestHeadSnapshotRestoreRoundTrip(t *testing.T) {
	src := newHeadService(newApplyDaemon(t))
	for _, req := range applyScript() {
		applied(src, rsm.Command{Payload: req.encode()})
	}
	dst := newHeadService(newApplyDaemon(t))
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.daemon.Server().Snapshot(), src.daemon.Server().Snapshot()) {
		t.Error("restored PBS server state differs from the source's")
	}
	if !bytes.Equal(dst.Snapshot(), src.Snapshot()) {
		t.Error("restored service's Snapshot differs from the source's")
	}
}

// TestHeadRestoreRejectsForeignSnapshot feeds Restore a wrong format
// byte, a trailing byte, truncations, and the earlier sectioned layout
// (a section count, then name, CRC and bytes per section) built by
// hand from the same state. Each must fail and leave the state as it
// was; the genuine snapshot then restores.
func TestHeadRestoreRejectsForeignSnapshot(t *testing.T) {
	src := newHeadService(newApplyDaemon(t))
	for _, req := range applyScript() {
		applied(src, rsm.Command{Payload: req.encode()})
	}
	good := src.Snapshot()

	lockSection := []byte{0} // no locks held
	sectioned := codec.NewEncoder(len(good) + 64)
	sectioned.PutUint(2)
	for _, sec := range []struct {
		name string
		b    []byte
	}{{"pbs", src.daemon.Server().Snapshot()}, {"locks", lockSection}} {
		sectioned.PutString(sec.name)
		sectioned.PutUint(uint64(crc32.ChecksumIEEE(sec.b)))
		sectioned.PutBytes(sec.b)
	}

	wrongFormat := bytes.Clone(good)
	wrongFormat[0]++
	bad := map[string][]byte{
		"empty":            nil,
		"format byte only": good[:1],
		"wrong format":     wrongFormat,
		"trailing byte":    append(bytes.Clone(good), 0),
		"truncated":        good[:len(good)-1],
		"sectioned layout": sectioned.Bytes(),
	}
	dst := newHeadService(newApplyDaemon(t))
	before := dst.Snapshot()
	for name, b := range bad {
		if err := dst.Restore(b); err == nil {
			t.Errorf("%s: Restore accepted it", name)
		}
		if !bytes.Equal(dst.Snapshot(), before) {
			t.Fatalf("%s: rejected Restore changed the state", name)
		}
	}
	if err := dst.Restore(good); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Snapshot(), good) {
		t.Error("restored state differs from the source's")
	}
}

// TestHeadRestoreRejectsFormat1 feeds Restore the previous layout,
// which carried the jmutex lock table after the batch state: format 1,
// the length-prefixed PBS snapshot, and an empty lock section. It must
// fail and leave the state as it was.
func TestHeadRestoreRejectsFormat1(t *testing.T) {
	src := newHeadService(newApplyDaemon(t))
	for _, req := range applyScript() {
		applied(src, rsm.Command{Payload: req.encode()})
	}
	v1 := codec.NewEncoder(64)
	v1.PutByte(1)
	v1.PutBytes(src.daemon.Server().Snapshot())
	v1.PutUint(0)
	dst := newHeadService(newApplyDaemon(t))
	before := dst.Snapshot()
	if err := dst.Restore(v1.Bytes()); err == nil {
		t.Fatal("Restore accepted a format-1 snapshot")
	}
	if !bytes.Equal(dst.Snapshot(), before) {
		t.Fatal("a rejected format-1 snapshot changed the state")
	}
}

// applied runs one command through svc.Apply, as the engine does, and
// returns a copy of the reply it wrote, nil for none.
func applied(svc *headService, cmd rsm.Command) []byte {
	e := codec.GetEncoder(256)
	defer e.Release()
	svc.Apply(cmd, e)
	if e.Len() == 0 {
		return nil
	}
	return bytes.Clone(e.Bytes())
}
