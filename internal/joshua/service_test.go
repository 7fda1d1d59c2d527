package joshua

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"testing"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

func TestLockServiceSnapshotRoundTrip(t *testing.T) {
	src := newHeadService(newApplyDaemon(t))
	src.locks.held = map[pbs.JobID]string{
		"1.cluster": "head0/pbs+compute0",
		"2.cluster": "head1/pbs+compute1",
	}
	dst := newHeadService(newApplyDaemon(t))
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.locks.held, src.locks.held) {
		t.Errorf("locks mismatch:\n got %+v\nwant %+v", dst.locks.held, src.locks.held)
	}
	if dst.locks.Len() != 2 {
		t.Errorf("Len = %d, want 2", dst.locks.Len())
	}
}

func TestLockServiceSnapshotDeterministic(t *testing.T) {
	s := newHeadService(newApplyDaemon(t))
	s.locks.held = map[pbs.JobID]string{"b": "2", "a": "1", "c": "3"}
	twin := newHeadService(newApplyDaemon(t))
	twin.locks.held = map[pbs.JobID]string{"c": "3", "a": "1", "b": "2"}
	b := s.Snapshot()
	if !bytes.Equal(b, s.Snapshot()) || !bytes.Equal(b, twin.Snapshot()) {
		t.Error("lock table snapshot is nondeterministic")
	}
}

// TestHeadForkMatchesSnapshot walks applyScript and, before each
// command, forks the head service and takes a Snapshot. The fork is
// encoded only once the command has applied — on every other step
// while it applies — and must still give the Snapshot's bytes. The
// last image restores into a fresh service with the same Snapshot.
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
			svc.Apply(cmd)
			<-done
		} else {
			svc.Apply(cmd)
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
	if dst.locks.Len() == 0 || !reflect.DeepEqual(dst.locks.held, svc.locks.held) {
		t.Errorf("restored locks %+v, want %+v", dst.locks.held, svc.locks.held)
	}
}

// TestHeadSnapshotRestoreRoundTrip restores the Snapshot of a service
// that ran applyScript into a fresh service: both parts of the head
// state, the PBS server and the lock table, must come across.
func TestHeadSnapshotRestoreRoundTrip(t *testing.T) {
	src := newHeadService(newApplyDaemon(t))
	for _, req := range applyScript() {
		src.Apply(rsm.Command{Payload: req.encode()})
	}
	dst := newHeadService(newApplyDaemon(t))
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.daemon.Server().Snapshot(), src.daemon.Server().Snapshot()) {
		t.Error("restored PBS server state differs from the source's")
	}
	if src.locks.Len() == 0 || !reflect.DeepEqual(dst.locks.held, src.locks.held) {
		t.Errorf("restored locks %+v, want %+v", dst.locks.held, src.locks.held)
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
		src.Apply(rsm.Command{Payload: req.encode()})
	}
	good := src.Snapshot()

	lockSection := codec.NewEncoder(64)
	putLocks(lockSection, src.locks.clone())
	sectioned := codec.NewEncoder(len(good) + 64)
	sectioned.PutUint(2)
	for _, sec := range []struct {
		name string
		b    []byte
	}{{"pbs", src.daemon.Server().Snapshot()}, {"locks", lockSection.Bytes()}} {
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
