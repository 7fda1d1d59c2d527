package pbs

import (
	"bytes"
	"testing"
	"time"
)

// TestForkMatchesSnapshot pins the contract the replication engine's
// off-loop checkpointer depends on: Fork's deferred encode must
// produce exactly the bytes Snapshot would have returned at capture
// time, and later mutations must not leak into the captured image.
func TestForkMatchesSnapshot(t *testing.T) {
	s := testServer()
	done, _ := s.Submit(SubmitRequest{Name: "done", Owner: "u", WallTime: time.Second})
	running, _ := s.Submit(SubmitRequest{Name: "running", Owner: "v"})
	queued, _ := s.Submit(SubmitRequest{Name: "queued", Owner: "u"})
	held, _ := s.Submit(SubmitRequest{Name: "held", Owner: "w"})
	s.Hold([]byte(held.ID))
	s.TakeActions()
	s.JobDone(done.ID, 0, "out")
	s.TakeActions()
	s.Signal(running.ID, "SIGUSR1")
	s.SetNodeOffline("c1", true)

	if j, _ := s.Status(running.ID); j.State != StateRunning || len(j.Nodes) == 0 {
		t.Fatalf("%s is %v on %v at the fork, want running", j.ID, j.State, j.Nodes)
	}
	want := s.Snapshot()
	enc := s.Fork()

	// Mutations after the fork must not change the captured image.
	s.Submit(SubmitRequest{Name: "late", Owner: "u"})
	s.SetNodeOffline("c1", false)
	s.Release([]byte(held.ID))
	s.TakeActions()
	// The image shares each job's node list. The job running at the
	// fork completes; the queued one starts on its node, is deleted
	// while running and completes: none of it may reach the image.
	s.JobDone(running.ID, 0, "out")
	if j, _ := s.Status(queued.ID); j.State != StateRunning {
		t.Fatalf("%s is %v after the running job's end, want running", j.ID, j.State)
	}
	s.Delete([]byte(queued.ID))
	s.JobDone(queued.ID, ExitCodeKilled, "")
	s.TakeActions()

	got := enc()
	if !bytes.Equal(got, want) {
		t.Fatalf("forked encode differs from snapshot at capture time: %d vs %d bytes", len(got), len(want))
	}
	// Calling the closure again yields the same bytes (it owns its
	// copy, nothing is consumed).
	if again := enc(); !bytes.Equal(again, want) {
		t.Fatal("second encode of the same fork differs")
	}

	// The captured image restores into a server equal to the pre-fork
	// state.
	r := NewServer(Config{ServerName: "cluster", Nodes: []string{"c0", "c1"}, Exclusive: true, Clock: fixedClock()})
	if err := r.Restore(got); err != nil {
		t.Fatalf("restoring forked image: %v", err)
	}
	if !bytes.Equal(r.Snapshot(), want) {
		t.Fatal("restored-from-fork server snapshots differently")
	}
}

// TestForkConcurrentWithMutations drives mutations from the test
// goroutine while forked encodes run concurrently — the shape the
// engine produces (checkpointer goroutine encoding while the apply
// pipeline keeps mutating). Run under -race this pins the lock
// discipline of the capture.
func TestForkConcurrentWithMutations(t *testing.T) {
	s := testServer()
	forks := make(chan func() []byte, 64)
	encDone := make(chan struct{})
	go func() {
		defer close(encDone)
		for enc := range forks {
			if len(enc()) == 0 {
				t.Error("empty fork encode")
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		j, err := s.Submit(SubmitRequest{Name: "j", Owner: "u", WallTime: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		forks <- s.Fork()
		s.TakeActions()
		s.JobDone(j.ID, 0, "")
		s.TakeActions()
	}
	close(forks)
	<-encDone
}
