package pbs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// heldSnapshot returns the snapshot of a server holding n held jobs,
// the queue a quiet site's head restores at a restart.
func heldSnapshot(tb testing.TB, n int) []byte {
	tb.Helper()
	s := testServer()
	for i := 0; i < n; i++ {
		req := SubmitRequest{Name: fmt.Sprintf("held%d", i), Owner: "alice", Script: "#!/bin/sh\necho hi\n", Hold: true}
		if _, err := s.Submit(req); err != nil {
			tb.Fatal(err)
		}
	}
	return s.Snapshot()
}

// TestRestoreAllocs pins what a restored job costs: the Job and one
// string holding its text. The queue names each job by that Job's own
// ID, so 1,000 held jobs restore in two allocations each, plus the
// maps' and lists' few.
func TestRestoreAllocs(t *testing.T) {
	const jobs = 1000
	snap := heldSnapshot(t, jobs)
	r := testServer()
	allocs := testing.AllocsPerRun(10, func() {
		if err := r.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(2*jobs + restoreAllocSlack); allocs > max {
		t.Errorf("Restore of %d held jobs: %.0f allocations, want <= %.0f (2 per job + %d)", jobs, allocs, max, restoreAllocSlack)
	}
	if got := r.Snapshot(); !bytes.Equal(got, snap) {
		t.Fatal("restored server's snapshot differs from the one it restored")
	}
}

// restoreAllocSlack is what Restore allocates beyond two per job: the
// job table's buckets and the fixed maps and lists, a few dozen
// whatever the job count.
const restoreAllocSlack = 64

// TestRestoredJobsOwnTheirStrings pins that Restore copies what it
// keeps: every string of every restored job, and of the lists that
// name them, is unchanged after the snapshot buffer is overwritten.
func TestRestoredJobsOwnTheirStrings(t *testing.T) {
	s := testServer()
	done, _ := s.Submit(SubmitRequest{Name: "done", Owner: "u", Script: "echo done", WallTime: time.Second})
	running, _ := s.Submit(SubmitRequest{Name: "running", Owner: "v", Script: "echo run"})
	held, _ := s.Submit(SubmitRequest{Name: "held", Owner: "w", Hold: true})
	s.Submit(SubmitRequest{Name: "queued", Owner: "x"})
	s.TakeActions()
	s.JobDone(done.ID, 0, "out\n")
	s.TakeActions()
	s.Signal(running.ID, "SIGUSR1")
	want := s.StatusAll()
	snap := s.Snapshot()

	r := testServer()
	buf := append([]byte(nil), snap...)
	if err := r.Restore(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	got := r.StatusAll()
	if len(got) != len(want) {
		t.Fatalf("restored %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || g.Name != w.Name || g.Owner != w.Owner || g.Script != w.Script ||
			g.Output != w.Output || strings.Join(g.Nodes, ",") != strings.Join(w.Nodes, ",") {
			t.Errorf("job %d after overwriting the snapshot: %+v, want %+v", i, g, w)
		}
	}
	if r.SignalCount(running.ID) != 1 {
		t.Errorf("signal count of %s = %d, want 1", running.ID, r.SignalCount(running.ID))
	}
	if _, err := r.Status(held.ID); err != nil {
		t.Errorf("held job after overwriting the snapshot: %v", err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, snap) {
		t.Error("restored server's snapshot changed with the overwritten buffer")
	}
}

// BenchmarkRestore restores a 25,000-job held queue, the size at which
// Restore is most of a rejoin. CI budgets its allocations at two per
// job plus 128, the larger job table having more buckets.
func BenchmarkRestore(b *testing.B) {
	snap := heldSnapshot(b, 25000)
	r := testServer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}
