package pbs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fixedClock removes wall-clock nondeterminism from state comparisons.
func fixedClock() func() time.Time {
	t := time.Unix(1_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func testServer() *Server {
	return NewServer(Config{
		ServerName: "cluster",
		Nodes:      []string{"c0", "c1"},
		Exclusive:  true,
		Clock:      fixedClock(),
	})
}

func TestSubmitAssignsSequentialIDs(t *testing.T) {
	s := testServer()
	for i := 1; i <= 3; i++ {
		j, err := s.Submit(SubmitRequest{Name: fmt.Sprintf("job%d", i), Owner: "alice"})
		if err != nil {
			t.Fatal(err)
		}
		want := JobID(fmt.Sprintf("%d.cluster", i))
		if j.ID != want {
			t.Errorf("job ID = %s, want %s", j.ID, want)
		}
	}
}

func TestSubmitDefaults(t *testing.T) {
	s := testServer()
	j, err := s.Submit(SubmitRequest{Owner: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Name != "STDIN" {
		t.Errorf("default name = %q, want STDIN", j.Name)
	}
	if j.NodeCount != 1 {
		t.Errorf("default node count = %d, want 1", j.NodeCount)
	}
}

func TestSubmitTooManyNodes(t *testing.T) {
	s := testServer()
	if _, err := s.Submit(SubmitRequest{NodeCount: 3}); err == nil {
		t.Fatal("submit requesting 3 of 2 nodes should fail")
	}
}

func TestFIFOExclusiveScheduling(t *testing.T) {
	s := testServer()
	j1, _ := s.Submit(SubmitRequest{Name: "first"})
	j2, _ := s.Submit(SubmitRequest{Name: "second"})

	// Only the first job starts; exclusive access blocks the second.
	acts := s.TakeActions()
	if len(acts) != 1 {
		t.Fatalf("got %d actions, want 1", len(acts))
	}
	start, ok := acts[0].(StartAction)
	if !ok || start.Job.ID != j1.ID {
		t.Fatalf("action = %#v, want start of %s", acts[0], j1.ID)
	}
	got, _ := s.Status(j1.ID)
	if got.State != StateRunning {
		t.Errorf("j1 state = %v, want R", got.State)
	}
	got, _ = s.Status(j2.ID)
	if got.State != StateQueued {
		t.Errorf("j2 state = %v, want Q", got.State)
	}

	// Completion starts the next job.
	s.JobDone(j1.ID, 0, "")
	acts = s.TakeActions()
	if len(acts) != 1 {
		t.Fatalf("after completion got %d actions, want 1", len(acts))
	}
	if acts[0].(StartAction).Job.ID != j2.ID {
		t.Fatalf("wrong job started: %v", acts[0])
	}
	got, _ = s.Status(j1.ID)
	if got.State != StateCompleted || got.ExitCode != 0 {
		t.Errorf("j1 = %+v, want completed rc=0", got)
	}
}

func TestExclusiveOneAtATimeEvenWithFreeNodes(t *testing.T) {
	s := testServer()
	s.Submit(SubmitRequest{NodeCount: 1})
	s.Submit(SubmitRequest{NodeCount: 1})
	acts := s.TakeActions()
	if len(acts) != 1 {
		t.Fatalf("exclusive mode started %d jobs, want 1", len(acts))
	}
}

func TestFirstFitPacking(t *testing.T) {
	s := NewServer(Config{ServerName: "c", Nodes: []string{"n0", "n1", "n2"}, Clock: fixedClock()})
	j1, _ := s.Submit(SubmitRequest{NodeCount: 2})
	j2, _ := s.Submit(SubmitRequest{NodeCount: 1})
	acts := s.TakeActions()
	if len(acts) != 2 {
		t.Fatalf("got %d actions, want 2 (packing mode)", len(acts))
	}
	a1 := acts[0].(StartAction)
	a2 := acts[1].(StartAction)
	if a1.Job.ID != j1.ID || !reflect.DeepEqual(a1.Job.Nodes, []string{"n0", "n1"}) {
		t.Errorf("j1 alloc = %v", a1.Job.Nodes)
	}
	if a2.Job.ID != j2.ID || !reflect.DeepEqual(a2.Job.Nodes, []string{"n2"}) {
		t.Errorf("j2 alloc = %v", a2.Job.Nodes)
	}
}

func TestFIFOBlocksLaterSmallJobs(t *testing.T) {
	// FIFO (no backfill): a big job at the head blocks smaller later
	// jobs even when nodes are free.
	s := NewServer(Config{ServerName: "c", Nodes: []string{"n0", "n1"}, Clock: fixedClock()})
	s.Submit(SubmitRequest{NodeCount: 1})
	s.TakeActions()
	s.Submit(SubmitRequest{NodeCount: 2}) // can't fit while first runs
	s.Submit(SubmitRequest{NodeCount: 1}) // could fit, but FIFO says no
	if acts := s.TakeActions(); len(acts) != 0 {
		t.Fatalf("FIFO violated: started %v", acts)
	}
}

func TestDeleteQueuedJob(t *testing.T) {
	s := testServer()
	s.Submit(SubmitRequest{Name: "running"})
	j2, _ := s.Submit(SubmitRequest{Name: "doomed"})
	s.TakeActions()
	if _, err := s.Delete([]byte(j2.ID)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Status(j2.ID); err == nil {
		t.Fatal("deleted job should be unknown")
	}
	if _, err := s.Delete([]byte(j2.ID)); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestDeleteRunningJobEmitsKill(t *testing.T) {
	s := testServer()
	j, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	got, err := s.Delete([]byte(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateExiting {
		t.Errorf("state = %v, want E", got.State)
	}
	acts := s.TakeActions()
	if len(acts) != 1 {
		t.Fatalf("got %d actions, want 1 kill", len(acts))
	}
	if k, ok := acts[0].(KillAction); !ok || k.Job.ID != j.ID {
		t.Fatalf("action = %#v", acts[0])
	}
	// The mom's kill report completes the job.
	s.JobDone(j.ID, ExitCodeKilled, "")
	done, _ := s.Status(j.ID)
	if done.State != StateCompleted || done.ExitCode != ExitCodeKilled {
		t.Errorf("job = %+v", done)
	}
	// A second qdel while exiting is a no-op, not an error.
}

func TestDeleteExitingJobIdempotent(t *testing.T) {
	s := testServer()
	j, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	s.Delete([]byte(j.ID))
	s.TakeActions()
	if _, err := s.Delete([]byte(j.ID)); err != nil {
		t.Fatalf("qdel of exiting job: %v", err)
	}
	if acts := s.TakeActions(); len(acts) != 0 {
		t.Fatalf("second qdel emitted %v", acts)
	}
}

func TestHoldAndRelease(t *testing.T) {
	s := testServer()
	blocker, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	j, _ := s.Submit(SubmitRequest{})
	if _, err := s.Hold([]byte(j.ID)); err != nil {
		t.Fatal(err)
	}
	// Complete the blocker: the held job must NOT start.
	s.JobDone(blocker.ID, 0, "")
	if acts := s.TakeActions(); len(acts) != 0 {
		t.Fatalf("held job started: %v", acts)
	}
	if _, err := s.Release([]byte(j.ID)); err != nil {
		t.Fatal(err)
	}
	acts := s.TakeActions()
	if len(acts) != 1 || acts[0].(StartAction).Job.ID != j.ID {
		t.Fatalf("release did not start job: %v", acts)
	}
	// Hold of a running job is invalid.
	if _, err := s.Hold([]byte(j.ID)); err == nil {
		t.Fatal("hold of running job should fail")
	}
}

func TestSubmitHeld(t *testing.T) {
	s := testServer()
	j, _ := s.Submit(SubmitRequest{Hold: true})
	if acts := s.TakeActions(); len(acts) != 0 {
		t.Fatalf("held submit started: %v", acts)
	}
	got, _ := s.Status(j.ID)
	if got.State != StateHeld {
		t.Errorf("state = %v, want H", got.State)
	}
	// Held job does not block later jobs.
	s.Submit(SubmitRequest{})
	if acts := s.TakeActions(); len(acts) != 1 {
		t.Fatalf("held job blocked FIFO successor: %v", acts)
	}
}

func TestSignal(t *testing.T) {
	s := testServer()
	j, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	if _, err := s.Signal(j.ID, "SIGUSR1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Signal(j.ID, "SIGUSR1"); err != nil {
		t.Fatal(err)
	}
	if got := s.SignalCount(j.ID); got != 2 {
		t.Errorf("signal count = %d, want 2", got)
	}
	q, _ := s.Submit(SubmitRequest{})
	if _, err := s.Signal(q.ID, "SIGUSR1"); err == nil {
		t.Error("qsig of queued job should fail")
	}
}

func TestStatusUnknownJob(t *testing.T) {
	s := testServer()
	if _, err := s.Status("99.cluster"); err == nil {
		t.Fatal("want unknown-job error")
	} else if !strings.Contains(err.Error(), "Unknown Job Id") {
		t.Errorf("err = %v, want PBS-style message", err)
	}
}

func TestJobDoneIdempotent(t *testing.T) {
	s := testServer()
	j, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	s.JobDone(j.ID, 0, "")
	s.JobDone(j.ID, 7, "") // duplicate with a different code: ignored
	got, _ := s.Status(j.ID)
	if got.ExitCode != 0 {
		t.Errorf("duplicate completion applied: rc=%d", got.ExitCode)
	}
	s.JobDone("404.cluster", 0, "") // unknown: no panic
}

func TestKeepCompletedLimit(t *testing.T) {
	s := NewServer(Config{ServerName: "c", Nodes: []string{"n"}, Exclusive: true, KeepCompleted: 2, Clock: fixedClock()})
	var ids []JobID
	for i := 0; i < 4; i++ {
		j, _ := s.Submit(SubmitRequest{})
		ids = append(ids, j.ID)
	}
	for i := 0; i < 4; i++ {
		s.TakeActions()
		s.JobDone(ids[i], 0, "")
	}
	if _, err := s.Status(ids[0]); err == nil {
		t.Error("oldest completed job should be purged")
	}
	if _, err := s.Status(ids[3]); err != nil {
		t.Errorf("newest completed job purged: %v", err)
	}
	_, _, completed := s.QueueLengths()
	if completed != 2 {
		t.Errorf("completed = %d, want 2", completed)
	}
}

func TestStatusAllOrdering(t *testing.T) {
	s := testServer()
	a, _ := s.Submit(SubmitRequest{Name: "a"})
	b, _ := s.Submit(SubmitRequest{Name: "b"})
	s.Submit(SubmitRequest{Name: "c"})
	s.TakeActions()
	s.JobDone(a.ID, 0, "")
	s.TakeActions()
	s.JobDone(b.ID, 0, "")
	s.TakeActions()

	all := s.StatusAll()
	if len(all) != 3 {
		t.Fatalf("got %d jobs", len(all))
	}
	// Active first (c, running), then completed in completion order.
	if all[0].Name != "c" || all[1].Name != "a" || all[2].Name != "b" {
		t.Errorf("order = %s,%s,%s", all[0].Name, all[1].Name, all[2].Name)
	}
}

func TestStatusText(t *testing.T) {
	s := testServer()
	s.Submit(SubmitRequest{Name: "verylongjobname-that-exceeds", Owner: "alice"})
	out := StatusText(s.StatusAll())
	if !strings.Contains(out, "1.cluster") || !strings.Contains(out, "alice") {
		t.Errorf("qstat output missing fields:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("got %d lines, want header+separator+1 job", len(lines))
	}
}

func TestFullStatusText(t *testing.T) {
	s := testServer()
	j, _ := s.Submit(SubmitRequest{Name: "x", Owner: "bob", WallTime: time.Minute})
	s.TakeActions()
	s.JobDone(j.ID, 3, "")
	got, _ := s.Status(j.ID)
	out := FullStatusText(got)
	for _, want := range []string{"Job Id: 1.cluster", "job_state = C", "exit_status = 3", "exec_host = c0"} {
		if !strings.Contains(out, want) {
			t.Errorf("qstat -f missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := testServer()
	a, _ := s.Submit(SubmitRequest{Name: "done", Owner: "u", WallTime: time.Second})
	s.Submit(SubmitRequest{Name: "running", Owner: "u"})
	s.Submit(SubmitRequest{Name: "queued", Owner: "u"})
	h, _ := s.Submit(SubmitRequest{Name: "held", Owner: "u"})
	s.Hold([]byte(h.ID))
	s.TakeActions()
	s.JobDone(a.ID, 0, "")
	s.TakeActions()

	snap := s.Snapshot()
	r := NewServer(Config{ServerName: "cluster", Nodes: []string{"c0", "c1"}, Exclusive: true, Clock: fixedClock()})
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !serversEqual(s, r) {
		t.Fatalf("restored state differs:\n%s\nvs\n%s", dump(s), dump(r))
	}
	// The restored server keeps operating: next submit gets the next
	// sequence number, and completions schedule follow-ups.
	j, _ := r.Submit(SubmitRequest{})
	if j.Seq != 5 {
		t.Errorf("restored nextSeq wrong: got job seq %d, want 5", j.Seq)
	}
}

func TestRestoreRejectsCorruptAndForeign(t *testing.T) {
	s := testServer()
	s.Submit(SubmitRequest{})
	snap := s.Snapshot()

	r := testServer()
	if err := r.Restore(snap[:len(snap)-2]); err == nil {
		t.Error("truncated snapshot should fail")
	}
	if err := r.Restore([]byte{0xFF, 0xFF}); err == nil {
		t.Error("garbage snapshot should fail")
	}
	other := NewServer(Config{ServerName: "othername", Nodes: []string{"c0"}, Clock: fixedClock()})
	if err := other.Restore(snap); err == nil {
		t.Error("snapshot from a differently named server should fail")
	}
	// The failed restores must not have clobbered state.
	if len(r.StatusAll()) != 0 {
		t.Error("failed restore mutated server")
	}
}

// serversEqual compares replicated state (everything but the clock).
func serversEqual(a, b *Server) bool {
	return dump(a) == dump(b)
}

func dump(s *Server) string {
	var sb strings.Builder
	for _, j := range s.StatusAll() {
		fmt.Fprintf(&sb, "%s %s %s %v rc=%d nodes=%v\n", j.ID, j.Name, j.State, j.WallTime, j.ExitCode, j.Nodes)
	}
	return sb.String()
}

// TestDeterminismProperty drives two servers with an identical random
// command sequence and requires byte-identical state — the property
// symmetric active/active replication depends on.
func TestDeterminismProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mk := func() *Server {
			return NewServer(Config{ServerName: "cluster", Nodes: []string{"n0", "n1", "n2"}, Exclusive: seed%2 == 0, Clock: fixedClock()})
		}
		s1, s2 := mk(), mk()
		rng := rand.New(rand.NewSource(seed))
		var ids []JobID
		running := map[JobID]bool{}
		step := func(s *Server, op int, idIdx int) {
			switch op {
			case 0:
				j, err := s.Submit(SubmitRequest{Name: "j", NodeCount: 1 + idIdx%2, WallTime: time.Duration(idIdx) * time.Second, Hold: idIdx%5 == 0})
				if err == nil && s == s1 {
					ids = append(ids, j.ID)
				}
			case 1:
				if len(ids) > 0 {
					s.Delete([]byte(ids[idIdx%len(ids)]))
				}
			case 2:
				if len(ids) > 0 {
					s.Hold([]byte(ids[idIdx%len(ids)]))
				}
			case 3:
				if len(ids) > 0 {
					s.Release([]byte(ids[idIdx%len(ids)]))
				}
			case 4:
				if len(ids) > 0 {
					s.JobDone(ids[idIdx%len(ids)], idIdx%3, "out")
				}
			}
		}
		for i := 0; i < 200; i++ {
			op := rng.Intn(5)
			idIdx := rng.Intn(64)
			step(s1, op, idIdx)
			step(s2, op, idIdx)
			// Drain actions from both (both must emit the same).
			a1, a2 := s1.TakeActions(), s2.TakeActions()
			if len(a1) != len(a2) {
				t.Fatalf("seed %d step %d: action counts differ: %d vs %d", seed, i, len(a1), len(a2))
			}
			for k := range a1 {
				s1j, ok1 := a1[k].(StartAction)
				s2j, ok2 := a2[k].(StartAction)
				if ok1 != ok2 || (ok1 && s1j.Job.ID != s2j.Job.ID) {
					t.Fatalf("seed %d step %d: actions diverge: %#v vs %#v", seed, i, a1[k], a2[k])
				}
				if ok1 {
					running[s1j.Job.ID] = true
				}
			}
		}
		if !serversEqual(s1, s2) {
			t.Fatalf("seed %d: states diverged:\n%s\nvs\n%s", seed, dump(s1), dump(s2))
		}
		_ = running
	}
}

// TestSnapshotDeterminism: identical servers produce identical
// snapshot bytes (required for cheap divergence detection).
func TestSnapshotDeterminism(t *testing.T) {
	mk := func() *Server {
		s := NewServer(Config{ServerName: "c", Nodes: []string{"n0", "n1"}, Exclusive: true,
			Clock: func() time.Time { return time.Unix(42, 0) }})
		s.Submit(SubmitRequest{Name: "a"})
		s.Submit(SubmitRequest{Name: "b"})
		s.TakeActions()
		return s
	}
	b1, b2 := mk().Snapshot(), mk().Snapshot()
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("snapshots of identical servers differ")
	}
}

// TestOrderSensitivityCounterexample demonstrates why JOSHUA needs
// totally ordered delivery at all: the same *set* of commands applied
// in different orders drives replicas apart. (With total order, the
// determinism property above guarantees convergence.)
func TestOrderSensitivityCounterexample(t *testing.T) {
	mk := func() *Server {
		return NewServer(Config{ServerName: "c", Nodes: []string{"n0"}, Exclusive: true, Clock: fixedClock()})
	}
	a, b := mk(), mk()

	// Replica A sees submit(X) then submit(Y); replica B sees them
	// reversed — as would happen if two users' jsub commands raced to
	// different heads without a total order.
	a.Submit(SubmitRequest{Name: "X"})
	a.Submit(SubmitRequest{Name: "Y"})
	b.Submit(SubmitRequest{Name: "Y"})
	b.Submit(SubmitRequest{Name: "X"})

	ja, _ := a.Status("1.c")
	jb, _ := b.Status("1.c")
	if ja.Name == jb.Name {
		t.Fatalf("expected divergence: job 1.c is %q on A and %q on B", ja.Name, jb.Name)
	}
	// And the divergence is not cosmetic: different jobs are RUNNING.
	if ja.State != StateRunning || jb.State != StateRunning {
		t.Fatal("setup broken")
	}
}
