package pbs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("compute%d", i)
	}
	return names
}

func statusOf(t *testing.T, s *Server, id JobID) Job {
	t.Helper()
	j, err := s.Status(id)
	if err != nil {
		t.Fatalf("Status(%s): %v", id, err)
	}
	return j
}

// TestNoWallClockInScheduling is the cross-replica determinism guard:
// a full job lifecycle — submit, hold, release, schedule, node
// offline/online, completion — must never read the wall clock. The
// configured Clock panics; only the accounting sink may use it, and
// none is installed here.
func TestNoWallClockInScheduling(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyFIFO, PolicyPriority, PolicyBackfill} {
		s := NewServer(Config{
			Nodes:    nodeNames(4),
			Policy:   policy,
			NodeCPUs: 2,
			Clock:    func() time.Time { panic("scheduling read the wall clock") },
		})
		// a saturates the cluster so later jobs stay queued.
		a, err := s.Submit(SubmitRequest{Owner: "alice", NodeCount: 4, WallTime: time.Hour,
			Resources: ResourceSpec{NCPUs: 2}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Submit(SubmitRequest{Owner: "bob", Hold: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Release([]byte(b.ID)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Hold([]byte(b.ID)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Release([]byte(b.ID)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitArray(SubmitRequest{Owner: "carol", Array: ArraySpec{Set: true, Start: 0, End: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetNodeOffline("compute3", true); err != nil {
			t.Fatal(err)
		}
		if err := s.SetNodeOffline("compute3", false); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete([]byte(b.ID)); err != nil {
			t.Fatal(err)
		}
		s.JobDone(a.ID, 0, "")
	}
}

// TestLogicalTimestamps verifies lifecycle stamps come from the
// logical event clock (one nanosecond per applied mutation), making
// them identical on every replica.
func TestLogicalTimestamps(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(1)})
	j, err := s.Submit(SubmitRequest{Owner: "alice"}) // tick 1
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Unix(0, 1); !j.SubmittedAt.Equal(want) {
		t.Errorf("SubmittedAt = %v, want %v", j.SubmittedAt, want)
	}
	got := statusOf(t, s, j.ID)
	if !got.StartedAt.Equal(time.Unix(0, 1)) {
		t.Errorf("StartedAt = %v, want tick 1", got.StartedAt)
	}
	s.JobDone(j.ID, 0, "") // tick 2
	got = statusOf(t, s, j.ID)
	if !got.CompletedAt.Equal(time.Unix(0, 2)) {
		t.Errorf("CompletedAt = %v, want tick 2", got.CompletedAt)
	}
}

// TestResourceSharing: with NodeCPUs=2, two single-cpu jobs share one
// node; a third is blocked until one finishes.
func TestResourceSharing(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(1), NodeCPUs: 2})
	a, _ := s.Submit(SubmitRequest{Owner: "alice", WallTime: time.Minute})
	b, _ := s.Submit(SubmitRequest{Owner: "bob", WallTime: time.Minute})
	c, _ := s.Submit(SubmitRequest{Owner: "carol", WallTime: time.Minute})
	if got := statusOf(t, s, a.ID).State; got != StateRunning {
		t.Errorf("job a state = %v", got)
	}
	if got := statusOf(t, s, b.ID).State; got != StateRunning {
		t.Errorf("job b should share the node, state = %v", got)
	}
	if got := statusOf(t, s, c.ID).State; got != StateQueued {
		t.Errorf("job c should be blocked, state = %v", got)
	}
	nodes := s.NodesStatus()
	if nodes[0].CPUsUsed != 2 || nodes[0].CPUs != 2 {
		t.Errorf("node utilization = %d/%d, want 2/2", nodes[0].CPUsUsed, nodes[0].CPUs)
	}
	s.JobDone(a.ID, 0, "")
	if got := statusOf(t, s, c.ID).State; got != StateRunning {
		t.Errorf("job c should start after a completes, state = %v", got)
	}
}

// TestMemoryTracking: memory requests gate placement when NodeMem is
// configured.
func TestMemoryTracking(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(1), NodeCPUs: 4, NodeMem: 1 << 30})
	a, _ := s.Submit(SubmitRequest{Owner: "alice", Resources: ResourceSpec{Mem: 768 << 20}})
	b, _ := s.Submit(SubmitRequest{Owner: "bob", Resources: ResourceSpec{Mem: 512 << 20}})
	if got := statusOf(t, s, a.ID).State; got != StateRunning {
		t.Errorf("job a state = %v", got)
	}
	if got := statusOf(t, s, b.ID).State; got != StateQueued {
		t.Errorf("job b should not fit in memory, state = %v", got)
	}
	if _, err := s.Submit(SubmitRequest{Owner: "carol", Resources: ResourceSpec{Mem: 2 << 30}}); err == nil {
		t.Error("unsatisfiable mem request should be rejected at submit")
	}
}

// TestPriorityOrdering: under PolicyPriority a higher user priority
// runs first once resources free up; equal scores keep submission
// order.
func TestPriorityOrdering(t *testing.T) {
	s := NewServer(Config{
		Nodes:   nodeNames(1),
		Policy:  PolicyPriority,
		Weights: SchedWeights{User: 1000},
	})
	blocker, _ := s.Submit(SubmitRequest{Owner: "x", WallTime: time.Minute})
	low, _ := s.Submit(SubmitRequest{Owner: "alice", Priority: 1})
	high, _ := s.Submit(SubmitRequest{Owner: "bob", Priority: 9})
	s.JobDone(blocker.ID, 0, "")
	if got := statusOf(t, s, high.ID).State; got != StateRunning {
		t.Errorf("high-priority job state = %v, want R", got)
	}
	if got := statusOf(t, s, low.ID).State; got != StateQueued {
		t.Errorf("low-priority job state = %v, want Q", got)
	}
}

// TestFairshareOrdering: with fairshare weighting, a user who has
// consumed capacity sinks below a fresh user at equal priority.
func TestFairshareOrdering(t *testing.T) {
	s := NewServer(Config{
		Nodes:   nodeNames(1),
		Policy:  PolicyPriority,
		Weights: SchedWeights{Fair: 1},
	})
	// alice's first job runs and charges her usage.
	first, _ := s.Submit(SubmitRequest{Owner: "alice", WallTime: time.Hour})
	if s.FairshareUsage("alice") == 0 {
		t.Fatal("running a job should charge fairshare usage")
	}
	// Both queue behind it; bob has no usage, so he goes first.
	aliceAgain, _ := s.Submit(SubmitRequest{Owner: "alice", WallTime: time.Minute})
	bob, _ := s.Submit(SubmitRequest{Owner: "bob", WallTime: time.Minute})
	s.JobDone(first.ID, 0, "")
	if got := statusOf(t, s, bob.ID).State; got != StateRunning {
		t.Errorf("fresh user's job state = %v, want R", got)
	}
	if got := statusOf(t, s, aliceAgain.ID).State; got != StateQueued {
		t.Errorf("heavy user's job state = %v, want Q", got)
	}
}

// TestFairshareDecay: usage halves every FairshareHalfLife ticks and
// eventually prunes to zero.
func TestFairshareDecay(t *testing.T) {
	s := NewServer(Config{
		Nodes:             nodeNames(2),
		Policy:            PolicyPriority,
		FairshareHalfLife: 4,
	})
	j, _ := s.Submit(SubmitRequest{Owner: "alice", WallTime: 16 * time.Second})
	usage := s.FairshareUsage("alice")
	if usage != 16 {
		t.Fatalf("usage = %d, want 16", usage)
	}
	// Burn ticks; each submit re-runs the ordering stage, which decays.
	for i := 0; i < 40; i++ {
		s.Submit(SubmitRequest{Owner: "filler", NodeCount: 2}) // queued: node 0 busy? no — 2 nodes, so they run & finish never
		s.JobDone(j.ID, 0, "")                                 // idempotent after the first
	}
	if got := s.FairshareUsage("alice"); got != 0 {
		t.Errorf("usage should decay to zero, got %d", got)
	}
}

// buildBackfillScenario drives one server through the canonical
// backfill workload:
//
//	A (2 nodes, long)  starts on compute0/1
//	B (4 nodes, short) blocked: the reservation holder
//	C (1 node, short)  fits before B's shadow time -> backfill
//	D (1 node, longer than A) would delay B -> must wait
func buildBackfillScenario(s *Server) (a, b, c, d Job) {
	a, _ = s.Submit(SubmitRequest{Owner: "alice", NodeCount: 2, WallTime: 1000 * time.Second})
	b, _ = s.Submit(SubmitRequest{Owner: "bob", NodeCount: 4, WallTime: 10 * time.Second})
	c, _ = s.Submit(SubmitRequest{Owner: "carol", NodeCount: 1, WallTime: 10 * time.Second})
	d, _ = s.Submit(SubmitRequest{Owner: "dave", NodeCount: 1, WallTime: 2000 * time.Second})
	return
}

func TestBackfillFillsHoles(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(4), Policy: PolicyBackfill})
	a, b, c, d := buildBackfillScenario(s)

	if got := statusOf(t, s, a.ID).State; got != StateRunning {
		t.Fatalf("A = %v, want R", got)
	}
	if got := statusOf(t, s, b.ID).State; got != StateQueued {
		t.Fatalf("B = %v, want Q (blocked)", got)
	}
	if got := statusOf(t, s, c.ID).State; got != StateRunning {
		t.Errorf("C = %v, want R (backfilled: ends before B's shadow)", got)
	}
	if got := statusOf(t, s, d.ID).State; got != StateQueued {
		t.Errorf("D = %v, want Q (outlives the shadow, every node reserved)", got)
	}
	id, shadow, resNodes, ok := s.Reservation()
	if !ok || id != b.ID {
		t.Fatalf("reservation = %v/%v, want job %s", id, ok, b.ID)
	}
	if len(resNodes) != 4 {
		t.Errorf("reserved %d nodes, want 4", len(resNodes))
	}
	if shadow <= 0 {
		t.Errorf("shadow = %d, want > 0", shadow)
	}
}

// TestBackfillNeverDelaysReservation is the conservative-backfill
// invariant: driven by identical totally ordered command streams, the
// blocked job starts under backfill no later (in logical ticks) than
// under strict FIFO — backfilled jobs never push it past its
// reservation.
func TestBackfillNeverDelaysReservation(t *testing.T) {
	run := func(policy SchedPolicy) (bStart int64, c Job, srv *Server) {
		s := NewServer(Config{Nodes: nodeNames(4), Policy: policy})
		_, b, c, d := buildBackfillScenario(s)
		// Completions delivered in declared-end order (C ends first,
		// then A): the same stream for both policies, as ordered
		// completions guarantee. Reports for jobs that never started
		// are ignored but still tick the clock on both sides.
		for _, id := range []JobID{c.ID, "", b.ID, d.ID} {
			if id == "" {
				// A's completion: it holds compute0/1 in both worlds.
				id = JobID("1." + s.Name())
			}
			s.JobDone(id, 0, "")
		}
		bj := statusOf(t, s, b.ID)
		if bj.StartedAt.IsZero() {
			t.Fatalf("policy %v: B never started", policy)
		}
		return bj.StartedAt.UnixNano(), c, s
	}
	fifoStart, _, _ := run(PolicyFIFO)
	bfStart, c, s := run(PolicyBackfill)
	if bfStart > fifoStart {
		t.Errorf("backfill delayed the reserved job: started tick %d, FIFO tick %d", bfStart, fifoStart)
	}
	// And the backfilled job actually ran ahead of its FIFO position.
	if got := statusOf(t, s, c.ID).State; got != StateCompleted {
		t.Errorf("backfilled job C = %v, want C", got)
	}
}

// TestHoldDoesNotBlockQueue: qhold on a queued job immediately frees
// the jobs behind it — under FIFO and under backfill, where the held
// job stops being the reservation holder.
func TestHoldDoesNotBlockQueue(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyFIFO, PolicyBackfill} {
		s := NewServer(Config{Nodes: nodeNames(2), Policy: policy})
		big, _ := s.Submit(SubmitRequest{Owner: "alice", NodeCount: 2, WallTime: time.Hour})
		blocked, _ := s.Submit(SubmitRequest{Owner: "bob", NodeCount: 2, WallTime: time.Hour})
		_ = big
		small, _ := s.Submit(SubmitRequest{Owner: "carol", NodeCount: 1, WallTime: 2 * time.Hour})
		if policy == PolicyFIFO {
			if got := statusOf(t, s, small.ID).State; got != StateQueued {
				t.Fatalf("policy %v: small should queue behind blocked, got %v", policy, got)
			}
		}
		if _, err := s.Hold([]byte(blocked.ID)); err != nil {
			t.Fatal(err)
		}
		// With the blocker held, the 2-node reservation vanishes...
		if _, _, _, ok := s.Reservation(); ok && policy == PolicyBackfill {
			// a held job must not hold a reservation
			id, _, _, _ := s.Reservation()
			if id == blocked.ID {
				t.Errorf("policy %v: held job still holds the reservation", policy)
			}
		}
		// ...but nothing can start while big occupies both nodes, so
		// finish it and verify small starts even though blocked (held)
		// sits ahead of it in the queue.
		s.JobDone(big.ID, 0, "")
		if got := statusOf(t, s, small.ID).State; got != StateRunning {
			t.Errorf("policy %v: held job blocked the queue, small = %v", policy, got)
		}
	}
}

// TestReleaseReentersPriorityOrder: a released job competes at its
// priority score — it does not jump ahead of better-scored jobs, and
// it does not lose its place to worse-scored ones.
func TestReleaseReentersPriorityOrder(t *testing.T) {
	s := NewServer(Config{
		Nodes:   nodeNames(1),
		Policy:  PolicyPriority,
		Weights: SchedWeights{User: 1000},
	})
	blocker, _ := s.Submit(SubmitRequest{Owner: "x", WallTime: time.Minute})
	held, _ := s.Submit(SubmitRequest{Owner: "alice", Priority: 5, Hold: true})
	better, _ := s.Submit(SubmitRequest{Owner: "bob", Priority: 9})
	worse, _ := s.Submit(SubmitRequest{Owner: "carol", Priority: 1})
	if _, err := s.Release([]byte(held.ID)); err != nil {
		t.Fatal(err)
	}
	// Free the node three times; order must be better, held, worse.
	s.JobDone(blocker.ID, 0, "")
	if got := statusOf(t, s, better.ID).State; got != StateRunning {
		t.Fatalf("better = %v, want R first", got)
	}
	if got := statusOf(t, s, held.ID).State; got != StateQueued {
		t.Fatalf("released job jumped the queue: %v", got)
	}
	s.JobDone(better.ID, 0, "")
	if got := statusOf(t, s, held.ID).State; got != StateRunning {
		t.Fatalf("released job lost its priority slot: %v", got)
	}
	if got := statusOf(t, s, worse.ID).State; got != StateQueued {
		t.Fatalf("worse = %v, want Q", got)
	}
}

// TestJobArrays: one submission expands into PBS-style sub-jobs that
// schedule independently.
func TestJobArrays(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(2), ServerName: "cluster"})
	jobs, err := s.SubmitArray(SubmitRequest{
		Name:  "sweep",
		Owner: "alice",
		Array: ArraySpec{Set: true, Start: 0, End: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("array expanded to %d jobs, want 4", len(jobs))
	}
	if jobs[0].ID != "1[0].cluster" || jobs[3].ID != "1[3].cluster" {
		t.Errorf("sub-job IDs = %s .. %s", jobs[0].ID, jobs[3].ID)
	}
	for i, j := range jobs {
		if j.ArrayIdx != i {
			t.Errorf("jobs[%d].ArrayIdx = %d", i, j.ArrayIdx)
		}
	}
	// Two nodes: first two sub-jobs run, the rest queue.
	running, queued := 0, 0
	for _, j := range jobs {
		switch statusOf(t, s, j.ID).State {
		case StateRunning:
			running++
		case StateQueued:
			queued++
		}
	}
	if running != 2 || queued != 2 {
		t.Errorf("running=%d queued=%d, want 2/2", running, queued)
	}
	// A follow-up submission's sequence number continues past the array.
	next, err := s.Submit(SubmitRequest{Owner: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq <= jobs[3].Seq {
		t.Errorf("next seq %d not past array end %d", next.Seq, jobs[3].Seq)
	}
	if _, err := s.SubmitArray(SubmitRequest{Owner: "x", Array: ArraySpec{Set: true, Start: 0, End: maxArraySize}}); err == nil {
		t.Error("oversized array should be rejected")
	}
}

// TestSnapshotRoundTripPipeline: snapshot v4 carries the full pipeline
// state — clock, allocations, fairshare, reservation, arrays — and
// restoring it on a fresh replica reproduces byte-identical snapshots.
func TestSnapshotRoundTripPipeline(t *testing.T) {
	cfg := Config{
		Nodes:             nodeNames(4),
		ServerName:        "cluster",
		Policy:            PolicyBackfill,
		FairshareHalfLife: 1000,
		NodeCPUs:          2,
	}
	s := NewServer(cfg)
	buildBackfillScenario(s)
	if _, err := s.SubmitArray(SubmitRequest{Owner: "eve", Array: ArraySpec{Set: true, Start: 0, End: 5}, Priority: 3}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()

	r := NewServer(cfg)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Snapshot(), snap) {
		t.Error("snapshot not byte-identical after restore")
	}
	if r.LogicalClock() != s.LogicalClock() {
		t.Errorf("logical clock %d != %d after restore", r.LogicalClock(), s.LogicalClock())
	}
	// The restored replica continues identically: apply one more
	// command to both and compare again.
	s.JobDone("3.cluster", 0, "out")
	r.JobDone("3.cluster", 0, "out")
	if !bytes.Equal(r.Snapshot(), s.Snapshot()) {
		t.Error("replicas diverged after post-restore command")
	}
}

// TestSnapshotCRC: a corrupted snapshot is rejected instead of seeding
// a divergent replica.
func TestSnapshotCRC(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(2), ServerName: "cluster"})
	s.Submit(SubmitRequest{Owner: "alice"})
	snap := s.Snapshot()

	r := NewServer(Config{Nodes: nodeNames(2), ServerName: "cluster"})
	if err := r.Restore(snap); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	for _, mut := range []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, // bit flip
		func(b []byte) []byte { return b[:len(b)-1] },           // truncation
	} {
		bad := mut(append([]byte(nil), snap...))
		if err := r.Restore(bad); err == nil {
			t.Error("corrupted snapshot accepted")
		}
	}
}

// TestSchedulerDeterminismAcrossPolicies: for every policy, two
// replicas fed the same command stream produce byte-identical
// snapshots.
func TestSchedulerDeterminismAcrossPolicies(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyFIFO, PolicyPriority, PolicyBackfill} {
		cfg := Config{
			Nodes:             nodeNames(4),
			ServerName:        "cluster",
			Policy:            policy,
			NodeCPUs:          2,
			FairshareHalfLife: 64,
		}
		a, b := NewServer(cfg), NewServer(cfg)
		drive := func(s *Server) {
			s.Submit(SubmitRequest{Owner: "alice", NodeCount: 2, WallTime: 300 * time.Second, Priority: 2})
			s.Submit(SubmitRequest{Owner: "bob", NodeCount: 4, WallTime: 30 * time.Second})
			s.SubmitArray(SubmitRequest{Owner: "carol", WallTime: 10 * time.Second, Array: ArraySpec{Set: true, Start: 0, End: 7}})
			s.Submit(SubmitRequest{Owner: "dave", Hold: true})
			s.Hold([]byte(JobID("2.cluster")))
			s.Release([]byte(JobID("2.cluster")))
			s.SetNodeOffline("compute3", true)
			s.JobDone(JobID("3[0].cluster"), 0, "")
			s.SetNodeOffline("compute3", false)
			s.JobDone(JobID("1.cluster"), 0, "")
			s.Delete([]byte(JobID("11.cluster")))
		}
		drive(a)
		drive(b)
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Errorf("policy %v: replicas diverged on identical command streams", policy)
		}
	}
}

// TestFullStatusGolden pins the jstat -f output format — including the
// resource and array attribute lines — against a golden file
// (regenerate with go test -run Golden -update).
func TestFullStatusGolden(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(2), ServerName: "cluster", NodeCPUs: 2})
	s.Submit(SubmitRequest{
		Name:      "prep",
		Owner:     "alice",
		WallTime:  90 * time.Minute,
		Resources: ResourceSpec{NCPUs: 2, Mem: 512 << 20},
		Priority:  7,
	})
	s.SubmitArray(SubmitRequest{
		Name:     "sweep",
		Owner:    "bob",
		WallTime: 10 * time.Second,
		Array:    ArraySpec{Set: true, Start: 3, End: 4},
	})
	s.JobDone("1.cluster", 0, "prep done")

	var out bytes.Buffer
	for _, j := range s.StatusAll() {
		out.WriteString(FullStatusText(j))
		out.WriteByte('\n')
	}

	golden := filepath.Join("testdata", "jstat_full.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("jstat -f output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}

// TestExclusiveStillDefault: the zero-config pipeline reproduces the
// paper's FIFO behavior exactly — one job per node, strict order.
func TestExclusiveStillDefault(t *testing.T) {
	s := NewServer(Config{Nodes: nodeNames(2), Exclusive: true})
	a, _ := s.Submit(SubmitRequest{Owner: "alice", NodeCount: 1, WallTime: time.Minute})
	b, _ := s.Submit(SubmitRequest{Owner: "bob", NodeCount: 1, WallTime: time.Minute})
	if got := statusOf(t, s, a.ID).State; got != StateRunning {
		t.Errorf("a = %v", got)
	}
	if got := statusOf(t, s, b.ID).State; got != StateQueued {
		t.Errorf("exclusive mode must run one job at a time, b = %v", got)
	}
	s.JobDone(a.ID, 0, "")
	if got := statusOf(t, s, b.ID).State; got != StateRunning {
		t.Errorf("b = %v after a completed", got)
	}
}
