package pbs

import (
	"fmt"
	"testing"
	"time"
)

// The policy sweep measures the scheduling pipeline (DESIGN.md §6.9) on
// a mixed-size workload: mostly narrow short jobs with a wide long job
// salted in every twelfth position. The server is driven directly in
// virtual time: everything is submitted at virtual zero, then the
// completion of the running job with the earliest declared end is
// delivered, repeatedly, exactly the order the replicated cluster's
// ordered-completion path produces. Every timestamp read back
// (StartedAt, CompletedAt) comes from the server's own logical clock, so
// the measured schedule is the deterministic one every replica computes.

// sweepJob is one generated workload entry.
type sweepJob struct {
	owner    string
	nodes    int
	wall     time.Duration
	priority int
	wide     bool
}

// sweepWorkload builds the mixed workload: total jobs on a cluster of
// nodeCount nodes. The first jobs are narrow and exactly fill the
// cluster, so the first wide job is the head blocked job — the one
// conservative backfill must never delay.
func sweepWorkload(total, nodeCount int) []sweepJob {
	jobs := make([]sweepJob, 0, total)
	for i := 0; i < total; i++ {
		j := sweepJob{owner: fmt.Sprintf("user%d", i%4)}
		switch {
		case i < 8:
			// Opening salvo: 8 × 2 nodes fills the 16-node pool.
			j.nodes = nodeCount / 8
			j.wall = time.Duration(300+(i%4)*300) * time.Second
		case i%12 == 8:
			// Wide jobs carry elevated user priority so the ordering
			// stage keeps them at the head of the blocked queue: under
			// backfill that makes them the reservation holders the
			// conservative invariant protects.
			j.wide = true
			j.nodes = nodeCount * 3 / 4
			j.wall = 1200 * time.Second
			j.priority = 10
		default:
			j.nodes = 1 + i%3
			j.wall = time.Duration(60+(i%7)*90) * time.Second
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// sweepVariant is one measured (policy, exclusive) configuration, all on
// the server's virtual axis.
type sweepVariant struct {
	name     string
	makespan time.Duration // when the last job finished
	// utilization is demand (node-seconds of work) over capacity
	// (nodes × makespan).
	utilization float64
	// firstWideStart is when the first wide job — the reservation
	// holder under backfill — started; maxWideWait is the worst queue
	// wait over all wide jobs (the large-job starvation metric).
	firstWideStart, maxWideWait time.Duration
}

func (v sweepVariant) String() string {
	return fmt.Sprintf("%-15s makespan %7.0fs   utilization %5.1f%%   first wide start %6.0fs   worst wide wait %6.0fs",
		v.name, v.makespan.Seconds(), 100*v.utilization, v.firstWideStart.Seconds(), v.maxWideWait.Seconds())
}

// runSweep plays the workload against one server configuration.
func runSweep(t *testing.T, name string, policy SchedPolicy, exclusive bool, nodeCount int, jobs []sweepJob) sweepVariant {
	t.Helper()
	s := NewServer(Config{
		ServerName:        "bench",
		Nodes:             nodeNames(nodeCount),
		Policy:            policy,
		Exclusive:         exclusive,
		FairshareHalfLife: uint64(time.Hour),
	})

	wall := make(map[JobID]time.Duration, len(jobs))
	wideOf := make(map[JobID]bool, len(jobs))
	order := make([]JobID, 0, len(jobs))
	for i, w := range jobs {
		j, err := s.Submit(SubmitRequest{
			Name:      fmt.Sprintf("job%03d", i),
			Owner:     w.owner,
			NodeCount: w.nodes,
			WallTime:  w.wall,
			Priority:  w.priority,
		})
		if err != nil {
			t.Fatalf("%s: submit job%03d: %v", name, i, err)
		}
		wall[j.ID] = w.wall
		wideOf[j.ID] = w.wide
		order = append(order, j.ID)
	}

	// Event loop: deliver the earliest declared end among running
	// jobs, ID as the deterministic tie-break.
	running := make(map[JobID]bool)
	observe := func() {
		for _, id := range order {
			if !running[id] && statusOf(t, s, id).State == StateRunning {
				running[id] = true
			}
		}
	}
	observe()
	var makespan int64
	for done := 0; done < len(jobs); done++ {
		var best JobID
		var bestEnd int64
		for id := range running {
			end := statusOf(t, s, id).StartedAt.UnixNano() + int64(wall[id])
			if best == "" || end < bestEnd || (end == bestEnd && id < best) {
				best, bestEnd = id, end
			}
		}
		if best == "" {
			t.Fatalf("%s: %d jobs stuck queued with nothing running", name, len(jobs)-done)
		}
		s.JobDone(best, 0, "")
		delete(running, best)
		makespan = max(makespan, bestEnd)
		observe()
	}

	v := sweepVariant{name: name, makespan: time.Duration(makespan)}
	var demand float64
	first := true
	for _, id := range order {
		j := statusOf(t, s, id)
		demand += float64(j.NodeCount) * wall[id].Seconds()
		if !wideOf[id] {
			continue
		}
		start := time.Duration(j.StartedAt.UnixNano())
		if first {
			v.firstWideStart, first = start, false
		}
		v.maxWideWait = max(v.maxWideWait, start) // all submissions arrive at virtual zero
	}
	if v.makespan > 0 {
		v.utilization = demand / (float64(nodeCount) * v.makespan.Seconds())
	}
	return v
}

// sweepPolicies runs the paper's FIFO/exclusive baseline, shared-node
// FIFO, priority/fairshare ordering and conservative backfill, all on
// the same 96-job, 16-node workload.
func sweepPolicies(t *testing.T) map[string]sweepVariant {
	const nodes = 16
	workload := sweepWorkload(96, nodes)
	res := make(map[string]sweepVariant)
	for _, cfg := range []struct {
		name      string
		policy    SchedPolicy
		exclusive bool
	}{
		{"fifo+exclusive", PolicyFIFO, true},
		{"fifo", PolicyFIFO, false},
		{"priority", PolicyPriority, false},
		{"backfill", PolicyBackfill, false},
	} {
		v := runSweep(t, cfg.name, cfg.policy, cfg.exclusive, nodes, workload)
		t.Log(v)
		res[cfg.name] = v
	}
	return res
}

// TestSchedPolicySweep is the acceptance gate for the scheduling
// pipeline, and a deterministic property rather than a timing: on the
// mixed-size workload, node sharing must finish sooner than the paper's
// FIFO/exclusive baseline, and conservative backfill must lift
// utilization at least 1.5x over that baseline without ever starting the
// head blocked wide job later than plain FIFO would have.
func TestSchedPolicySweep(t *testing.T) {
	res := sweepPolicies(t)
	for _, v := range res {
		if v.makespan <= 0 || v.utilization <= 0 || v.utilization > 1 {
			t.Errorf("%s: implausible makespan %v / utilization %.3f", v.name, v.makespan, v.utilization)
		}
	}
	excl, fifo, backfill := res["fifo+exclusive"], res["fifo"], res["backfill"]
	t.Run("SharedNodesBeatExclusive", func(t *testing.T) {
		if fifo.makespan >= excl.makespan {
			t.Errorf("shared-node fifo makespan %v, want below fifo+exclusive's %v", fifo.makespan, excl.makespan)
		}
	})
	t.Run("BackfillUtilizationGain", func(t *testing.T) {
		if gain := backfill.utilization / excl.utilization; gain < 1.5 {
			t.Errorf("backfill utilization gain = %.2fx, want >= 1.5x over fifo+exclusive", gain)
		}
	})
	t.Run("BackfillKeepsReservation", func(t *testing.T) {
		// Sub-millisecond residue is logical-tick noise (each applied
		// command is one nanosecond on the virtual axis), not a delay.
		if delay := backfill.firstWideStart - fifo.firstWideStart; delay > time.Millisecond {
			t.Errorf("backfill delayed the reserved wide job by %v vs FIFO", delay)
		}
	})
	t.Run("Deterministic", func(t *testing.T) {
		// The sweep is a deterministic function of the workload: a
		// second run must reproduce it exactly.
		again := sweepPolicies(t)
		for name, v := range res {
			if again[name] != v {
				t.Errorf("%s: second run %v, first %v", name, again[name], v)
			}
		}
	})
}
