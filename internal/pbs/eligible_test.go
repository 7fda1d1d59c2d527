package pbs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// checkIndex asserts the incremental scheduler's invariants against a
// full scan of the job table: the queue is in Seq order (removeFromQueue
// binary-searches it), eligible is exactly its StateQueued jobs in that
// order, and QueueLengths agrees with counting states one by one.
func checkIndex(t *testing.T, s *Server, step string) {
	t.Helper()
	var want []*Job
	var waiting, running int
	for i, id := range s.queue {
		j := s.jobs[id]
		if i > 0 && s.jobs[s.queue[i-1]].Seq >= j.Seq {
			t.Fatalf("%s: queue not in Seq order at %d: %v", step, i, s.queue)
		}
		switch j.State {
		case StateQueued:
			want = append(want, j)
			waiting++
		case StateHeld:
			waiting++
		case StateRunning, StateExiting:
			running++
		}
	}
	if !slices.Equal(s.eligible, want) {
		t.Fatalf("%s: eligible = %v, want %v", step, jobIDs(s.eligible), jobIDs(want))
	}
	w, r, c := s.QueueLengths()
	if w != waiting || r != running || c != len(s.completed) {
		t.Fatalf("%s: QueueLengths = (%d, %d, %d), full scan (%d, %d, %d)", step, w, r, c, waiting, running, len(s.completed))
	}
}

func jobIDs(jobs []*Job) []JobID {
	ids := make([]JobID, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// randomOp draws one command from the subject's current state and
// returns its name and a closure that applies it to any replica. The
// draw happens once, so subject and twin see the identical command.
func randomOp(rng *rand.Rand, s *Server, history [][]byte) (string, func(*Server)) {
	var known, active []JobID
	for _, id := range s.queue {
		known = append(known, id)
		if st := s.jobs[id].State; st == StateRunning || st == StateExiting {
			active = append(active, id)
		}
	}
	known = append(known, s.completed...)
	pick := func(ids []JobID) JobID {
		if len(ids) == 0 || rng.Intn(10) == 0 {
			return JobID(fmt.Sprintf("%d.cluster", 1000+rng.Intn(10))) // unknown
		}
		return ids[rng.Intn(len(ids))]
	}
	req := func() SubmitRequest {
		return SubmitRequest{
			Owner:     []string{"alice", "bob", "carol"}[rng.Intn(3)],
			NodeCount: 1 + rng.Intn(3),
			WallTime:  time.Duration(1+rng.Intn(100)) * time.Second,
			Resources: ResourceSpec{NCPUs: 1 + rng.Intn(2)},
			Priority:  rng.Intn(5),
			Hold:      rng.Intn(3) == 0,
		}
	}
	switch op := rng.Intn(20); {
	case op < 5:
		r := req()
		return fmt.Sprintf("Submit(hold=%v)", r.Hold), func(x *Server) { x.Submit(r) }
	case op < 7:
		r := req()
		r.Array = ArraySpec{Set: true, Start: 0, End: 1 + rng.Intn(3)}
		return fmt.Sprintf("SubmitArray(hold=%v)", r.Hold), func(x *Server) { x.SubmitArray(r) }
	case op < 9:
		id := pick(known)
		return "Hold(" + string(id) + ")", func(x *Server) { x.Hold([]byte(id)) }
	case op < 11:
		id := pick(known)
		return "Release(" + string(id) + ")", func(x *Server) { x.Release([]byte(id)) }
	case op < 13:
		id := pick(known)
		return "Delete(" + string(id) + ")", func(x *Server) { x.Delete([]byte(id)) }
	case op < 17:
		id := pick(active)
		if rng.Intn(5) == 0 {
			id = pick(known) // a duplicate or stale report
		}
		return "JobDone(" + string(id) + ")", func(x *Server) { x.JobDone(id, 0, "") }
	case op < 19:
		node := fmt.Sprintf("compute%d", rng.Intn(4))
		off := rng.Intn(2) == 0
		return fmt.Sprintf("SetNodeOffline(%s, %v)", node, off), func(x *Server) { x.SetNodeOffline(node, off) }
	default:
		snap := history[rng.Intn(len(history))]
		return "Restore", func(x *Server) {
			if err := x.Restore(snap); err != nil {
				panic(err)
			}
		}
	}
}

// TestEligibleIndexProperty drives seeded random command streams —
// held and runnable submissions, arrays, hold, release, delete,
// completions (fresh, duplicate and unknown), node offline/online and
// mid-stream restores — under every policy. After each command the
// incrementally kept eligible index and queue gauges must match a full
// scan, and the subject's snapshot must be byte-identical to that of a
// twin restored from the subject's pre-command snapshot (its index
// rebuilt from scratch) that then applied the same command.
func TestEligibleIndexProperty(t *testing.T) {
	configs := map[string]Config{
		"fifo":      {},
		"priority":  {Policy: PolicyPriority, FairshareHalfLife: 64},
		"backfill":  {Policy: PolicyBackfill, FairshareHalfLife: 64},
		"exclusive": {Exclusive: true},
	}
	for name, cfg := range configs {
		cfg.ServerName = "cluster"
		cfg.Nodes = nodeNames(4)
		cfg.NodeCPUs = 2
		cfg.KeepCompleted = 8
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := NewServer(cfg)
				history := [][]byte{s.Snapshot()}
				for step := 0; step < 400; step++ {
					pre := history[len(history)-1]
					what, apply := randomOp(rng, s, history)
					label := fmt.Sprintf("seed %d step %d %s", seed, step, what)
					twin := NewServer(cfg)
					if err := twin.Restore(pre); err != nil {
						t.Fatalf("%s: twin restore: %v", label, err)
					}
					apply(s)
					apply(twin)
					checkIndex(t, s, label)
					post := s.Snapshot()
					if !bytes.Equal(post, twin.Snapshot()) {
						t.Fatalf("%s: snapshot differs from a twin that rebuilt its index", label)
					}
					history = append(history, post)
				}
			}
		})
	}
}

// TestApplyDoneSkipsStatusRebuild pins the completion path: applying
// a completion must not rebuild the status snapshot (no read-cache
// miss), fires OnJobDone exactly once for the report that ends the
// job, and never for a refused, a duplicate or an unknown job's one.
func TestApplyDoneSkipsStatusRebuild(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	srv := NewServer(Config{ServerName: "c", Nodes: []string{"n0"}})
	ep, _ := net.Endpoint("h/pbs")
	var fired atomic.Int32
	d := NewDaemon(srv, DaemonConfig{
		Endpoint: ep,
		Moms:     map[string]transport.Addr{"n0": "nowhere/mom"},
		OnJobDone: func(JobID, int) {
			fired.Add(1)
		},
	})
	defer d.Close()

	j, err := d.Submit(SubmitRequest{WallTime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Checked without a status read: the snapshot stays cold, so any
	// status read inside ApplyDone would count a miss.
	if _, running, _ := srv.QueueLengths(); running != 1 {
		t.Fatalf("running = %d, want 1", running)
	}
	_, misses := srv.ReadCacheStats()
	version := srv.Version()

	if err := d.ApplyDone([]byte(j.ID), []byte("n1"), 0, []byte("out")); !errors.Is(err, ErrNotFirstNode) {
		t.Fatalf("completion from n1 for a job on n0: %v, want ErrNotFirstNode", err)
	}
	if fired.Load() != 0 || srv.Version() != version {
		t.Fatal("a refused completion changed the state or fired OnJobDone")
	}
	if err := d.ApplyDone([]byte(j.ID), []byte("n0"), 0, []byte("out")); err != nil {
		t.Fatal(err)
	}
	if _, after := srv.ReadCacheStats(); after != misses {
		t.Errorf("ApplyDone rebuilt the status snapshot: misses %d -> %d", misses, after)
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("OnJobDone fired %d times for one completion, want 1", n)
	}
	// A duplicate report and one for an unknown job are stale, not
	// refused.
	if err := d.ApplyDone([]byte(j.ID), []byte("n0"), 0, []byte("out")); err != nil {
		t.Errorf("duplicate report: %v", err)
	}
	if err := d.ApplyDone([]byte("99.c"), []byte("n0"), 0, nil); err != nil {
		t.Errorf("report for an unknown job: %v", err)
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("OnJobDone fired %d times after a duplicate and an unknown report, want 1", n)
	}
	if got := statusOf(t, srv, j.ID); got.State != StateCompleted || got.Output != "out" {
		t.Errorf("after ApplyDone: state %v output %q", got.State, got.Output)
	}
}
