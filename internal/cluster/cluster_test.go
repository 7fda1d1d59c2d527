package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/simnet"
)

// fastGCS shortens group communication timings for tests.
func fastGCS(c *gcs.Config) {
	c.Heartbeat = 10 * time.Millisecond
	c.FailTimeout = 80 * time.Millisecond
	c.ResendInterval = 40 * time.Millisecond
	c.FlushTimeout = 150 * time.Millisecond
	c.JoinInterval = 50 * time.Millisecond
}

func testOptions(heads, computes int) Options {
	return Options{
		Heads:     heads,
		Computes:  computes,
		Exclusive: true,
		Latency:   simnet.Latency{Remote: time.Millisecond},
		TuneGCS:   fastGCS,
	}
}

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// headsConsistent reports whether all live heads agree on the full
// job listing (replicated-state convergence).
func headsConsistent(c *Cluster) (bool, string) {
	var ref string
	var refIdx int
	for n, i := range c.LiveHeads() {
		s := dumpJobs(c.Head(i).Daemon().StatusAll())
		if n == 0 {
			ref, refIdx = s, i
			continue
		}
		if s != ref {
			return false, fmt.Sprintf("head%d:\n%s\nhead%d:\n%s", refIdx, ref, i, s)
		}
	}
	return true, ""
}

func dumpJobs(jobs []pbs.Job) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "%s %s %s rc=%d\n", j.ID, j.Name, j.State, j.ExitCode)
	}
	return b.String()
}

func totalExecutions(c *Cluster) int {
	n := 0
	for _, m := range c.moms {
		n += m.Executions()
	}
	return n
}

func TestSingleHeadBaseline(t *testing.T) {
	c := newCluster(t, testOptions(1, 1))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(pbs.SubmitRequest{Name: "hello", Owner: "alice", WallTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "1.cluster" {
		t.Errorf("job ID = %s", j.ID)
	}
	waitFor(t, 10*time.Second, "job completion", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
	if n := totalExecutions(c); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

func TestReplicatedSubmissionConsistency(t *testing.T) {
	c := newCluster(t, testOptions(3, 2))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	var ids []pbs.JobID
	for i := 0; i < 6; i++ {
		j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("job%d", i), Owner: "bob", WallTime: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// One batched submission is one replicated command carrying several
	// jobs, which take the next sequence numbers.
	batch, err := cli.SubmitBatch(pbs.SubmitRequest{Name: "batch", Owner: "bob", WallTime: 2 * time.Millisecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch returned %d jobs, want 4", len(batch))
	}
	for _, j := range batch {
		ids = append(ids, j.ID)
	}
	// Same IDs regardless of which head intercepted: deterministic
	// sequence numbers.
	for i, id := range ids {
		want := pbs.JobID(fmt.Sprintf("%d.cluster", i+1))
		if id != want {
			t.Errorf("job %d ID = %s, want %s", i, id, want)
		}
	}
	waitFor(t, 20*time.Second, "all jobs complete", func() bool {
		got, err := cli.Stat(ids[len(ids)-1])
		return err == nil && got.State == pbs.StateCompleted
	})
	waitFor(t, 10*time.Second, "replicas converge", func() bool {
		ok, _ := headsConsistent(c)
		return ok
	})
	if n := totalExecutions(c); n != len(ids) {
		t.Errorf("executions = %d, want %d (each job exactly once)", n, len(ids))
	}
}

func TestJobExecutesOnceDespiteThreeHeads(t *testing.T) {
	// Three heads each instruct the mom to start the replicated job;
	// the mom runs it once, as the job's first node.
	c := newCluster(t, testOptions(3, 1))
	cli, _ := c.Client()
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "completion", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
	// Give late start-attempts a moment to (incorrectly) execute.
	time.Sleep(200 * time.Millisecond)
	if n := totalExecutions(c); n != 1 {
		t.Fatalf("executions = %d, want exactly 1", n)
	}
	// Every head must see the completion (mom reports to all).
	waitFor(t, 10*time.Second, "all heads see completion", func() bool {
		for _, i := range c.LiveHeads() {
			got, err := c.Head(i).Daemon().Status(j.ID)
			if err != nil || got.State != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
}

func TestHeadFailureContinuousAvailability(t *testing.T) {
	c := newCluster(t, testOptions(3, 1))
	cli, _ := c.Client()

	// Submit, crash a head mid-stream, keep submitting: every request
	// succeeds and no state is lost.
	var ids []pbs.JobID
	for i := 0; i < 3; i++ {
		j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("pre%d", i), WallTime: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	c.CrashHead(1)

	for i := 0; i < 3; i++ {
		j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("post%d", i), WallTime: time.Millisecond})
		if err != nil {
			t.Fatalf("submission after head failure: %v", err)
		}
		ids = append(ids, j.ID)
	}

	waitFor(t, 20*time.Second, "all 6 jobs complete", func() bool {
		got, err := cli.Stat(ids[len(ids)-1])
		return err == nil && got.State == pbs.StateCompleted
	})
	waitFor(t, 10*time.Second, "survivors converge", func() bool {
		ok, _ := headsConsistent(c)
		return ok
	})
	if ok, diff := headsConsistent(c); !ok {
		t.Fatalf("surviving heads diverged:\n%s", diff)
	}
	if n := totalExecutions(c); n != 6 {
		t.Errorf("executions = %d, want 6", n)
	}
}

// TestSequencerCrashExpelledWithinHeartbeat: with writes running, the
// crashed sequencer's connections drop at every survivor at once, so
// the survivors agree it is gone and install the view without it
// within one heartbeat, and no write is lost or applied twice.
func TestSequencerCrashExpelledWithinHeartbeat(t *testing.T) {
	const heartbeat = 200 * time.Millisecond
	opts := testOptions(3, 1)
	opts.TuneGCS = func(c *gcs.Config) { c.Heartbeat = heartbeat } // the rest scale with it
	c := newCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	var acked int
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("w%d", acked), Hold: true}); err != nil {
				done <- err
				return
			}
			acked++
		}
	}()
	time.Sleep(100 * time.Millisecond)

	old := c.Head(1).View()
	seq := old.Sequencer()
	var victim int
	fmt.Sscanf(string(seq), "head%d", &victim)
	t0 := time.Now()
	c.CrashHead(victim)
	for {
		installed := true
		for _, i := range c.LiveHeads() {
			if v := c.Head(i).View(); v.ID <= old.ID || v.Includes(seq) {
				installed = false
			}
		}
		if installed {
			break
		}
		if time.Since(t0) > 10*time.Second {
			t.Fatal("survivors never installed a view without the crashed sequencer")
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(t0); took >= heartbeat {
		t.Errorf("view without the crashed sequencer after %v, want within one Heartbeat = %v", took, heartbeat)
	} else {
		t.Logf("crash to view without %s: %v", seq, took)
	}

	time.Sleep(100 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("write during the failover: %v", err)
	}
	waitFor(t, 10*time.Second, "every acked write held on every survivor", func() bool {
		for _, i := range c.LiveHeads() {
			if held, _, _ := c.Head(i).Daemon().Server().QueueLengths(); held != acked {
				return false
			}
		}
		return true
	})
}

func TestMultipleSimultaneousHeadFailures(t *testing.T) {
	c := newCluster(t, testOptions(4, 1))
	cli, _ := c.Client()

	j, err := cli.Submit(pbs.SubmitRequest{Name: "before", WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Forcibly shut down two head nodes at once (paper §5 functional
	// testing: "single and multiple simultaneous failures").
	c.CrashHead(0)
	c.CrashHead(2)

	j2, err := cli.Submit(pbs.SubmitRequest{Name: "after", WallTime: time.Millisecond})
	if err != nil {
		t.Fatalf("submission after double failure: %v", err)
	}
	waitFor(t, 20*time.Second, "both jobs complete", func() bool {
		a, errA := cli.Stat(j.ID)
		b, errB := cli.Stat(j2.ID)
		return errA == nil && errB == nil &&
			a.State == pbs.StateCompleted && b.State == pbs.StateCompleted
	})
	if got := len(c.LiveHeads()); got != 2 {
		t.Fatalf("live heads = %d, want 2", got)
	}
}

func TestClientFailoverFromDeadHead(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	// Client prefers head0 which is already dead.
	c.CrashHead(0)
	cli, err := c.ClientFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	waitFor(t, 10*time.Second, "completion via survivor", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
}

func TestJoinHeadReceivesState(t *testing.T) {
	c := newCluster(t, testOptions(1, 1))
	cli, _ := c.Client()

	var ids []pbs.JobID
	for i := 0; i < 4; i++ {
		j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("old%d", i), WallTime: time.Millisecond, Hold: i == 3})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	waitFor(t, 10*time.Second, "first three complete", func() bool {
		got, err := cli.Stat(ids[2])
		return err == nil && got.State == pbs.StateCompleted
	})

	if err := c.AddHead(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "joiner installs 2-member view", func() bool {
		h := c.Head(1)
		if h == nil {
			return false
		}
		select {
		case <-h.Ready():
		default:
			return false
		}
		return len(h.View().Members) == 2
	})
	waitFor(t, 10*time.Second, "joiner state matches founder", func() bool {
		ok, _ := headsConsistent(c)
		return ok
	})

	// The held job survived the transfer (the capability the paper's
	// replay-based transfer could not provide).
	held, err := c.Head(1).Daemon().Status(ids[3])
	if err != nil || held.State != pbs.StateHeld {
		t.Fatalf("held job on joiner = %+v, %v", held, err)
	}

	// New commands replicate to both heads; release the held job.
	if _, err := cli.Release(ids[3]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "released job completes on both heads", func() bool {
		for _, i := range c.LiveHeads() {
			got, err := c.Head(i).Daemon().Status(ids[3])
			if err != nil || got.State != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
}

func TestCrashedHeadRejoins(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()

	j1, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.CrashHead(1)
	j2, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "jobs complete on survivor", func() bool {
		a, errA := cli.Stat(j1.ID)
		b, errB := cli.Stat(j2.ID)
		return errA == nil && errB == nil &&
			a.State == pbs.StateCompleted && b.State == pbs.StateCompleted
	})

	// The failed head is repaired and rejoins with full state.
	if err := c.AddHead(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "rejoined head converges", func() bool {
		if c.Head(1) == nil {
			return false
		}
		ok, _ := headsConsistent(c)
		return ok && len(c.Head(1).View().Members) == 2
	})

	// And participates in new work.
	j3, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "post-rejoin job completes everywhere", func() bool {
		for _, i := range c.LiveHeads() {
			got, err := c.Head(i).Daemon().Status(j3.ID)
			if err != nil || got.State != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
}

func TestGracefulLeave(t *testing.T) {
	c := newCluster(t, testOptions(3, 1))
	cli, _ := c.Client()
	c.LeaveHead(2)
	waitFor(t, 10*time.Second, "2-member views at survivors", func() bool {
		for _, i := range c.LiveHeads() {
			if len(c.Head(i).View().Members) != 2 {
				return false
			}
		}
		return true
	})
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "completion after leave", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
}

func TestDeleteAndHoldLifecycleViaClient(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()

	// Long-running job, then delete it.
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "running", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateRunning
	})
	if _, err := cli.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "killed", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted && got.ExitCode == pbs.ExitCodeKilled
	})

	// Held submit does not run until released.
	h, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	got, err := cli.Stat(h.ID)
	if err != nil || got.State != pbs.StateHeld {
		t.Fatalf("held job = %+v, %v", got, err)
	}
	if _, err := cli.Release(h.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "released job completes", func() bool {
		got, err := cli.Stat(h.ID)
		return err == nil && got.State == pbs.StateCompleted
	})

	// Unknown-job errors propagate PBS-style.
	if _, err := cli.Stat("404.cluster"); err == nil || !strings.Contains(err.Error(), "Unknown Job Id") {
		t.Errorf("unknown job err = %v", err)
	}
}

func TestStatAllAndLocal(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()
	for i := 0; i < 3; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("j%d", i), WallTime: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := cli.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("StatAll returned %d jobs", len(jobs))
	}
}

func TestSignalReplicated(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "running", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateRunning
	})
	if _, err := cli.Signal(j.ID, "SIGUSR1"); err != nil {
		t.Fatal(err)
	}
	// Both heads recorded the (state-neutral) signal.
	waitFor(t, 5*time.Second, "signal replicated", func() bool {
		for _, i := range c.LiveHeads() {
			if c.Head(i).Daemon().Server().SignalCount(j.ID) != 1 {
				return false
			}
		}
		return true
	})
	cli.Delete(j.ID)
}

// TestAccountingOrderSameOnEveryHead drives two heads with one command
// stream from four concurrent clients — submits, holds, releases,
// deletes, jsig, ordered jstat and the moms' completions — and requires
// both heads' accounting sinks to hold the same records in the same
// order. Records are compared by type and job ID: Time is each head's
// own clock.
func TestAccountingOrderSameOnEveryHead(t *testing.T) {
	c := newCluster(t, testOptions(2, 2))
	const clients, each = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				held, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("h%d.%d", g, k), WallTime: time.Millisecond, Hold: true})
				if err != nil {
					errs <- err
					return
				}
				run, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("r%d.%d", g, k), WallTime: 3 * time.Millisecond})
				if err != nil {
					errs <- err
					return
				}
				// Whether these succeed depends on how far the job got,
				// which the total order decides the same way on every
				// head.
				_, _ = cli.Hold(run.ID)
				_, _ = cli.Signal(run.ID, "SIGUSR1")
				if _, err := cli.StatOrdered(run.ID); err != nil {
					errs <- err
					return
				}
				_, _ = cli.Release(run.ID)
				if k%2 == 0 {
					_, err = cli.Release(held.ID)
				} else {
					_, err = cli.Delete(held.ID)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	records := func(i int) []string {
		var out []string
		for _, r := range c.Accounting(i).Records() {
			out = append(out, fmt.Sprintf("%c %s", r.Type, r.Job))
		}
		return out
	}
	idle := func(i int) bool {
		waiting, running, _ := c.Head(i).Daemon().Server().QueueLengths()
		return waiting == 0 && running == 0
	}
	var a, b []string
	deadline := time.Now().Add(20 * time.Second)
	for {
		a, b = records(0), records(1)
		if idle(0) && idle(1) && slices.Equal(a, b) {
			break
		}
		if time.Now().After(deadline) {
			n := 0
			for n < len(a) && n < len(b) && a[n] == b[n] {
				n++
			}
			t.Fatalf("accounting diverged at record %d of %d/%d:\nhead0: %v\nhead1: %v",
				n, len(a), len(b), a[n:min(n+5, len(a))], b[n:min(n+5, len(b))])
		}
		time.Sleep(5 * time.Millisecond)
	}
	types := map[byte]bool{}
	for _, r := range a {
		types[r[0]] = true
	}
	for _, typ := range []byte{pbs.AcctQueued, pbs.AcctStarted, pbs.AcctEnded, pbs.AcctDeleted, pbs.AcctHeld, pbs.AcctReleased} {
		if !types[typ] {
			t.Errorf("no %c record among %d: the stream missed an operation", typ, len(a))
		}
	}
}

func TestMajorityPartitionRejectsMinority(t *testing.T) {
	opts := testOptions(3, 1)
	opts.PartitionPolicy = gcs.Majority
	c := newCluster(t, opts)

	// Cut head2 off from heads 0 and 1.
	c.PartitionHeads([]int{0, 1}, []int{2})
	waitFor(t, 15*time.Second, "majority reforms", func() bool {
		return len(c.Head(0).View().Members) == 2 && c.Head(0).View().Primary
	})
	waitFor(t, 15*time.Second, "minority demoted", func() bool {
		v := c.Head(2).View()
		return len(v.Members) == 1 && !v.Primary
	})

	// A client pinned to the minority head gets refused there but
	// succeeds after failing over to the majority.
	cli, err := c.ClientFor(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatalf("submit with minority-first client: %v", err)
	}
	waitFor(t, 10*time.Second, "completion in majority", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
}

func TestConcurrentClientsConsistency(t *testing.T) {
	c := newCluster(t, testOptions(3, 2))
	const clients = 4
	const perClient = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for k := 0; k < clients; k++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int, cli *joshua.Client) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("c%d-%d", k, i), WallTime: time.Millisecond}); err != nil {
					errs <- err
					return
				}
			}
		}(k, cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := clients * perClient
	waitFor(t, 30*time.Second, "all jobs complete everywhere", func() bool {
		for _, i := range c.LiveHeads() {
			_, running, completed := c.Head(i).Daemon().Server().QueueLengths()
			if running != 0 || completed != total {
				return false
			}
		}
		return true
	})
	if ok, diff := headsConsistent(c); !ok {
		t.Fatalf("heads diverged:\n%s", diff)
	}
	if n := totalExecutions(c); n != total {
		t.Errorf("executions = %d, want %d", n, total)
	}
}

func TestComputeNodeFailureDocumentedLimitation(t *testing.T) {
	// The paper: compute-node (mom) failure is out of scope; the job
	// stays Running. We verify the documented behaviour holds.
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "running", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateRunning
	})
	c.CrashCompute(0)
	time.Sleep(300 * time.Millisecond)
	got, err := cli.Stat(j.ID)
	if err != nil || got.State != pbs.StateRunning {
		t.Fatalf("job after mom crash = %+v, %v (expected to stay Running)", got, err)
	}
}

func TestJobOutputCaptured(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()
	j, err := cli.Submit(pbs.SubmitRequest{
		Name:     "hello",
		Owner:    "alice",
		Script:   "#!/bin/sh\necho hello from joshua\necho second line\n",
		WallTime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "completion with output", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
	got, _ := cli.Stat(j.ID)
	want := "hello from joshua\nsecond line\n"
	if got.Output != want {
		t.Errorf("output = %q, want %q", got.Output, want)
	}
	// The output is part of the replicated state on every head.
	waitFor(t, 5*time.Second, "output replicated", func() bool {
		for _, i := range c.LiveHeads() {
			jj, err := c.Head(i).Daemon().Status(j.ID)
			if err != nil || jj.Output != want {
				return false
			}
		}
		return true
	})
}

// fullDump includes node allocations — the part of the state that can
// legitimately differ between heads when completions are NOT ordered
// and scheduling is non-exclusive.
func fullDump(jobs []pbs.Job) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "%s %s %s rc=%d nodes=%v out=%q\n", j.ID, j.Name, j.State, j.ExitCode, j.Nodes, j.Output)
	}
	return b.String()
}

func TestOrderedCompletionsDeterministicAllocation(t *testing.T) {
	// With first-fit packing, every head still makes identical
	// scheduling decisions including node allocations, because every
	// completion is ordered — the extension that lifts the paper's
	// exclusive-access restriction.
	opts := testOptions(3, 3)
	opts.Exclusive = false
	c := newCluster(t, opts)
	cli, _ := c.Client()

	var ids []pbs.JobID
	for i := 0; i < 8; i++ {
		j, err := cli.Submit(pbs.SubmitRequest{
			Name:      fmt.Sprintf("packed%d", i),
			NodeCount: 1 + i%2,
			WallTime:  time.Duration(3+i%5) * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	waitFor(t, 30*time.Second, "all packed jobs complete everywhere", func() bool {
		for _, i := range c.LiveHeads() {
			_, running, completed := c.Head(i).Daemon().Server().QueueLengths()
			if running != 0 || completed != len(ids) {
				return false
			}
		}
		return true
	})
	// Full-state comparison including node allocations.
	ref := fullDump(c.Head(0).Daemon().StatusAll())
	for _, i := range c.LiveHeads()[1:] {
		got := fullDump(c.Head(i).Daemon().StatusAll())
		if got != ref {
			t.Fatalf("allocations diverged despite ordered completions:\nhead0:\n%s\nhead%d:\n%s", ref, i, got)
		}
	}
	if n := totalExecutions(c); n != len(ids) {
		t.Errorf("executions = %d, want %d", n, len(ids))
	}
}

func TestOrderedCompletionsSurviveHeadFailure(t *testing.T) {
	c := newCluster(t, testOptions(3, 1))
	cli, _ := c.Client()

	j1, err := cli.Submit(pbs.SubmitRequest{WallTime: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Crash a head while the job runs; the completion still reaches
	// and applies at the survivors via the total order.
	c.CrashHead(1)
	waitFor(t, 15*time.Second, "completion applied at survivors", func() bool {
		for _, i := range c.LiveHeads() {
			jj, err := c.Head(i).Daemon().Status(j1.ID)
			if err != nil || jj.State != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
	// FIFO successor starts normally afterwards.
	j2, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "successor completes", func() bool {
		got, err := cli.Stat(j2.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
}

func TestNodeManagementReplicated(t *testing.T) {
	c := newCluster(t, testOptions(2, 2))
	cli, _ := c.Client()

	// Take compute0 offline; the next job must land on compute1.
	if err := cli.SetNodeOffline("compute0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "offline replicated to every head", func() bool {
		for _, i := range c.LiveHeads() {
			nodes := c.Head(i).Daemon().Server().NodesStatus()
			if !nodes[0].Offline {
				return false
			}
		}
		return true
	})

	j, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job completes on compute1", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
	got, _ := cli.Stat(j.ID)
	if len(got.Nodes) != 1 || got.Nodes[0] != "compute1" {
		t.Fatalf("job ran on %v, want compute1", got.Nodes)
	}
	if c.Mom(0).Executions() != 0 || c.Mom(1).Executions() != 1 {
		t.Fatalf("executions: mom0=%d mom1=%d", c.Mom(0).Executions(), c.Mom(1).Executions())
	}

	// Listing via the client reflects the state.
	nodes, err := cli.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || !nodes[0].Offline || nodes[1].Offline {
		t.Fatalf("nodes = %+v", nodes)
	}

	// Bring it back; both nodes usable again.
	if err := cli.SetNodeOnline("compute0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "online replicated", func() bool {
		for _, i := range c.LiveHeads() {
			if c.Head(i).Daemon().Server().NodesStatus()[0].Offline {
				return false
			}
		}
		return true
	})
	if err := cli.SetNodeOffline("ghost"); err == nil {
		t.Fatal("unknown node should error")
	}
}

func TestAllNodesOfflineQueuesJobs(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	cli, _ := c.Client()
	if err := cli.SetNodeOffline("compute0"); err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	got, _ := cli.Stat(j.ID)
	if got.State != pbs.StateQueued {
		t.Fatalf("state = %v, want Q (no online nodes)", got.State)
	}
	// Bringing the node online releases the queue everywhere.
	if err := cli.SetNodeOnline("compute0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "queued job runs after node online", func() bool {
		got, err := cli.Stat(j.ID)
		return err == nil && got.State == pbs.StateCompleted
	})
}
