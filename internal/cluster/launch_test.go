package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/simnet"
)

// TestBacklogDrainsIdentically is the regression test for completions
// that bypass the total order. Three heads place a backlog of one-node
// jobs, first-fit over four moms, as earlier jobs complete. Every job
// ends with its first node's jdone in the total order, so every head
// frees and refills the same nodes at the same point of the command
// stream. Once the queue drains, each job has executed exactly once,
// every head's batch state is byte-identical, and a job has cost two
// ordered commands: its jsub and its jdone. The network jitter
// reorders messages, which is what made heads that applied completions
// on arrival drift apart.
func TestBacklogDrainsIdentically(t *testing.T) {
	drainBacklog(t, 2*time.Millisecond)
}

// TestOneLaunchLockPerJobPerMom is the backlog test without jitter:
// the sequencer's start for a job, and any repeat, folds onto one run
// on its first node, and the job costs two ordered commands with no
// launch lock among them. (The name is from when a jmutex per job and mom was the third.)
func TestOneLaunchLockPerJobPerMom(t *testing.T) {
	drainBacklog(t, 0)
}

func drainBacklog(t *testing.T, jitter time.Duration) {
	t.Helper()
	const jobs = 300
	const submitters = 4
	opts := testOptions(3, 4)
	opts.Exclusive = false
	opts.Latency = simnet.Latency{Remote: time.Millisecond, Jitter: jitter}
	c := newCluster(t, opts)
	before := c.Head(0).Stats().Applied

	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for k := 0; k < submitters; k++ {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs/submitters; i++ {
				if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("s%d-%d", k, i), WallTime: time.Millisecond}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	waitFor(t, 60*time.Second, "every head to complete every job", func() bool {
		for _, i := range c.LiveHeads() {
			_, running, completed := c.Head(i).Daemon().Server().QueueLengths()
			if running != 0 || completed != jobs {
				return false
			}
		}
		return true
	})

	if n := totalExecutions(c); n != jobs {
		t.Errorf("executions = %d, want %d", n, jobs)
	}
	ref := c.Head(0).Daemon().Server().Snapshot()
	for _, i := range c.LiveHeads()[1:] {
		if got := c.Head(i).Daemon().Server().Snapshot(); !bytes.Equal(got, ref) {
			t.Errorf("head%d's batch state differs from head0's (%d vs %d bytes)", i, len(got), len(ref))
		}
	}
	perJob := float64(c.Head(0).Stats().Applied-before) / jobs
	t.Logf("head0 applied %.3f commands per job", perJob)
	if perJob > 2.05 {
		t.Errorf("head0 applied %.3f commands per job, want <= 2.05", perJob)
	}
}

// TestIdleTrafficIndependentOfRunningJobs: once every job's start has
// been resent and acked, a thousand running jobs cost the network
// nothing. The datagrams sent over two idle seconds with the jobs
// running stay within 1.2 × those sent with none: only the group's
// heartbeats remain.
func TestIdleTrafficIndependentOfRunningJobs(t *testing.T) {
	const (
		jobs     = 1000
		resend   = 200 * time.Millisecond // Cluster's daemon ResendInterval
		window   = 2 * time.Second
		maxRatio = 1.2
	)
	opts := testOptions(3, 4)
	opts.TuneGCS = nil // the default heartbeat, so the baseline is the deployed one
	opts.Exclusive = false
	opts.NodeCPUs = jobs
	c := newCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	// Each window starts 2 × resend after the last change, when the
	// boot's, or the launch's, traffic has settled.
	sentOver := func() uint64 {
		time.Sleep(2 * resend)
		before := c.Net.Stats().Sent
		time.Sleep(window)
		return c.Net.Stats().Sent - before
	}
	baseline := sentOver()

	for n := 0; n < jobs; n += 100 {
		if _, err := cli.SubmitBatch(pbs.SubmitRequest{WallTime: time.Hour}, 100); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "every job to run on every head", func() bool {
		for _, i := range c.LiveHeads() {
			if _, running, _ := c.Head(i).Daemon().Server().QueueLengths(); running != jobs {
				return false
			}
		}
		return true
	})
	loaded := sentOver()

	t.Logf("datagrams over %v: %d with no job, %d with %d running jobs", window, baseline, loaded, jobs)
	for _, i := range c.LiveHeads() {
		t.Logf("head%d's daemon: %+v", i, c.Head(i).Daemon().Stats())
	}
	if ratio := float64(loaded) / float64(baseline); ratio > maxRatio {
		t.Errorf("idle traffic with %d running jobs is %.2f× the no-job baseline, want <= %.1f×", jobs, ratio, maxRatio)
	}
}

// TestSequencerCrashAdoptsLaunch: the sequencer applies a job's start
// but its datagram never reaches the mom, and then the sequencer
// crashes. The next sequencer adopts the launched job on its first
// resend tick, so the job runs once and completes, and the surviving
// heads' batch states are identical.
func TestSequencerCrashAdoptsLaunch(t *testing.T) {
	c := newCluster(t, testOptions(3, 1))
	cli, err := c.ClientFor(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only head0, the sequencer, sends the start: cut it off from the
	// mom so the start is lost as if it were in flight at the crash.
	c.Net.Partition("head0", "compute0")
	j, err := cli.Submit(pbs.SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "head0 to apply the start", func() bool {
		got, err := c.Head(0).Daemon().Status(j.ID)
		return err == nil && got.State == pbs.StateRunning
	})
	if n := totalExecutions(c); n != 0 {
		t.Fatalf("executions = %d before the crash, want 0", n)
	}
	c.CrashHead(0)
	waitFor(t, 20*time.Second, "the job to complete on the survivors", func() bool {
		for _, i := range c.LiveHeads() {
			got, err := c.Head(i).Daemon().Status(j.ID)
			if err != nil || got.State != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
	if n := totalExecutions(c); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	if n := c.Head(1).Daemon().Stats().Adopted; n != 1 {
		t.Errorf("head1 adopted %d jobs, want 1", n)
	}
	if a, b := c.Head(1).Daemon().Server().Snapshot(), c.Head(2).Daemon().Server().Snapshot(); !bytes.Equal(a, b) {
		t.Errorf("head1's and head2's batch states differ (%d vs %d bytes)", len(a), len(b))
	}
}
