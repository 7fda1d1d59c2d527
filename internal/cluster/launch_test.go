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
// every head's start for a job folds onto one run on its first node,
// and the job costs two ordered commands with no launch lock among
// them. (The name is from when a jmutex per job and mom was the third.)
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
