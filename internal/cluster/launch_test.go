package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/pbs"
)

// TestOneLaunchLockPerJobPerMom: three heads each send every job's
// start to the mom they placed it on, and the mom folds those starts
// into one prologue, so a job costs its jsub, its jdone and one jmutex
// per mom it reached (five commands when every head's start took a
// lock of its own). Every job still executes exactly once.
func TestOneLaunchLockPerJobPerMom(t *testing.T) {
	const jobs = 200
	const submitters = 4
	c := newCluster(t, testOptions(3, 8))
	head0, err := c.ClientFor(0)
	if err != nil {
		t.Fatal(err)
	}
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

	waitFor(t, 30*time.Second, "every head to complete every job", func() bool {
		for _, i := range c.LiveHeads() {
			_, running, completed := c.Head(i).Daemon().Server().QueueLengths()
			if running != 0 || completed != jobs {
				return false
			}
		}
		return true
	})
	// The executing mom's jdone follows its report, so the last locks
	// are released just after the heads complete their jobs.
	waitFor(t, 10*time.Second, "every launch lock to be released", func() bool {
		info, err := head0.Info()
		return err == nil && info["locks_held"] == "0"
	})

	if n := totalExecutions(c); n != jobs {
		t.Errorf("executions = %d, want %d", n, jobs)
	}
	perJob := float64(c.Head(0).Stats().Applied-before) / jobs
	t.Logf("head0 applied %.2f commands per job", perJob)
	if perJob >= 4.5 {
		t.Errorf("head0 applied %.2f commands per job, want < 4.5", perJob)
	}
}
