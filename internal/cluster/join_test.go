package cluster

import (
	"testing"
	"time"

	"joshua/internal/pbs"
)

// TestJoinHeadAppliesEarlierJobsCompletion pins the join contract of
// ordered completions: a job that started before a head joined reaches
// the joiner through state transfer, running, and its completion
// reaches it through the total order like every other head's. No
// launch state travels with the transfer: the job's first node ran it,
// once, whatever the heads' membership did meanwhile.
func TestJoinHeadAppliesEarlierJobsCompletion(t *testing.T) {
	c := newCluster(t, testOptions(1, 1))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(pbs.SubmitRequest{Name: "long", WallTime: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the job to start", func() bool { return totalExecutions(c) == 1 })

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
	if got, err := c.Head(1).Daemon().Status(j.ID); err != nil || got.State != pbs.StateRunning {
		t.Fatalf("joiner has job %s as %+v (%v), want it running", j.ID, got, err)
	}

	waitFor(t, 15*time.Second, "the completion on both heads", func() bool {
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
}
