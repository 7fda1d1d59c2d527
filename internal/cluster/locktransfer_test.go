package cluster

import (
	"testing"
	"time"

	"joshua/internal/pbs"
)

// TestJoinHeadReceivesLockTable pins the join contract of the
// jmutex/jdone lock table: it travels through state
// transfer alongside the batch-system snapshot, so a joiner denies a
// launch attempt for a job whose lock was granted before it joined
// (without this, a replicated job could start twice after maintenance
// brings a head back).
func TestJoinHeadReceivesLockTable(t *testing.T) {
	c := newCluster(t, testOptions(1, 1))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	// A held job so the mom never races us for the lock.
	j, err := cli.Submit(pbs.SubmitRequest{Name: "locked", Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	granted, err := cli.JMutex(j.ID, "attempt-before-join")
	if err != nil || !granted {
		t.Fatalf("pre-join acquire = %v, %v", granted, err)
	}

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

	// Ask the joiner directly: the pre-join winner still holds the
	// lock, so a different attempt loses...
	joinerCli, err := c.ClientFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if granted, err := joinerCli.JMutex(j.ID, "attempt-after-join"); err != nil || granted {
		t.Fatalf("competing acquire at joiner = %v, %v; lock table lost in transfer", granted, err)
	}
	// ...and the winner's own retry remains granted (idempotent).
	if granted, err := joinerCli.JMutex(j.ID, "attempt-before-join"); err != nil || !granted {
		t.Fatalf("winner retry at joiner = %v, %v", granted, err)
	}

	// Release flows through the total order and frees the lock on both
	// heads: a fresh acquire now wins at the joiner.
	if err := joinerCli.JDone(j.ID); err != nil {
		t.Fatal(err)
	}
	if granted, err := joinerCli.JMutex(j.ID, "attempt-fresh"); err != nil || !granted {
		t.Fatalf("acquire after release = %v, %v", granted, err)
	}
}
