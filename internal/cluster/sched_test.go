package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/pbs"
)

// TestSchedulerDeterminismAcrossReplicas is the cross-replica guard
// for the scheduling pipeline: for every policy, concurrent clients
// race their submissions (shuffled arrival), yet once the totally
// ordered command stream quiesces, every head's state-machine
// snapshot — jobs, allocations, fairshare ledger, logical clock,
// reservation — is byte-identical. Completions are ordered (jdone), so
// replica logical clocks advance in lockstep.
func TestSchedulerDeterminismAcrossReplicas(t *testing.T) {
	for _, policy := range []pbs.SchedPolicy{pbs.PolicyFIFO, pbs.PolicyPriority, pbs.PolicyBackfill} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := testOptions(3, 4)
			opts.Exclusive = false
			opts.SchedPolicy = policy
			opts.NodeCPUs = 2
			opts.FairshareHalfLife = 1 << 20
			c := newCluster(t, opts)

			const (
				clients = 4
				each    = 5
			)
			errs := make(chan error, clients+1)
			var wg sync.WaitGroup
			for ci := 0; ci < clients; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					cli, err := c.Client()
					if err != nil {
						errs <- err
						return
					}
					for k := 0; k < each; k++ {
						_, err := cli.Submit(pbs.SubmitRequest{
							Name:      fmt.Sprintf("c%dj%d", ci, k),
							Owner:     fmt.Sprintf("user%d", ci%3),
							NodeCount: 1 + (ci+k)%2,
							Priority:  (ci * k) % 7,
							WallTime:  time.Duration(1+(ci+k)%4) * time.Millisecond,
						})
						if err != nil {
							errs <- err
							return
						}
					}
				}(ci)
			}
			// One more client races a job array against the singles.
			wg.Add(1)
			go func() {
				defer wg.Done()
				cli, err := c.Client()
				if err != nil {
					errs <- err
					return
				}
				_, err = cli.SubmitArray(pbs.SubmitRequest{
					Name:     "sweep",
					Owner:    "arrayuser",
					WallTime: 2 * time.Millisecond,
					Array:    pbs.ArraySpec{Set: true, Start: 0, End: 3},
				})
				if err != nil {
					errs <- err
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			total := clients*each + 4
			waitFor(t, 60*time.Second, "all jobs complete on every head", func() bool {
				for _, i := range c.LiveHeads() {
					waiting, running, completed := c.Head(i).Daemon().Server().QueueLengths()
					if waiting != 0 || running != 0 || completed != total {
						return false
					}
				}
				return true
			})
			waitFor(t, 10*time.Second, "byte-identical snapshots on every head", func() bool {
				ref := c.Head(0).Daemon().Server().Snapshot()
				for _, i := range c.LiveHeads()[1:] {
					if !bytes.Equal(ref, c.Head(i).Daemon().Server().Snapshot()) {
						return false
					}
				}
				return true
			})
		})
	}
}

// TestBackfillClusterEndToEnd drives the canonical backfill shape
// through the full replicated stack: a wide blocked job gets a
// reservation, a short narrow job backfills ahead of it, and the
// reservation holder still runs to completion.
func TestBackfillClusterEndToEnd(t *testing.T) {
	opts := testOptions(3, 4)
	opts.Exclusive = false
	opts.SchedPolicy = pbs.PolicyBackfill
	c := newCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	long, err := cli.Submit(pbs.SubmitRequest{
		Name: "long", NodeCount: 2, WallTime: 300 * time.Millisecond,
		Resources: pbs.ResourceSpec{}, Owner: "alice",
	})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := cli.Submit(pbs.SubmitRequest{
		Name: "wide", NodeCount: 4, WallTime: 10 * time.Millisecond, Owner: "bob",
	})
	if err != nil {
		t.Fatal(err)
	}
	fill, err := cli.Submit(pbs.SubmitRequest{
		Name: "fill", NodeCount: 1, WallTime: 10 * time.Millisecond, Owner: "carol",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Everything drains...
	for _, id := range []pbs.JobID{long.ID, wide.ID, fill.ID} {
		id := id
		waitFor(t, 30*time.Second, fmt.Sprintf("%s completes", id), func() bool {
			j, err := cli.Stat(id)
			return err == nil && j.State == pbs.StateCompleted
		})
	}
	// ...and the logical timestamps prove the backfill: the filler
	// started while the long job still held its nodes (before its
	// completion tick) even though the wide job was queued ahead of
	// it, and the wide job still only started once the long job's
	// completion freed the pool — the filler never delayed it.
	lj, _ := cli.Stat(long.ID)
	wj, _ := cli.Stat(wide.ID)
	fj, _ := cli.Stat(fill.ID)
	if !fj.StartedAt.Before(lj.CompletedAt) {
		t.Errorf("filler did not backfill: started %d, long completed %d",
			fj.StartedAt.UnixNano(), lj.CompletedAt.UnixNano())
	}
	if wj.StartedAt.Before(lj.CompletedAt) {
		t.Errorf("wide job started at tick %d before the long job released its nodes at tick %d",
			wj.StartedAt.UnixNano(), lj.CompletedAt.UnixNano())
	}
	if n := totalExecutions(c); n != 3 {
		t.Errorf("executions = %d, want 3", n)
	}
}
