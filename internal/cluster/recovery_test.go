package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/pbs"
)

// durableOptions is testOptions plus a per-test data directory, so
// every head keeps a write-ahead log and checkpoints. Every
// acknowledged command reached the log file before its reply, which is
// all a head crash (the process, not the machine) can test.
func durableOptions(t *testing.T, heads, computes int) Options {
	o := testOptions(heads, computes)
	o.DataDir = t.TempDir()
	o.ClientTimeout = 250 * time.Millisecond
	return o
}

// TestClusterRecoversAfterFullOutage is the paper-scenario the
// in-memory seed could not survive: every head node fail-stops at
// once, and the cluster comes back from disk with the job listings,
// and the dedup table intact.
func TestClusterRecoversAfterFullOutage(t *testing.T) {
	c := newCluster(t, durableOptions(t, 3, 1))
	cli, err := c.ClientFor(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	ids := map[pbs.JobID]bool{}
	for i := 0; i < 5; i++ {
		j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("job%d", i), Hold: true})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[j.ID] = true
	}

	// The whole head group fail-stops.
	for _, i := range c.LiveHeads() {
		c.CrashHead(i)
	}

	// With every head down, the client reports the distinct diagnosis
	// instead of the generic timeout.
	if _, err := cli.StatAll(); !errors.Is(err, joshua.ErrNoHealthyHeads) {
		t.Fatalf("all-heads-down StatAll err = %v, want ErrNoHealthyHeads", err)
	}

	if err := c.RestartHeads(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitReady(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "all heads in a 3-member view", func() bool {
		for _, i := range []int{0, 1, 2} {
			if h := c.Head(i); h == nil || len(h.View().Members) != 3 {
				return false
			}
		}
		return true
	})

	// Job listings survived on every head.
	cli2, err := c.ClientFor(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} {
		headCli, err := c.ClientFor(i)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := headCli.StatAll()
		if err != nil {
			t.Fatalf("head %d listing: %v", i, err)
		}
		got := map[pbs.JobID]bool{}
		for _, j := range jobs {
			got[j.ID] = true
			if j.State != pbs.StateHeld {
				t.Errorf("head %d: job %s state %s, want held", i, j.ID, j.State)
			}
		}
		for id := range ids {
			if !got[id] {
				t.Errorf("head %d lost job %s across the outage", i, id)
			}
		}
	}

	// And the recovery actually came from disk, not thin air.
	var recovered bool
	for _, i := range []int{0, 1, 2} {
		st := c.Head(i).Replica().Stats()
		if st.RecoveryReplayed > 0 || st.CheckpointIndex > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Error("no head reports log replay or a checkpoint; recovery did not use the durable state")
	}

	// The recovered cluster still takes new work.
	if _, err := cli2.Submit(pbs.SubmitRequest{Name: "post-outage", Hold: true}); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
}

// TestRejoinDeltaSmallerThanFullTransfer pins the re-layered state
// transfer's point: a restarted head that recovered locally receives
// only the log suffix it missed, measurably smaller than the full
// snapshot a fresh joiner needs.
func TestRejoinDeltaSmallerThanFullTransfer(t *testing.T) {
	c := newCluster(t, durableOptions(t, 2, 1))
	cli, err := c.ClientFor(0)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the replicated state so a full snapshot dwarfs a
	// few-command delta.
	script := strings.Repeat("x", 2048)
	for i := 0; i < 20; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("bulk%d", i), Script: script, Hold: true}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// A fresh head joins with no data directory history: full transfer.
	if err := c.AddHead(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "fresh joiner receives its state transfer", func() bool {
		h := c.Head(2)
		if h == nil || len(h.View().Members) != 3 {
			return false
		}
		// The view lands at the group layer first; wait until the
		// replica actually processed the transfer.
		st := h.Replica().Stats()
		return st.TransferInFull+st.TransferInDelta > 0
	})
	full := c.Head(2).Replica().Stats()
	if full.TransferInFull != 1 || full.TransferInDelta != 0 {
		t.Fatalf("fresh joiner transfer stats = %+v, want one full transfer", full)
	}

	// Head 1 lags: it crashes, the group moves on a little, and it
	// restarts in place from its data directory.
	c.CrashHead(1)
	waitFor(t, 15*time.Second, "survivors exclude the crashed head", func() bool {
		return len(c.Head(0).View().Members) == 2
	})
	for i := 0; i < 3; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("late%d", i), Hold: true}); err != nil {
			t.Fatalf("late submit %d: %v", i, err)
		}
	}
	if err := c.RestartHeads(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "restarted head rejoins and catches up", func() bool {
		h := c.Head(1)
		if h == nil || len(h.View().Members) != 3 {
			return false
		}
		st := h.Replica().Stats()
		return st.TransferInFull+st.TransferInDelta > 0
	})

	delta := c.Head(1).Replica().Stats()
	if delta.TransferInDelta != 1 || delta.TransferInFull != 0 {
		t.Fatalf("rejoiner transfer stats = %+v, want one delta transfer", delta)
	}
	if delta.RecoveryReplayed == 0 {
		t.Error("rejoiner reports no local replay; it did not recover from disk first")
	}
	if delta.TransferInBytes >= full.TransferInBytes {
		t.Errorf("delta transfer %d bytes >= full transfer %d bytes; the suffix delta saved nothing",
			delta.TransferInBytes, full.TransferInBytes)
	}
}

// TestRecoveryAfterTornCheckpointTmp is the crash-during-checkpoint
// scenario: a head dies while the background checkpointer is mid-write,
// leaving a torn temporary checkpoint file. On restart the torn file
// must be discarded, recovery must fall back to the previous durable
// checkpoint (replaying the longer WAL suffix), and exactly-once
// semantics must hold across the crash.
func TestRecoveryAfterTornCheckpointTmp(t *testing.T) {
	c := newCluster(t, durableOptions(t, 2, 1))
	cli, err := c.ClientFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Submit past the default checkpoint cadence of 1,024 applied
	// commands, from concurrent senders to keep the test short.
	const senders, perSender = 8, 130
	var (
		mu   sync.Mutex
		ids  = map[pbs.JobID]bool{}
		wg   sync.WaitGroup
		errs = make(chan error, senders)
	)
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("job%d-%d", k, i), Hold: true})
				if err != nil {
					errs <- fmt.Errorf("submit %d-%d: %v", k, i, err)
					return
				}
				mu.Lock()
				ids[j.ID] = true
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Wait until head 1's background checkpointer has committed a
	// durable generation and gone idle.
	waitFor(t, 15*time.Second, "head 1 background checkpoint durable", func() bool {
		st := c.Head(1).Replica().Stats()
		return st.CheckpointIndex > 0 && !st.CkptInflight
	})
	pre := c.Head(1).Replica().Stats()

	c.CrashHead(1)
	waitFor(t, 15*time.Second, "survivor excludes the crashed head", func() bool {
		return len(c.Head(0).View().Members) == 1
	})

	// Plant the torn mid-write temp file the crash would have left: a
	// valid magic+version prefix followed by garbage, at an index past
	// the durable generation.
	dir := c.headDataDir(0, 1)
	torn := filepath.Join(dir, fmt.Sprintf("ckpt-%020d.ckpt.tmp", pre.AppliedIndex+1))
	if err := os.WriteFile(torn, []byte("JCKP\x02\x00torn-mid-write-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := c.RestartHeads(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "restarted head rejoins", func() bool {
		h := c.Head(1)
		return h != nil && len(h.View().Members) == 2
	})

	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn checkpoint temp file survived restart (err=%v)", err)
	}

	st := c.Head(1).Replica().Stats()
	if st.CheckpointIndex != pre.CheckpointIndex {
		t.Errorf("recovered from checkpoint %d, want fallback to previous durable %d", st.CheckpointIndex, pre.CheckpointIndex)
	}
	if want := pre.AppliedIndex - pre.CheckpointIndex; st.RecoveryReplayed != want {
		t.Errorf("replayed %d records, want the full post-checkpoint suffix %d", st.RecoveryReplayed, want)
	}

	// Exactly-once across the crash: every job is present exactly once
	// on the restarted head.
	headCli, err := c.ClientFor(1)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := headCli.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(ids) {
		t.Errorf("restarted head lists %d jobs, want %d", len(jobs), len(ids))
	}
	seen := map[pbs.JobID]bool{}
	for _, j := range jobs {
		if seen[j.ID] {
			t.Errorf("job %s listed twice after recovery", j.ID)
		}
		seen[j.ID] = true
	}
}
