package rsm_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
)

// waitCheckpoint polls until replica i has a durable checkpoint and no
// background write in flight. The off-loop checkpointer commits
// asynchronously after the cadence trips, so tests must wait rather
// than assert immediately after the triggering command.
func (r *kvRig) waitCheckpoint(i int, timeout time.Duration) rsm.Stats {
	r.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := r.reps[i].Stats()
		if st.CheckpointIndex > 0 && !st.CkptInflight {
			return st
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("replica %d never checkpointed: %+v", i, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOffLoopCheckpointRestart pins the forked checkpoint path end to
// end: the cadence trips a background capture+serialize+fsync whose
// durable result a restart recovers from, replaying only the
// post-checkpoint suffix.
func TestOffLoopCheckpointRestart(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) { c.CheckpointEvery = 4 })
	r := newKVRig(t, 1, durable)

	const n = 10
	for i := 0; i < n; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
	}
	st := r.waitCheckpoint(0, 5*time.Second)
	if st.CheckpointFailures != 0 {
		t.Fatalf("background checkpoint failed %d times: %+v", st.CheckpointFailures, st)
	}
	if st.CkptBytes == 0 || st.CkptLastDurationNs == 0 {
		t.Errorf("off-loop checkpoint stats not recorded: bytes=%d duration=%d", st.CkptBytes, st.CkptLastDurationNs)
	}

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)

	for i := 0; i < n; i++ {
		if got, _ := r.stores[0].Get(fmt.Sprintf("k%d", i)); got != "v" {
			t.Fatalf("recovered k%d = %q, want v", i, got)
		}
	}
	rst := r.reps[0].Stats()
	if rst.AppliedIndex != n {
		t.Fatalf("recovered applied index = %d, want %d", rst.AppliedIndex, n)
	}
	if rst.RecoveryReplayed >= n {
		t.Errorf("replayed %d of %d; the background checkpoint did not cut replay", rst.RecoveryReplayed, n)
	}
	if rst.RecoveryReplayed != rst.AppliedIndex-rst.CheckpointIndex {
		t.Errorf("replayed %d, want applied-checkpoint = %d", rst.RecoveryReplayed, rst.AppliedIndex-rst.CheckpointIndex)
	}
}

// TestCheckpointFailureBacksOffAndRetries pins the checkpoint path's
// failure handling: a directory squatting on the first checkpoint's
// temp path makes SaveCheckpointFrom fail (EISDIR, even as root) and
// its cleanup removes the directory. The engine counts exactly one
// failure, retries once the backoff has passed, and a restart recovers
// from the retried checkpoint, replaying only the suffix after it.
func TestCheckpointFailureBacksOffAndRetries(t *testing.T) {
	base := t.TempDir()
	durable := durableIn(base, func(c *rsm.Config) { c.CheckpointEvery = 4 })
	r := newKVRig(t, 1, durable)

	// wal.Open deletes leftover temp files, so the trap goes in after
	// Start and before the cadence first trips, at applied index 4.
	trap := filepath.Join(base, string(repMember(0)), fmt.Sprintf("ckpt-%020d.ckpt.tmp", 4))
	if err := os.Mkdir(trap, 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 10
	put := func(i int) {
		t.Helper()
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
	}
	for i := 0; i < 4; i++ {
		put(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.reps[0].Stats().CheckpointFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint over a squatted temp path never failed: %+v", r.reps[0].Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.reps[0].Stats(); st.CheckpointIndex != 0 {
		t.Fatalf("failed checkpoint left CheckpointIndex = %d", st.CheckpointIndex)
	}
	if _, err := os.Stat(trap); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint's cleanup left %s behind (stat: %v)", trap, err)
	}

	// Past the first backoff step (100 ms) the owed checkpoint is
	// retried at the next round.
	time.Sleep(150 * time.Millisecond)
	for i := 4; i < n; i++ {
		put(i)
	}
	st := r.waitCheckpoint(0, 5*time.Second)
	if st.CheckpointFailures != 1 {
		t.Errorf("CheckpointFailures = %d, want 1", st.CheckpointFailures)
	}
	if st.CheckpointIndex <= 4 {
		t.Errorf("CheckpointIndex = %d, want the retry after index 4", st.CheckpointIndex)
	}

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)
	for i := 0; i < n; i++ {
		if got, _ := r.stores[0].Get(fmt.Sprintf("k%d", i)); got != "v" {
			t.Fatalf("recovered k%d = %q, want v", i, got)
		}
	}
	rst := r.reps[0].Stats()
	if rst.AppliedIndex != n || rst.CheckpointIndex == 0 {
		t.Fatalf("recovered applied %d from checkpoint %d, want %d from a checkpoint", rst.AppliedIndex, rst.CheckpointIndex, n)
	}
	if rst.RecoveryReplayed != rst.AppliedIndex-rst.CheckpointIndex {
		t.Errorf("replayed %d, want applied-checkpoint = %d", rst.RecoveryReplayed, rst.AppliedIndex-rst.CheckpointIndex)
	}
}

// TestJoinUsesHybridTransfer pins the checkpoint-plus-suffix transfer:
// a fresh joiner advertises no applied index, so it cannot be served a
// log suffix alone; it receives the donor's newest durable checkpoint
// file as its base plus the WAL suffix after it, and replays the
// suffix through the normal apply path.
func TestJoinUsesHybridTransfer(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) { c.CheckpointEvery = 4 })
	r := newKVRig(t, 2, durable)

	want := map[string]string{}
	put := func(i int) {
		t.Helper()
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
		want[req.Key] = "v"
	}
	for i := 0; i < 10; i++ {
		put(i)
	}
	r.waitConverged(want, 5*time.Second)
	r.waitCheckpoint(0, 5*time.Second)
	r.waitCheckpoint(1, 5*time.Second)
	// One more command after the newest checkpoint, so the suffix
	// behind it is never empty (a base alone counts as full).
	put(10)
	r.waitConverged(want, 5*time.Second)

	r.join(2, durable)
	r.waitConverged(want, 10*time.Second)

	jst := r.reps[2].Stats()
	if jst.TransferInHybrid != 1 || jst.TransferInFull != 0 || jst.TransferInDelta != 0 {
		t.Errorf("joiner transfer stats = %+v, want exactly one hybrid transfer", jst)
	}
	if jst.TransferReplayed == 0 {
		t.Errorf("joiner replayed no suffix records: %+v", jst)
	}
	var outHybrid uint64
	for i := 0; i < 2; i++ {
		outHybrid += r.reps[i].Stats().TransferOutHybrid
	}
	if outHybrid != 1 {
		t.Errorf("donors served %d hybrid transfers, want 1", outHybrid)
	}

	// The joiner installed the checkpoint as its own durable base: a
	// crash and restart recovers locally without replaying the full
	// history.
	r.crash(2)
	r.restart(2, nil, durable)
	r.waitConverged(want, 10*time.Second)
	if rst := r.reps[2].Stats(); rst.RecoveryReplayed >= 11 {
		t.Errorf("joiner replayed %d records after restart; the transferred checkpoint was not installed", rst.RecoveryReplayed)
	}
}

// TestFrequentRestartsRecoverFromCheckpoint pins that the checkpoint
// cadence counts the commands a restart recovered from the log: a
// replica restarted every 40 commands, more often than its
// CheckpointEvery of 64, still checkpoints, so each restart replays at
// most one cadence plus one cycle of records instead of its whole
// history, and the log segments the checkpoints cover are deleted.
// It ends in the state of a peer that never restarted.
func TestFrequentRestartsRecoverFromCheckpoint(t *testing.T) {
	const (
		every    = 64
		cycle    = 40
		restarts = 10
	)
	durable := durableIn(t.TempDir(), func(c *rsm.Config) { c.CheckpointEvery = every })
	r := newKVRig(t, 2, durable)

	// 16 KiB values put 400 records past the log's 4 MiB segment size,
	// so the first segment goes once a checkpoint covers it; four keys
	// keep the state itself small.
	value := strings.Repeat("v", 16<<10)
	applied := uint64(0)
	for k := 1; k <= restarts; k++ {
		for i := 0; i < cycle; i++ {
			req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpPut, Key: fmt.Sprintf("k%d", i%4), Value: value}
			if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
				t.Fatalf("restart %d, put %d: %+v", k, i, resp)
			}
		}
		applied += cycle
		r.waitApplied(applied, 10*time.Second)
		r.waitNoCheckpointInflight(1, 5*time.Second)

		r.crash(1)
		r.restart(1, nil, durable)
		st := r.reps[1].Stats()
		t.Logf("restart %d at applied %d: replayed %d from checkpoint %d", k, st.AppliedIndex, st.RecoveryReplayed, st.CheckpointIndex)
		if st.RecoveryReplayed > every+cycle {
			t.Errorf("restart %d replayed %d records from checkpoint %d, want <= %d", k, st.RecoveryReplayed, st.CheckpointIndex, every+cycle)
		}
	}

	r.waitApplied(applied, 10*time.Second)
	if a, b := r.stores[0].Snapshot(), r.stores[1].Snapshot(); !bytes.Equal(a, b) {
		t.Fatalf("restarted replica diverged from its peer: %v vs %v", r.stores[1].Dump(), r.stores[0].Dump())
	}
	st := r.reps[1].Stats()
	if st.CheckpointIndex == 0 {
		t.Fatalf("restarted replica never checkpointed: %+v", st)
	}
	if st.WALSegments != 1 {
		t.Errorf("restarted replica keeps %d log segments at checkpoint %d, want the covered ones pruned", st.WALSegments, st.CheckpointIndex)
	}
}

// waitNoCheckpointInflight polls until replica i has no background
// checkpoint being written, so a crash does not land mid-write.
func (r *kvRig) waitNoCheckpointInflight(i int, timeout time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(timeout)
	for r.reps[i].Stats().CkptInflight {
		if time.Now().After(deadline) {
			r.t.Fatalf("replica %d checkpoint still in flight after %v", i, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
