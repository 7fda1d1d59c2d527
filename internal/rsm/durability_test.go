package rsm_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// durableIn gives every replica its own data directory under base, so
// the rig exercises the write-ahead log and recovery paths. SyncAlways
// keeps the tests deterministic (every acknowledged command is on disk
// before the reply goes out).
func durableIn(base string, also func(*rsm.Config)) func(*rsm.Config) {
	return func(c *rsm.Config) {
		c.DataDir = filepath.Join(base, string(c.Self))
		c.SyncPolicy = wal.SyncAlways
		if also != nil {
			also(c)
		}
	}
}

// awaitAddrFree waits until addr can be bound again: the gcs event
// loop releases its endpoint asynchronously after Close, so an
// immediate restart can race the deregistration.
func (r *kvRig) awaitAddrFree(addr transport.Addr) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep, err := r.net.Endpoint(addr)
		if err == nil {
			ep.Close()
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("address %s never freed: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// restart brings a previously crashed replica back on the network and
// starts it again (recovering from its data directory). initial non-nil
// bootstraps a static group; nil joins the running one.
func (r *kvRig) restart(i int, initial []gcs.MemberID, mutate func(*rsm.Config)) {
	r.t.Helper()
	r.net.RestartHost(repHost(i))
	r.awaitAddrFree(repGroupAddr(i))
	r.awaitAddrFree(repClientAddr(i))
	r.start(i, initial, mutate)
	select {
	case <-r.reps[i].Ready():
	case <-time.After(10 * time.Second):
		r.t.Fatalf("restarted replica %d not ready", i)
	}
}

// TestReplicaRecoversLocallyAfterRestart pins the tentpole's recovery
// contract: a replica restarted from its data directory rebuilds the
// service state and the dedup table from checkpoint + log replay, so a
// pre-crash retry is still answered from the table instead of
// re-executing.
func TestReplicaRecoversLocallyAfterRestart(t *testing.T) {
	durable := durableIn(t.TempDir(), nil)
	r := newKVRig(t, 1, durable)

	pre := &kvstore.Request{ReqID: "user/kv#pre-crash", Op: kvstore.OpAppend, Key: "k", Value: "a"}
	if resp, _ := r.call(0, pre, 5*time.Second); resp.Value != "a" {
		t.Fatalf("append: %+v", resp)
	}
	for _, v := range []string{"b", "c"} {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "k", Value: v}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %q: %+v", v, resp)
		}
	}

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)

	if got, _ := r.stores[0].Get("k"); got != "abc" {
		t.Fatalf("recovered k = %q, want abc", got)
	}
	st := r.reps[0].Stats()
	if st.RecoveryReplayed != 3 || st.AppliedIndex != 3 {
		t.Errorf("recovery stats = %+v, want 3 replayed to applied index 3", st)
	}

	// The pre-crash request retried after recovery: a dedup hit
	// answering the recorded response, with no fourth append.
	if resp, _ := r.call(0, pre, 5*time.Second); resp.Value != "a" {
		t.Fatalf("post-recovery retry: %+v, want recorded value a", resp)
	}
	if got, _ := r.stores[0].Get("k"); got != "abc" {
		t.Errorf("k = %q after retry; the retry re-executed", got)
	}
}

// TestCheckpointBoundsRecoveryReplay pins the checkpoint cadence: with
// CheckpointEvery set, restart replays only the log suffix after the
// newest checkpoint, not the whole history.
func TestCheckpointBoundsRecoveryReplay(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) { c.CheckpointEvery = 4 })
	r := newKVRig(t, 1, durable)

	const n = 10
	for i := 0; i < n; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
	}
	// The kvstore forks, so checkpoints commit off-loop: wait for the
	// background write rather than asserting right after the commands.
	r.waitCheckpoint(0, 5*time.Second)

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)

	st := r.reps[0].Stats()
	if st.AppliedIndex != n {
		t.Fatalf("recovered applied index = %d, want %d", st.AppliedIndex, n)
	}
	if st.RecoveryReplayed >= n {
		t.Errorf("replayed %d of %d records; the checkpoint did not cut replay", st.RecoveryReplayed, n)
	}
	if st.RecoveryReplayed != st.AppliedIndex-st.CheckpointIndex {
		t.Errorf("replayed %d, want applied-checkpoint = %d", st.RecoveryReplayed, st.AppliedIndex-st.CheckpointIndex)
	}
}

// TestRejoinAfterRestartUsesDeltaTransfer pins the re-layered state
// transfer: a replica that recovered locally advertises its applied
// index when joining, and the donor serves only the missing log suffix
// instead of a full snapshot.
func TestRejoinAfterRestartUsesDeltaTransfer(t *testing.T) {
	durable := durableIn(t.TempDir(), nil)
	r := newKVRig(t, 2, durable)

	want := map[string]string{}
	for i := 0; i < 4; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
		want[req.Key] = "v"
	}
	r.waitConverged(want, 5*time.Second)

	// Replica 1 goes down; the group keeps moving without it.
	r.crash(1)
	for i := 4; i < 7; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
		want[req.Key] = "v"
	}

	// It restarts from disk and rejoins: local recovery covers the
	// first 4 commands, the delta brings the 3 it missed.
	r.restart(1, nil, durable)
	r.waitConverged(want, 5*time.Second)

	st := r.reps[1].Stats()
	if st.TransferInDelta != 1 || st.TransferInFull != 0 {
		t.Errorf("transfer stats = %+v, want exactly one delta and no full transfer", st)
	}
	if st.TransferReplayed != 3 {
		t.Errorf("delta replayed %d records, want 3", st.TransferReplayed)
	}
	if st.RecoveryReplayed != 4 {
		t.Errorf("local recovery replayed %d records, want 4", st.RecoveryReplayed)
	}
	if donor := r.reps[0].Stats(); donor.TransferOutDelta != 1 {
		t.Errorf("donor stats = %+v, want one delta served", donor)
	}
}

// TestRecoveryReplayEvictsLikeLiveExecution pins dedup eviction across
// a restart: a retry re-executed after its table entry was evicted is
// in the log as a fresh command, so replay must look it up only after
// the inserts before it have evicted what they evicted live — and
// re-execute it again.
func TestRecoveryReplayEvictsLikeLiveExecution(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) {
		c.DedupLimit = 4
		c.CheckpointEvery = 1000
	})
	r := newKVRig(t, 1, durable)

	victim := &kvstore.Request{ReqID: "user/kv#victim", Op: kvstore.OpAppend, Key: "k", Value: "x"}
	if resp, _ := r.call(0, victim, 5*time.Second); resp.Value != "x" {
		t.Fatalf("first execution: %+v", resp)
	}
	for i := 0; i < 4; i++ {
		fill := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("fill%d", i), Value: "f"}
		if resp, _ := r.call(0, fill, 5*time.Second); !resp.OK {
			t.Fatalf("fill %d: %+v", i, resp)
		}
	}
	if resp, _ := r.call(0, victim, 5*time.Second); resp.Value != "xx" {
		t.Fatalf("post-eviction retry: %+v, want value xx", resp)
	}

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)

	if got, _ := r.stores[0].Get("k"); got != "xx" {
		st := r.reps[0].Stats()
		t.Fatalf("recovered k = %q, want xx as live execution left it (applied %d, replayed %d)",
			got, st.AppliedIndex, st.RecoveryReplayed)
	}
}
