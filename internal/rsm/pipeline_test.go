package rsm_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
)

// waitApplied polls until every live replica has applied index n.
func (r *kvRig) waitApplied(n uint64, timeout time.Duration) {
	r.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, rep := range r.reps {
			if rep.Stats().AppliedIndex < n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for i, rep := range r.reps {
				r.t.Logf("replica %d: applied index %d", i, rep.Stats().AppliedIndex)
			}
			r.t.Fatalf("replicas never reached applied index %d", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainReplies discards client replies in the background until the
// returned stop function is called — floods that never await replies
// use it to keep the rig endpoint from backing up.
func (r *kvRig) drainReplies(onReply func(*kvstore.Response)) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case dg := <-r.cli.Recv():
				if onReply != nil {
					if resp, err := kvstore.DecodeResponse(dg.Payload); err == nil {
						onReply(resp)
					}
				}
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); <-finished }
}

// TestParallelApplyDeterministicAcrossReplicas pins the pipeline's
// correctness claim: with apply overlapped against the round's fsync,
// two replicas that deliver the same total order of puts to one shared
// key and order-sensitive appends to others end in byte-identical
// snapshots, each having applied the commands in the order its log
// holds them. Two replicas that cut their rounds alike would agree
// even if both applied each round out of order; the log comparison is
// what catches that. The race detector covers the memory-safety half.
// The name and the conc=1 case date from when apply could also run on
// a worker pool; serial apply, one command at a time, is the only
// path left.
func TestParallelApplyDeterministicAcrossReplicas(t *testing.T) {
	t.Run("conc=1", func(t *testing.T) {
		orders := map[gcs.MemberID]*applyOrder{}
		r := newKVRig(t, 2, durableIn(t.TempDir(), func(c *rsm.Config) {
			o := &applyOrder{Service: c.Service}
			orders[c.Self] = o
			c.Service = o
		}))
		for _, s := range r.stores {
			s.SetApplyCost(200 * time.Microsecond)
		}
		stop := r.drainReplies(nil)
		defer stop()

		// Four senders flood both replicas concurrently, so the commands'
		// arrival order is shuffled relative to the total order the group
		// agrees on. Every fifth command overwrites the empty key and the
		// rest append sender-unique values to a handful of shared keys,
		// which makes any ordering divergence visible in the final state.
		const senders, each = 4, 30
		var wg sync.WaitGroup
		errs := make([]error, senders)
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := 0; j < each; j++ {
					req := &kvstore.Request{
						ReqID: fmt.Sprintf("det/g%d#%d", g, j),
						Op:    kvstore.OpAppend,
						Key:   fmt.Sprintf("s%d", j%3),
						Value: fmt.Sprintf("(%d.%d)", g, j),
					}
					if j%5 == 0 {
						req.Op = kvstore.OpPut
						req.Key = ""
						req.Value = fmt.Sprintf("b%d.%d", g, j)
					}
					if err := r.cli.Send(repClientAddr((g+j)%2), kvstore.EncodeRequest(req)); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("sender %d: %v", g, err)
			}
		}

		r.waitApplied(senders*each, 20*time.Second)
		if a, b := r.stores[0].Snapshot(), r.stores[1].Snapshot(); !bytes.Equal(a, b) {
			t.Fatalf("snapshots diverged:\n replica 0: %v\n replica 1: %v",
				r.stores[0].Dump(), r.stores[1].Dump())
		}
		if st := r.reps[0].Stats(); st.ApplyBarriers != st.Applied {
			t.Errorf("ApplyBarriers = %d, want every applied command (%d)", st.ApplyBarriers, st.Applied)
		}
		for i, rep := range r.reps {
			logged, err := rsm.LogReqIDs(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := orders[repMember(i)].ids(); !slices.Equal(got, logged) {
				t.Errorf("replica %d applied %v, its log holds %v", i, got, logged)
			}
		}
	})
}

// applyOrder wraps a service and records the request IDs it applies,
// in order.
type applyOrder struct {
	rsm.Service
	mu      sync.Mutex
	applied []string
}

func (o *applyOrder) Apply(cmd rsm.Command, reply *codec.Encoder) {
	o.mu.Lock()
	o.applied = append(o.applied, string(cmd.ReqID))
	o.mu.Unlock()
	o.Service.Apply(cmd, reply)
}

func (o *applyOrder) ids() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.applied)
}

// TestCrashMidPipelineLosesNoAckedCommand pins the pipeline's
// durability gate: with fsync overlapped against execution, a replica
// killed mid-flood may lose applied-but-unsynced suffix commands, but
// never one whose reply was released — replies wait for the durability
// watermark. After recovery, retrying the whole flood must leave every
// command applied exactly once.
func TestCrashMidPipelineLosesNoAckedCommand(t *testing.T) {
	durable := durableIn(t.TempDir(), nil)
	r := newKVRig(t, 1, durable)
	r.stores[0].SetApplyCost(200 * time.Microsecond)

	// Phase 1: individually acknowledged commands — these must survive
	// the crash unconditionally.
	acked := []*kvstore.Request{}
	for i := 0; i < 8; i++ {
		req := &kvstore.Request{ReqID: fmt.Sprintf("crash/acked#%d", i), Op: kvstore.OpAppend, Key: fmt.Sprintf("a%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("acked append %d: %+v", i, resp)
		}
		acked = append(acked, req)
	}

	// Phase 2: flood without awaiting, recording which replies did come
	// back, then kill the replica while the pipeline is mid-stream —
	// some commands applied but not yet synced, some not applied.
	var mu sync.Mutex
	got := map[string]bool{}
	stop := r.drainReplies(func(resp *kvstore.Response) {
		mu.Lock()
		got[resp.ReqID] = resp.OK
		mu.Unlock()
	})
	flood := []*kvstore.Request{}
	for i := 0; i < 200; i++ {
		req := &kvstore.Request{ReqID: fmt.Sprintf("crash/flood#%d", i), Op: kvstore.OpAppend, Key: fmt.Sprintf("b%d", i), Value: "v"}
		flood = append(flood, req)
		r.send(0, req)
	}
	// Crash as soon as a few flood replies have been released, so the
	// kill lands mid-stream: some commands acknowledged (and therefore
	// durable), some applied but unsynced, some still queued.
	waitAck := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 5 || time.Now().After(waitAck) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.crash(0)
	stop()

	r.restart(0, []gcs.MemberID{repMember(0)}, durable)

	// Every acknowledged command survived the crash.
	for i, req := range acked {
		if v, ok := r.stores[0].Get(req.Key); !ok || v != "v" {
			t.Fatalf("acked command %d (key %s) lost across crash: %q, %v", i, req.Key, v, ok)
		}
	}
	mu.Lock()
	ackedFlood := 0
	for _, req := range flood {
		if got[req.ReqID] {
			ackedFlood++
			if v, ok := r.stores[0].Get(req.Key); !ok || v != "v" {
				t.Errorf("flood command %s was acknowledged pre-crash but lost: %q, %v", req.ReqID, v, ok)
			}
		}
	}
	mu.Unlock()
	t.Logf("flood: %d of %d acknowledged before crash", ackedFlood, len(flood))

	// Retry everything with the original request IDs: recovered dedup
	// state must answer the survivors from the table and execute only
	// the truly lost suffix — every append lands exactly once.
	for _, req := range append(append([]*kvstore.Request{}, acked...), flood...) {
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("retry %s: %+v", req.ReqID, resp)
		}
	}
	for _, req := range append(append([]*kvstore.Request{}, acked...), flood...) {
		if v, _ := r.stores[0].Get(req.Key); v != "v" {
			t.Errorf("key %s = %q after retries, want exactly-once %q", req.Key, v, "v")
		}
	}
}
