package rsm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/transport"
)

// TestConcurrentReadsDuringMutations hammers one replica with parallel
// gets while a put stream mutates the same keys through the total
// order. Every read must be answered with either an absent key or some
// value that was actually written; the race detector covers the
// memory-safety half of the claim.
func TestConcurrentReadsDuringMutations(t *testing.T) {
	r := newKVRig(t, 2, nil)

	const writes, readers, readsEach = 40, 4, 25
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w < writes; w++ {
			put := &kvstore.Request{
				ReqID: fmt.Sprintf("user/kv#w%d", w),
				Op:    kvstore.OpPut,
				Key:   "hot",
				Value: fmt.Sprintf("v%d", w),
			}
			if resp, _ := r.call(0, put, 5*time.Second); !resp.OK {
				t.Errorf("put %d: %+v", w, resp)
				return
			}
		}
	}()

	// Each reader has its own endpoint so replies don't interleave on
	// the shared rig channel.
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		ep, err := r.net.Endpoint(transport.Addr(fmt.Sprintf("user/reader%d", g)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < readsEach; k++ {
				reqID := fmt.Sprintf("user/reader%d#%d", g, k)
				get := &kvstore.Request{ReqID: reqID, Op: kvstore.OpGet, Key: "hot"}
				if err := ep.Send(repClientAddr(1), kvstore.EncodeRequest(get)); err != nil {
					t.Errorf("reader %d send: %v", g, err)
					return
				}
				deadline := time.After(5 * time.Second)
				for {
					select {
					case dg := <-ep.Recv():
						resp, err := kvstore.DecodeResponse(dg.Payload)
						if err != nil || resp.ReqID != reqID {
							continue
						}
						if resp.Found && (len(resp.Value) < 2 || resp.Value[0] != 'v') {
							t.Errorf("reader %d got value %q, never written", g, resp.Value)
						}
					case <-deadline:
						t.Errorf("reader %d: no reply for %s", g, reqID)
					}
					break
				}
			}
		}(g)
	}
	wg.Wait()
	<-done

	st := r.reps[1].Stats()
	if st.ReadWorkers < 1 {
		t.Errorf("ReadWorkers = %d, want a pool by default", st.ReadWorkers)
	}
	if st.LocalReads < readers*readsEach {
		t.Errorf("LocalReads = %d, want >= %d", st.LocalReads, readers*readsEach)
	}
}

// TestDedupRetryServedOffLoop pins the retry fast path: a client
// resending an already-applied request is answered from the sharded
// dedup table by a read worker, without another trip through the
// total order.
func TestDedupRetryServedOffLoop(t *testing.T) {
	r := newKVRig(t, 2, nil)

	req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: "k", Value: "x"}
	first, _ := r.call(0, req, 5*time.Second)
	if !first.OK || first.Value != "x" {
		t.Fatalf("first execution: %+v", first)
	}

	applied := r.reps[0].Stats().Applied
	retry, _ := r.call(0, req, 5*time.Second)
	if retry.Value != "x" {
		t.Fatalf("retry re-executed or misanswered: %+v (want the recorded response)", retry)
	}
	st := r.reps[0].Stats()
	if st.DedupHits < 1 {
		t.Errorf("DedupHits = %d, want >= 1", st.DedupHits)
	}
	if st.Applied != applied {
		t.Errorf("retry went through the total order (applied %d -> %d)", applied, st.Applied)
	}
}

// TestSameClientReplyOrderUnderParallelApply pins the releaser's reply
// ordering: replies follow the total order even when parallel apply
// finishes a later command first. A long serial run on one key (six
// appends, same conflict key, applied in order) batches with a single
// fast put on another key; the put's execution completes first, but
// its reply must still trail the whole run. One read worker broadcasts
// the outstanding requests in arrival order, so total order equals
// send order here; with more workers two outstanding requests may be
// ordered either way (see rsm.Classifier), which is not what this
// test isolates.
func TestSameClientReplyOrderUnderParallelApply(t *testing.T) {
	r := newKVRig(t, 1, func(c *rsm.Config) {
		c.ApplyConcurrency = 8
		c.ReadConcurrency = 1
	})
	r.stores[0].SetApplyCost(2 * time.Millisecond)

	// Plug the apply stage so the measured commands queue up into one
	// batch behind it.
	for i := 0; i < 2; i++ {
		r.send(0, &kvstore.Request{ReqID: fmt.Sprintf("user/kv#plug%d", i), Op: kvstore.OpAppend, Key: "plug", Value: "p"})
	}

	var want []string
	for i := 0; i < 6; i++ {
		req := &kvstore.Request{ReqID: fmt.Sprintf("user/kv#slow%d", i), Op: kvstore.OpAppend, Key: "A", Value: "x"}
		want = append(want, req.ReqID)
		r.send(0, req)
	}
	fast := &kvstore.Request{ReqID: "user/kv#fast", Op: kvstore.OpPut, Key: "B", Value: "y"}
	want = append(want, fast.ReqID)
	r.send(0, fast)

	interesting := map[string]bool{}
	for _, id := range want {
		interesting[id] = true
	}
	var got []string
	deadline := time.After(10 * time.Second)
	for len(got) < len(want) {
		select {
		case dg := <-r.cli.Recv():
			resp, err := kvstore.DecodeResponse(dg.Payload)
			if err != nil || !interesting[resp.ReqID] {
				continue
			}
			got = append(got, resp.ReqID)
		case <-deadline:
			t.Fatalf("timed out with replies %v", got)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply order diverged from send order at %d:\n got  %v\n want %v", i, got, want)
		}
	}
}

// TestReplyAccountingBalances checks the reply bookkeeping under a
// read burst: every served read is either sent (Replied) or counted as
// a drop (ReplyQueueDrops) — none vanish.
func TestReplyAccountingBalances(t *testing.T) {
	r := newKVRig(t, 1, nil)

	const burst = 64
	for k := 0; k < burst; k++ {
		get := &kvstore.Request{ReqID: fmt.Sprintf("user/kv#b%d", k), Op: kvstore.OpGet, Key: "missing"}
		r.send(0, get)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.reps[0].Stats()
		if st.LocalReads == burst && st.Replied+st.ReplyQueueDrops == burst {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never balanced: LocalReads=%d Replied=%d Drops=%d (want %d total)",
				st.LocalReads, st.Replied, st.ReplyQueueDrops, burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// refusingEP is a client endpoint whose every Send fails, as a send to
// a refused peer does over TCP. Datagrams still arrive through the
// embedded endpoint.
type refusingEP struct{ transport.Endpoint }

func (refusingEP) Send(transport.Addr, []byte) error { return errors.New("refused") }

// TestRefusedReplyCounted checks that a reply the transport refuses is
// counted as a drop, not as sent: every read served over a client
// endpoint whose Send fails adds one ReplyQueueDrops and no Replied.
func TestRefusedReplyCounted(t *testing.T) {
	r := newKVRig(t, 1, func(c *rsm.Config) { c.ClientEndpoint = refusingEP{c.ClientEndpoint} })

	const burst = 16
	for k := 0; k < burst; k++ {
		get := &kvstore.Request{ReqID: fmt.Sprintf("user/kv#r%d", k), Op: kvstore.OpGet, Key: "missing"}
		r.send(0, get)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.reps[0].Stats()
		if st.LocalReads == burst && st.ReplyQueueDrops == burst {
			if st.Replied != 0 {
				t.Fatalf("Replied = %d for %d refused replies, want 0", st.Replied, burst)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("LocalReads=%d Replied=%d Drops=%d, want %d reads all counted as drops",
				st.LocalReads, st.Replied, st.ReplyQueueDrops, burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
