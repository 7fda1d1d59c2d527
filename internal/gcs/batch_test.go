package gcs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/simnet"
)

// TestBatchedBurstTotalOrder drives a concurrent burst through the
// group and checks that coalescing is
// actually happening — BATCH frames sent, acks merged — without
// costing total order or per-sender FIFO.
func TestBatchedBurstTotalOrder(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	const perSender = 40
	var wg sync.WaitGroup
	for i, o := range obs {
		wg.Add(1)
		go func(i int, o *observer) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				if err := o.p.Broadcast([]byte(fmt.Sprintf("m%d-%d", i, k))); err != nil {
					t.Errorf("broadcast: %v", err)
					return
				}
			}
		}(i, o)
	}
	wg.Wait()

	total := perSender * len(obs)
	waitFor(t, 10*time.Second, "all safe deliveries", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != total {
				return false
			}
		}
		return true
	})

	ref := obs[0].deliveredPayloads()
	for i, o := range obs[1:] {
		got := o.deliveredPayloads()
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("member %d delivery %d = %q, member 0 has %q (total order violated)", i+1, k, got[k], ref[k])
			}
		}
	}
	for s := 0; s < len(obs); s++ {
		last := -1
		for _, pay := range ref {
			var snd, k int
			fmt.Sscanf(pay, "m%d-%d", &snd, &k)
			if snd == s {
				if k != last+1 {
					t.Fatalf("sender %d FIFO violated: %d after %d", s, k, last)
				}
				last = k
			}
		}
		if last != perSender-1 {
			t.Fatalf("sender %d: delivered %d of %d", s, last+1, perSender)
		}
	}

	// The burst must actually have exercised the coalescing paths: the
	// sequencer (m0, lowest ID) emitted BATCH frames, and at least one
	// process merged acknowledgments.
	if st := obs[0].p.Stats(); st.BatchesSent == 0 {
		t.Errorf("sequencer sent no batches under a concurrent burst: %+v", st)
	}
	var coalesced uint64
	for _, o := range obs {
		coalesced += o.p.Stats().AcksCoalesced
	}
	if coalesced == 0 {
		t.Error("no acks were coalesced under a concurrent safe-delivery burst")
	}
}

// TestBatchStraddlesViewChange crashes the sequencer in the middle of
// a batched burst: BATCH frames in flight are cut by the flush, the
// survivors reconcile, and every survivor-sent message is delivered
// exactly once in the same order at both survivors (no loss from
// discarded REQBATCHes, no duplication from batch retransmission).
func TestBatchStraddlesViewChange(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	stop := make(chan struct{})
	sent := make([]int, 3)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 0
			for {
				select {
				case <-stop:
					sent[i] = k
					return
				default:
				}
				obs[i].p.Broadcast([]byte(fmt.Sprintf("s%d-%d", i, k)))
				k++
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	net.CrashHost("host0") // kill the sequencer mid-burst
	obs[0].p.Close()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	waitFor(t, 15*time.Second, "survivors install new view", func() bool {
		for _, i := range []int{1, 2} {
			if v, ok := obs[i].lastView(); !ok || v.ID < 2 || len(v.Members) != 2 {
				return false
			}
		}
		return true
	})
	// Every message the survivors broadcast must come back, exactly
	// once: batches straddling the view change are reconciled by the
	// flush, and pending REQ/REQBATCH payloads are retransmitted in
	// the new view.
	expect := sent[1] + sent[2]
	waitFor(t, 15*time.Second, "survivor messages recovered", func() bool {
		return len(obs[1].deliveredPayloads()) >= expect &&
			len(obs[2].deliveredPayloads()) >= expect
	})
	for _, i := range []int{1, 2} {
		got := obs[i].deliveredPayloads()
		seen := make(map[string]bool, len(got))
		for _, pay := range got {
			if seen[pay] {
				t.Fatalf("member %d delivered %q twice (batch retransmission duplicated)", i, pay)
			}
			seen[pay] = true
		}
		if len(got) != expect {
			t.Fatalf("member %d delivered %d messages, survivors sent %d", i, len(got), expect)
		}
	}
	p1, p2 := obs[1].deliveredPayloads(), obs[2].deliveredPayloads()
	for k := range p1 {
		if p1[k] != p2[k] {
			t.Fatalf("survivors diverge at delivery %d: %q vs %q", k, p1[k], p2[k])
		}
	}
}
