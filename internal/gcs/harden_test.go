package gcs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// This file stresses the view-change machinery: coordinator death
// mid-flush, cascading failures, churn, backpressure, and large
// payloads.

func TestCoordinatorFailsDuringFlush(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 4, nil)

	obs[3].p.Broadcast([]byte("before"))
	waitFor(t, 5*time.Second, "initial delivery", func() bool {
		return len(obs[0].deliveredPayloads()) == 1
	})

	// Kill m1 to trigger a flush coordinated by m0, then kill m0 (the
	// coordinator and sequencer) while that flush runs. m2 must take
	// over and finish the job.
	net.CrashHost("host1")
	obs[1].p.Close()
	time.Sleep(30 * time.Millisecond) // inside the detection/flush window
	net.CrashHost("host0")
	obs[0].p.Close()

	waitFor(t, 20*time.Second, "survivors install 2-member view", func() bool {
		for _, i := range []int{2, 3} {
			v, ok := obs[i].lastView()
			if !ok || len(v.Members) != 2 || !v.Primary {
				return false
			}
		}
		return true
	})
	obs[2].p.Broadcast([]byte("after"))
	waitFor(t, 10*time.Second, "delivery resumes", func() bool {
		for _, i := range []int{2, 3} {
			d := obs[i].deliveredPayloads()
			if len(d) != 2 || d[1] != "after" {
				return false
			}
		}
		return true
	})
}

func TestCascadingFailuresDownToOne(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 5, nil)

	obs[4].p.Broadcast([]byte("m0"))
	waitFor(t, 5*time.Second, "initial delivery", func() bool {
		return len(obs[4].deliveredPayloads()) == 1
	})

	// Kill members one by one, fastest-first (always the current
	// sequencer), until only m4 is left.
	for i := 0; i < 4; i++ {
		net.CrashHost(fmt.Sprintf("host%d", i))
		obs[i].p.Close()
		time.Sleep(50 * time.Millisecond)
	}

	waitFor(t, 30*time.Second, "singleton view at the last survivor", func() bool {
		v, ok := obs[4].lastView()
		return ok && len(v.Members) == 1 && v.Primary
	})
	// The sole survivor still provides the service (it sequences for
	// itself now).
	obs[4].p.Broadcast([]byte("alone"))
	waitFor(t, 10*time.Second, "solo delivery", func() bool {
		d := obs[4].deliveredPayloads()
		return len(d) >= 2 && d[len(d)-1] == "alone"
	})
}

func TestWindowBackpressure(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 2, func(i int, c *Config) {
		c.Window = 4 // tiny send window: Broadcast must block, not fail
	})

	const count = 60
	done := make(chan error, 1)
	go func() {
		for k := 0; k < count; k++ {
			if err := obs[1].p.Broadcast([]byte(fmt.Sprintf("w%d", k))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("broadcast under backpressure: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("broadcasts wedged under backpressure")
	}
	waitFor(t, 20*time.Second, "all delivered in order", func() bool {
		return len(obs[0].deliveredPayloads()) == count
	})
	for k, pay := range obs[0].deliveredPayloads() {
		if pay != fmt.Sprintf("w%d", k) {
			t.Fatalf("order violated at %d: %q", k, pay)
		}
	}
}

func TestLargePayloads(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	big := bytes.Repeat([]byte("0123456789abcdef"), 8192) // 128 KiB
	if err := obs[1].p.Broadcast(big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "large payload delivered everywhere", func() bool {
		for _, o := range obs {
			d := o.deliveredPayloads()
			if len(d) != 1 || len(d[0]) != len(big) {
				return false
			}
		}
		return true
	})
	o := obs[2]
	o.mu.Lock()
	got := o.deliveries[0].Payload
	o.mu.Unlock()
	if !bytes.Equal(got, big) {
		t.Fatal("large payload corrupted in transit")
	}
}

func TestRepeatedLeaveJoinChurn(t *testing.T) {
	// One member repeatedly leaves and rejoins while traffic flows;
	// membership and delivery must stay consistent throughout.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()

	peers := map[MemberID]transport.Addr{
		"m0": "host0/gcs", "m1": "host1/gcs", "m2": "host2/gcs",
	}
	mk := func(self MemberID, host string, initial []MemberID) *observer {
		ep, err := net.Endpoint(transport.Addr(host + "/gcs"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Self: self, Endpoint: ep, Peers: peers, InitialMembers: initial, SafeDelivery: true}
		fastTimings(&cfg)
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := observe(p)
		t.Cleanup(p.Close)
		return o
	}
	initial := []MemberID{"m0", "m1"}
	o0 := mk("m0", "host0", initial)
	o1 := mk("m1", "host1", initial)

	waitFor(t, 10*time.Second, "base group", func() bool {
		v, ok := o0.lastView()
		return ok && len(v.Members) == 2
	})

	sent := 0
	for round := 0; round < 3; round++ {
		// m2 joins.
		o2 := mk("m2", "host2", nil)
		waitFor(t, 15*time.Second, "m2 admitted", func() bool {
			v, ok := o2.lastView()
			return ok && len(v.Members) == 3
		})
		o0.p.Broadcast([]byte(fmt.Sprintf("in-round-%d", round)))
		sent++
		waitFor(t, 10*time.Second, "delivery with m2 present", func() bool {
			d := o2.deliveredPayloads()
			return len(d) >= 1 && d[len(d)-1] == fmt.Sprintf("in-round-%d", round)
		})
		// m2 leaves gracefully; its endpoint frees the address for the
		// next round.
		o2.p.Leave()
		waitFor(t, 15*time.Second, "m2 excluded", func() bool {
			v, ok := o0.lastView()
			return ok && len(v.Members) == 2
		})
	}

	// The stable members saw every message exactly once, same order.
	waitFor(t, 10*time.Second, "stable members caught up", func() bool {
		return len(o0.deliveredPayloads()) == sent && len(o1.deliveredPayloads()) == sent
	})
	d0, d1 := o0.deliveredPayloads(), o1.deliveredPayloads()
	for k := range d0 {
		if d0[k] != d1[k] {
			t.Fatalf("stable members disagree at %d: %q vs %q", k, d0[k], d1[k])
		}
	}
}

func TestStatsCounters(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 2, nil)

	for k := 0; k < 5; k++ {
		obs[1].p.Broadcast([]byte("x"))
	}
	waitFor(t, 10*time.Second, "deliveries", func() bool {
		return len(obs[0].deliveredPayloads()) == 5 && len(obs[1].deliveredPayloads()) == 5
	})

	sender := obs[1].p.Stats()
	if sender.Broadcasts != 5 {
		t.Errorf("sender broadcasts = %d, want 5", sender.Broadcasts)
	}
	if sender.Delivered != 5 {
		t.Errorf("sender delivered = %d, want 5", sender.Delivered)
	}
	if sender.Views == 0 {
		t.Error("sender views = 0")
	}
	seq := obs[0].p.Stats() // m0 is the sequencer
	if seq.Sequenced != 5 {
		t.Errorf("sequencer sequenced = %d, want 5", seq.Sequenced)
	}

	// A failure triggers a flush attempt at the new coordinator.
	net.CrashHost("host0")
	obs[0].p.Close()
	waitFor(t, 15*time.Second, "view change", func() bool {
		v, ok := obs[1].lastView()
		return ok && len(v.Members) == 1
	})
	after := obs[1].p.Stats()
	if after.FlushAttempts == 0 {
		t.Error("survivor coordinated no flush")
	}
	if after.Views < 2 {
		t.Errorf("survivor views = %d, want >= 2", after.Views)
	}
}

func TestStabilityGarbageCollection(t *testing.T) {
	// The retransmission buffer must drain once every member has
	// delivered (stability watermark), or long-running groups leak.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	const count = 300
	for k := 0; k < count; k++ {
		obs[1].p.Broadcast([]byte("gc"))
	}
	waitFor(t, 20*time.Second, "all delivered", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != count {
				return false
			}
		}
		return true
	})
	// Several ack/stability rounds later the buffers must be (nearly)
	// empty at every member, including the sequencer.
	waitFor(t, 10*time.Second, "buffers drained by stability GC", func() bool {
		for _, o := range obs {
			if o.p.Buffered() > 8 {
				return false
			}
		}
		return true
	})
}
