package gcs

import (
	"fmt"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

func TestSafeDeliveryTotalOrder(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	const perSender = 15
	for i, o := range obs {
		go func(i int, o *observer) {
			for k := 0; k < perSender; k++ {
				o.p.Broadcast([]byte(fmt.Sprintf("m%d-%d", i, k)))
			}
		}(i, o)
	}
	total := perSender * len(obs)
	waitFor(t, 15*time.Second, "all safe deliveries", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != total {
				return false
			}
		}
		return true
	})
	ref := obs[0].deliveredPayloads()
	for _, o := range obs[1:] {
		got := o.deliveredPayloads()
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("safe total order violated at %d: %q vs %q", k, got[k], ref[k])
			}
		}
	}
}

func TestSafeDeliveryWithLoss(t *testing.T) {
	// Lost acks must be recovered by the heartbeat-carried ack, not
	// stall delivery forever. All-to-all acks are (n-1)² frames a
	// round, so the 4-member group loses more of them.
	for _, n := range []int{3, 4} {
		n := n
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			net := simnet.New(simnet.Config{
				Latency:  simnet.Latency{Remote: time.Millisecond},
				DropRate: 0.1,
				Seed:     11,
			})
			defer net.Close()
			obs := group(t, net, n, nil)

			for k := 0; k < 10; k++ {
				obs[k%n].p.Broadcast([]byte(fmt.Sprintf("m%d", k)))
			}
			waitFor(t, 20*time.Second, "safe deliveries despite loss", func() bool {
				for _, o := range obs {
					if len(o.deliveredPayloads()) != 10 {
						return false
					}
				}
				return true
			})
		})
	}
}

// ackDropper loses every standalone ACK frame between two non-
// sequencer members (m0, on host0, is the sequencer).
type ackDropper struct{ transport.Endpoint }

func (e ackDropper) Send(to transport.Addr, payload []byte) error {
	if len(payload) > 0 && payload[0] == kindAck && to != "host0/gcs" {
		return nil
	}
	return e.Endpoint.Send(to, payload)
}

func TestLostMemberAcksHealByHeartbeat(t *testing.T) {
	// With every member-to-member ACK lost, the only thing that can
	// complete the safe-delivery condition at m1 and m2 is the
	// cumulative ack each heartbeat repeats. Request retransmission is
	// pushed out of the picture so it cannot be what heals.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	const resend = 5 * time.Second
	obs := group(t, net, 3, func(i int, c *Config) {
		c.ResendInterval = resend
		c.Endpoint = ackDropper{c.Endpoint}
	})

	start := time.Now()
	obs[1].p.Broadcast([]byte("one"))
	waitFor(t, resend, "delivery via heartbeat-carried acks", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != 1 {
				return false
			}
		}
		return true
	})
	// Two heartbeats (10 ms each here) is the design figure; the bound
	// asserted is only that no slower mechanism was needed.
	t.Logf("healed in %v", time.Since(start))
}

func TestSafeDeliverySurvivesFailure(t *testing.T) {
	// A member dying mid-ack-round must not wedge delivery: the view
	// change's agreed final sequence supersedes the ack condition.
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, nil)

	obs[1].p.Broadcast([]byte("before"))
	waitFor(t, 5*time.Second, "initial delivery", func() bool {
		return len(obs[0].deliveredPayloads()) == 1
	})

	net.CrashHost("host2")
	obs[2].p.Close()
	obs[1].p.Broadcast([]byte("during"))

	waitFor(t, 15*time.Second, "delivery resumes after view change", func() bool {
		for _, i := range []int{0, 1} {
			d := obs[i].deliveredPayloads()
			if len(d) != 2 || d[1] != "during" {
				return false
			}
		}
		return true
	})
}
