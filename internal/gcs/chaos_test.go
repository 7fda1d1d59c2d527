package gcs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/simnet"
)

// TestChaosInvariants drives a group through seeded random schedules
// of broadcasts, message loss, jitter, and crashes, then checks the
// extended-virtual-synchrony safety properties:
//
//  1. survivors deliver identical sequences (total order);
//  2. no member ever delivers a duplicate;
//  3. a crashed member's delivery stream is a prefix of the
//     survivors' (nothing it acted on is lost: safe delivery);
//  4. every message sent by a surviving member is delivered at every
//     survivor (liveness after quiescence).
func TestChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos schedules")
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed, 4)
		})
	}
	// A 3-member view has exactly one other non-sequencer member to
	// wait for; 4 members exercise the all-to-all minimum.
	for seed := int64(9); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("members=3/seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed, 3)
		})
	}
}

func runChaos(t *testing.T, seed int64, members int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	net := simnet.New(simnet.Config{
		Latency:  simnet.Latency{Remote: time.Millisecond, Jitter: 2 * time.Millisecond},
		DropRate: 0.02,
		Seed:     seed,
	})
	defer net.Close()
	obs := group(t, net, members, func(i int, c *Config) {
		// Race-detector runs slow everything down severely; generous
		// timeouts keep healthy-but-slow members from being excluded.
		c.Heartbeat = 15 * time.Millisecond
		c.FailTimeout = 250 * time.Millisecond
		c.ResendInterval = 60 * time.Millisecond
		c.FlushTimeout = 400 * time.Millisecond
	})

	// Random senders, paced; two random crashes at random times, never
	// killing the last member.
	var mu sync.Mutex
	crashed := map[int]bool{}
	sent := make([]int, members) // per-member successful broadcasts

	crashSchedule := []int{100 + rng.Intn(200), 400 + rng.Intn(300)} // ms
	start := time.Now()
	nextCrash := 0

	for time.Since(start) < 900*time.Millisecond {
		mu.Lock()
		// Crash if the schedule says so.
		if nextCrash < len(crashSchedule) &&
			time.Since(start) > time.Duration(crashSchedule[nextCrash])*time.Millisecond &&
			len(crashed) < members-1 {
			victim := rng.Intn(members)
			for crashed[victim] {
				victim = (victim + 1) % members
			}
			crashed[victim] = true
			net.CrashHost(fmt.Sprintf("host%d", victim))
			obs[victim].p.Close()
			nextCrash++
		}
		// Random broadcast from a live member.
		sender := rng.Intn(members)
		if !crashed[sender] {
			payload := fmt.Sprintf("s%d-%d", sender, sent[sender])
			if err := obs[sender].p.Broadcast([]byte(payload)); err == nil {
				sent[sender]++
			}
		}
		mu.Unlock()
		time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
	}

	mu.Lock()
	var survivors []int
	for i := 0; i < members; i++ {
		if !crashed[i] {
			survivors = append(survivors, i)
		}
	}
	sentCopy := append([]int(nil), sent...)
	crashedCopy := map[int]bool{}
	for k, v := range crashed {
		crashedCopy[k] = v
	}
	mu.Unlock()

	if len(survivors) == members {
		t.Fatal("chaos schedule crashed nobody; vacuous")
	}

	// Liveness: every message sent by a survivor reaches every
	// survivor.
	waitFor(t, 30*time.Second, "survivor messages all delivered", func() bool {
		for _, i := range survivors {
			got := map[int]int{} // sender -> delivered count
			for _, p := range obs[i].deliveredPayloads() {
				var s, k int
				fmt.Sscanf(p, "s%d-%d", &s, &k)
				got[s]++
			}
			for _, s := range survivors {
				if got[s] < sentCopy[s] {
					return false
				}
			}
		}
		return true
	})
	// Quiescence: no delivery count changes for a beat.
	waitFor(t, 20*time.Second, "quiescence", func() bool {
		before := make([]int, len(survivors))
		for k, i := range survivors {
			before[k] = len(obs[i].deliveredPayloads())
		}
		time.Sleep(100 * time.Millisecond)
		for k, i := range survivors {
			if len(obs[i].deliveredPayloads()) != before[k] {
				return false
			}
		}
		return true
	})

	// Invariant 1+2: identical sequences at survivors, no duplicates.
	ref := obs[survivors[0]].deliveredPayloads()
	dup := map[string]bool{}
	for _, p := range ref {
		if dup[p] {
			t.Fatalf("seed %d: duplicate delivery %q", seed, p)
		}
		dup[p] = true
	}
	for _, i := range survivors[1:] {
		got := obs[i].deliveredPayloads()
		if len(got) != len(ref) {
			t.Fatalf("seed %d: survivor %d delivered %d, survivor %d delivered %d\nref: %s\ngot: %s",
				seed, survivors[0], len(ref), i, len(got),
				strings.Join(ref, ","), strings.Join(got, ","))
		}
		for k := range ref {
			if got[k] != ref[k] {
				t.Fatalf("seed %d: order differs at %d: %q vs %q", seed, k, ref[k], got[k])
			}
		}
	}

	// Invariant 3: crashed members' streams are prefixes of the
	// survivors' stream — nothing a dead head acted on is missing from
	// the group's history.
	for i := range crashedCopy {
		dead := obs[i].deliveredPayloads()
		if len(dead) > len(ref) {
			t.Fatalf("seed %d: crashed member %d delivered more (%d) than survivors (%d)",
				seed, i, len(dead), len(ref))
		}
		for k := range dead {
			if dead[k] != ref[k] {
				t.Fatalf("seed %d: crashed member %d diverged at %d: %q vs %q",
					seed, i, k, dead[k], ref[k])
			}
		}
	}
}
