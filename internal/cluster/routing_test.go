package cluster

import (
	"sync"
	"testing"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// intercepted reads Stats().Intercepted of heads 0..2 (0 for a head
// that is down).
func intercepted(c *Cluster) [3]uint64 {
	var n [3]uint64
	for i := range n {
		if h := c.Head(i); h != nil {
			n[i] = h.Stats().Intercepted
		}
	}
	return n
}

// submitHeld acks n held submissions, one at a time.
func submitHeld(t *testing.T, cli *joshua.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Name: "follow", Hold: true}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

// requireFollows learns for 20 writes, then requires 20 more to reach
// head seq alone: the client sends every write to the sequencer.
func requireFollows(t *testing.T, c *Cluster, cli *joshua.Client, seq int) {
	t.Helper()
	submitHeld(t, cli, 20)
	before := intercepted(c)
	submitHeld(t, cli, 20)
	after := intercepted(c)
	for i := range after {
		want := before[i]
		if i == seq {
			want += 20
		}
		if after[i] != want {
			t.Fatalf("intercepted %v -> %v over 20 writes; want head%d alone to take them", before, after, seq)
		}
	}
}

// TestClientFollowsSequencer starts a client whose head list puts the
// sequencer last. The sequencer's copy of the first reply names it,
// even when it lands after the origin's reply has ended the call, and
// from then on every write goes there directly.
func TestClientFollowsSequencer(t *testing.T) {
	opts := testOptions(3, 1)
	opts.ClientTimeout = 8 * time.Second // hedge at 500 ms: none fire here
	opts.ClientRedeemAfter = -1          // no probes of the client's own
	c := newCluster(t, opts)
	cli, err := c.ClientFor(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	submitHeld(t, cli, 1)
	time.Sleep(50 * time.Millisecond) // the copy may trail the origin's reply
	before := intercepted(c)
	submitHeld(t, cli, 1)
	if after := intercepted(c); after[0] != before[0]+1 {
		t.Fatalf("intercepted %v -> %v: the second write should reach head0", before, after)
	}
	requireFollows(t, c, cli, 0)
}

// TestHedgedWriteSurvivesSequencerCrash crashes the sequencer a client
// follows while writes are in flight. The hedge moves each stranded
// write to the next head long before the attempt timeout, the dedup
// table keeps it exactly-once, the client then follows the new
// sequencer, and it follows head0 again once head0 is back.
func TestHedgedWriteSurvivesSequencerCrash(t *testing.T) {
	const attempt = time.Second
	opts := durableOptions(t, 3, 1)
	opts.ClientTimeout = attempt
	opts.ClientRedeemAfter = -1
	c := newCluster(t, opts)
	cli, err := c.ClientFor(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireFollows(t, c, cli, 0)
	acks := 40

	var (
		mu      sync.Mutex
		slowest time.Duration
		failed  error
		wg      sync.WaitGroup
	)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				_, err := cli.Submit(pbs.SubmitRequest{Name: "inflight", Hold: true})
				d := time.Since(t0)
				mu.Lock()
				if err != nil && failed == nil {
					failed = err
				}
				if err == nil {
					acks++
				}
				if d > slowest {
					slowest = d
				}
				mu.Unlock()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	c.CrashHead(0)
	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failed != nil {
		t.Fatalf("write failed across the crash: %v", failed)
	}
	t.Logf("%d writes acked, slowest %v", acks, slowest)
	if slowest >= attempt {
		t.Fatalf("slowest write %v; the hedge should beat the %v attempt timeout", slowest, attempt)
	}

	waitFor(t, 10*time.Second, "survivors in a 2-member view", func() bool {
		v := c.Head(1).View()
		return len(v.Members) == 2 && v.Primary
	})
	for _, i := range []int{1, 2} {
		if waiting, _, _ := c.Head(i).Daemon().Server().QueueLengths(); waiting != acks {
			t.Fatalf("head%d queues %d jobs for %d acked writes", i, waiting, acks)
		}
	}
	requireFollows(t, c, cli, 1)

	if err := c.RestartHeads(0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "head0 back in a 3-member view", func() bool {
		for i := 0; i < 3; i++ {
			if h := c.Head(i); h == nil || len(h.View().Members) != 3 {
				return false
			}
		}
		return true
	})
	// The view forms before head0 has caught up: it replies, and so can
	// be followed, only once it applies the writes it sequences. Until
	// then every write still goes to head1, so the measured window
	// starts only after a write has reached head0.
	waitFor(t, 15*time.Second, "the client following head0", func() bool {
		before := intercepted(c)
		submitHeld(t, cli, 1)
		return intercepted(c)[0] > before[0]
	})
	requireFollows(t, c, cli, 0)
}

// TestReusedClientAddressNotDeduplicated: a client that takes over an
// earlier client's address, as a command whose process ID repeats
// does, mints request IDs of its own. Its first submission is a new
// job, not the earlier client's first one answered again from the
// heads' dedup table.
func TestReusedClientAddressNotDeduplicated(t *testing.T) {
	c := newCluster(t, testOptions(1, 1))
	for _, name := range []string{"first", "second"} {
		ep, err := c.Net.Endpoint("login/cli")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := joshua.NewClient(joshua.ClientConfig{
			Endpoint:    ep,
			Heads:       []transport.Addr{HeadClientAddr(0)},
			RedeemAfter: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		j, err := cli.Submit(pbs.SubmitRequest{Name: name, Hold: true})
		cli.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.Name != name {
			t.Fatalf("the %s client's submission returned job %s named %q", name, j.ID, j.Name)
		}
	}
	if jobs := c.Head(0).Daemon().StatusAll(); len(jobs) != 2 {
		t.Fatalf("head holds %d jobs, want 2", len(jobs))
	}
}
