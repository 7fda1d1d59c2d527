package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// The Epoch every reply carries is the batch server's mutation count,
// which a client compares across heads as a monotonic-read floor. It is
// replicated state: the pbs snapshot carries it, so a head that
// restored from a checkpoint or a state transfer reports the same
// version as one that applied every command.

// versions returns every live head's batch-server version.
func versions(c *Cluster) map[int]uint64 {
	v := make(map[int]uint64)
	for _, i := range c.LiveHeads() {
		v[i] = c.Head(i).Daemon().Server().Version()
	}
	return v
}

// versionsEqual reports whether every live head is at the same version.
func versionsEqual(c *Cluster) bool {
	var first uint64
	for n, i := range c.LiveHeads() {
		v := c.Head(i).Daemon().Server().Version()
		if n == 0 {
			first = v
		} else if v != first {
			return false
		}
	}
	return true
}

// tapEndpoint records a copy of every datagram it receives before the
// client reads it.
type tapEndpoint struct {
	transport.Endpoint
	recv chan transport.Message
	mu   sync.Mutex
	got  []transport.Message
}

func newTapEndpoint(inner transport.Endpoint) *tapEndpoint {
	e := &tapEndpoint{Endpoint: inner, recv: make(chan transport.Message, 64)}
	go func() {
		defer close(e.recv)
		for m := range inner.Recv() {
			e.mu.Lock()
			e.got = append(e.got, transport.Message{From: m.From, Payload: bytes.Clone(m.Payload)})
			e.mu.Unlock()
			e.recv <- m
		}
	}()
	return e
}

func (e *tapEndpoint) Recv() <-chan transport.Message { return e.recv }

func (e *tapEndpoint) received() []transport.Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]transport.Message(nil), e.got...)
}

// TestEpochEqualAcrossRestart: two durable heads take 1,100 held
// submits, head 1 crashes and restarts past a checkpoint, and after one
// more submit both heads report the same version; the reply the origin
// (head 1) sends and the copy the sequencer (head 0) sends for that
// request are the same bytes.
func TestEpochEqualAcrossRestart(t *testing.T) {
	c := newCluster(t, durableOptions(t, 2, 1))
	cli, err := c.ClientFor(0)
	if err != nil {
		t.Fatal(err)
	}
	const held = 1100 // past the first checkpoint (CheckpointEvery 1,024)
	for i := 0; i < held; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("h%d", i), Hold: true}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "both heads hold every job", func() bool {
		return len(c.Head(1).Daemon().StatusAll()) == held
	})

	c.CrashHead(1)
	waitFor(t, 10*time.Second, "head 0 alone", func() bool { return len(c.Head(0).View().Members) == 1 })
	if err := c.RestartHeads(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "head 1 rejoins", func() bool {
		h := c.Head(1)
		return h != nil && len(h.View().Members) == 2 && len(h.Daemon().StatusAll()) == held
	})
	if st := c.Head(1).Replica().Stats(); st.RecoveryReplayed >= held {
		t.Fatalf("head 1 replayed %d commands: it did not restore from a checkpoint", st.RecoveryReplayed)
	}

	// One more submit, intercepted by head 1 (not the sequencer): the
	// origin and the sequencer both reply.
	ep, err := c.Net.Endpoint("epoch/cli")
	if err != nil {
		t.Fatal(err)
	}
	tap := newTapEndpoint(ep)
	one, err := joshua.NewClient(joshua.ClientConfig{
		Endpoint:    tap,
		Heads:       []transport.Addr{HeadClientAddr(1), HeadClientAddr(0)},
		RedeemAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if _, err := one.Submit(pbs.SubmitRequest{Name: "after", Hold: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "equal versions", func() bool {
		return len(c.Head(1).Daemon().StatusAll()) == held+1 && versionsEqual(c)
	})
	waitFor(t, 5*time.Second, "the origin's reply and the sequencer's copy", func() bool {
		from := map[transport.Addr]bool{}
		for _, m := range tap.received() {
			from[m.From] = true
		}
		return from[HeadClientAddr(0)] && from[HeadClientAddr(1)]
	})
	got := tap.received()
	for _, m := range got[1:] {
		if !bytes.Equal(m.Payload, got[0].Payload) {
			t.Fatalf("replies differ: %s sent %q, %s sent %q", got[0].From, got[0].Payload, m.From, m.Payload)
		}
	}
	if v := versions(c); v[0] != held+1 {
		t.Errorf("versions %v, want %d on both heads", v, held+1)
	}
}

// TestEpochEqualUnderLifecycleLoad: submits, holds, releases, deletes
// and completions all move the version, and every head agrees on it
// throughout, including a head that joined by state transfer.
func TestEpochEqualUnderLifecycleLoad(t *testing.T) {
	c := newCluster(t, testOptions(3, 4))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	round := func(r int) {
		t.Helper()
		var ids []pbs.JobID
		for i := 0; i < 8; i++ {
			j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("r%d-%d", r, i), WallTime: 5 * time.Millisecond, Hold: i%2 == 1})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			ids = append(ids, j.ID)
		}
		// Odd jobs are held: release half of them to run, delete the
		// others. Even jobs run and complete.
		for i := 1; i < len(ids); i += 2 {
			op, verb := cli.Release, "release"
			if i%4 == 3 {
				op, verb = cli.Delete, "delete"
			}
			if _, err := op(ids[i]); err != nil {
				t.Fatalf("%s %s: %v", verb, ids[i], err)
			}
		}
		// Refused once the job runs; a refusal is ordered all the same.
		cli.Hold(ids[0])
	}
	settled := func(what string) {
		t.Helper()
		waitFor(t, 15*time.Second, what, func() bool {
			for _, i := range c.LiveHeads() {
				for _, j := range c.Head(i).Daemon().StatusAll() {
					if j.State == pbs.StateQueued || j.State == pbs.StateRunning {
						return false
					}
				}
			}
			ok, _ := headsConsistent(c)
			return ok && versionsEqual(c)
		})
	}
	for r := 0; r < 3; r++ {
		round(r)
	}
	settled("completions on every head")
	if err := c.AddHead(3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "head 3 joins", func() bool {
		h := c.Head(3)
		return h != nil && len(h.View().Members) == 4 && h.Replica().Stats().TransferInFull > 0
	})
	for r := 3; r < 6; r++ {
		round(r)
	}
	settled("completions on every head, the joiner too")
	if v := versions(c); v[0] == 0 {
		t.Errorf("versions %v: nothing counted", v)
	}
}
