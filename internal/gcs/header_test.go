package gcs

import (
	"slices"
	"sync"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// Frames carry only news: every DATA, BATCH, REQBATCH, ACK and
// HEARTBEAT carries the same header (tail, receipt, delivery, the
// stability watermark and the lease grant), so the sequencer sends no
// frame of its own for stability and a tick heartbeats only the links
// that have been quiet. Each role fills only the header fields its
// receivers read and sends zeros for the rest.

// TestHeaderCarriesWhatEachRoleReads pins what each role puts in a
// header, on the wire: the sequencer its stability watermark and lease
// grant, with zero delivery and receipt, which no member reads; a
// member its delivery and receipt, with zero watermark and grant,
// which only the sequencer's count; and either, while flushing, only
// its tail.
func TestHeaderCarriesWhatEachRoleReads(t *testing.T) {
	members := []MemberID{"a", "b", "c"} // "a" sequences
	type fields struct{ tail, delivered, received, stable uint64 }
	for _, self := range []MemberID{"a", "b"} {
		p, rec := wiredView(self, members)
		for seq := uint64(1); seq <= 5; seq++ {
			receive(p, seq)
		}
		for _, m := range members {
			if m != self {
				ack(p, m, 5)
			}
		}
		if p.nextDeliver != 6 {
			t.Fatalf("%s: delivered up to %d, want 5", self, p.nextDeliver-1)
		}
		p.stable = 3
		want := fields{tail: 5, delivered: 5, received: 5}
		wantLease := time.Duration(0)
		if self == "a" {
			want = fields{tail: 5, stable: 3}
			wantLease = p.leaseGrant()
			if wantLease <= 0 {
				t.Fatal("the sequencer of a primary safe view grants no lease")
			}
		}
		for _, st := range []status{statusNormal, statusFlushing} {
			p.st = st
			if st == statusFlushing {
				want, wantLease = fields{tail: 5}, 0
			}
			for _, kind := range []byte{kindAck, kindHeartbeat} {
				rec.sent = nil
				m := p.header(kind)
				p.multicast([]MemberID{"c"}, &m)
				got := rec.to("c")
				if len(got) != 1 {
					t.Fatalf("%s: %d frames sent, want 1", self, len(got))
				}
				g := got[0]
				if f := (fields{g.Tail, g.Delivered, g.Received, g.Stable}); f != want || g.LeaseDur != wantLease {
					t.Errorf("%s (status %d) kind %d header: %+v lease %v, want %+v lease %v", self, st, kind, f, g.LeaseDur, want, wantLease)
				}
			}
		}
	}
}

// TestTickHeartbeatsOnlyQuietLinks: in normal operation a tick sends a
// HEARTBEAT only to the members this process has sent no header frame
// for Heartbeat/2 or longer; frames without the header do not count.
// While flushing it goes to everyone, and the answer to a loss report
// naming this member is never skipped. No run loop and no clock: the
// test sets the round's timestamp itself.
func TestTickHeartbeatsOnlyQuietLinks(t *testing.T) {
	p, rec := wiredView("a", []MemberID{"a", "b", "c", "d"})
	p.lostAt = make(map[MemberID]time.Time)
	p.lostBy = make(map[MemberID]map[MemberID]time.Time)
	half := p.cfg.Heartbeat / 2
	t0 := time.Unix(1000, 0)

	// t0: one DATA frame to everyone.
	p.now = t0
	p.sequence(dataMsg{Sender: "a", SenderSeq: 1, Payload: []byte("x")})
	p.flushRound()
	// Just before the tick: c NACKs and gets a retransmission, a
	// header frame; a hint about b goes to everyone in a frame
	// without the header.
	p.now = t0.Add(half - time.Millisecond)
	nack := &message{Kind: kindNack, From: "c", ViewID: p.view.ID, Missing: []uint64{1}}
	p.handleDatagram(transport.Message{From: "c", Payload: nack.encode()})
	p.onHint("b")
	if got := kinds(rec, "c"); !slices.Equal(got, []byte{kindData, kindData, kindLost}) {
		t.Fatalf("setup: frames to c = %v", got)
	}

	tick := func() {
		t.Helper()
		rec.sent = nil
		p.now = t0.Add(half)
		p.sendHeartbeats(p.now)
	}
	want := func(what string, hb ...transport.Addr) {
		t.Helper()
		for _, m := range []transport.Addr{"b", "c", "d"} {
			var k []byte
			if slices.Contains(hb, m) {
				k = []byte{kindHeartbeat}
			}
			if got := kinds(rec, m); !slices.Equal(got, k) {
				t.Errorf("%s: frames to %s = %v, want %v", what, m, got, k)
			}
		}
	}

	tick()
	want("normal tick", "b", "d")
	tick()
	want("second tick at the same instant")

	p.st = statusFlushing
	tick()
	want("flushing tick", "b", "c", "d")

	p.st = statusNormal
	rec.sent = nil
	p.handleDatagram(lostReport("b", "a", p.view.ID))
	want("loss report naming self", "b", "c", "d")
}

// frameCounter counts the frames every member sends, by sender,
// receiver and kind.
type frameCounter struct {
	mu sync.Mutex
	n  map[frameKey]int
}

type frameKey struct {
	from, to transport.Addr
	kind     byte
}

type countingEndpoint struct {
	transport.Endpoint
	c *frameCounter
}

func (e countingEndpoint) Send(to transport.Addr, payload []byte) error {
	if len(payload) > 0 {
		e.c.mu.Lock()
		e.c.n[frameKey{e.Addr(), to, payload[0]}]++
		e.c.mu.Unlock()
	}
	return e.Endpoint.Send(to, payload)
}

// take returns the counts since the last take and starts again.
func (c *frameCounter) take() map[frameKey]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = make(map[frameKey]int)
	return n
}

// TestBusyLinksCarryOnlyNews: under a steady stream of broadcasts a
// three-member group sends DATA, BATCH and ACK frames and next to no
// HEARTBEAT — no link is quiet for half a heartbeat — and no frame of
// any other kind, so no stability frame; an idle group still sends six
// heartbeats a tick. The bounds leave room for a loaded host: a stalled
// loop may let a link go quiet.
func TestBusyLinksCarryOnlyNews(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	fc := &frameCounter{n: make(map[frameKey]int)}
	obs := group(t, net, 3, func(_ int, c *Config) {
		c.Endpoint = countingEndpoint{c.Endpoint, fc}
	})
	waitThreeMembers(t, obs)
	hb := 10 * time.Millisecond // fastTimings

	const stream = 300 * time.Millisecond
	fc.take()
	start, sent := time.Now(), 0
	for time.Since(start) < stream {
		if err := obs[0].p.Broadcast([]byte("news")); err != nil {
			t.Fatal(err)
		}
		sent++
		time.Sleep(time.Millisecond)
	}
	busy := fc.take()
	ticks := int(time.Since(start) / hb)

	var frames, heartbeats int
	for k, n := range busy {
		frames += n
		switch k.kind {
		case kindData, kindBatch, kindAck:
		case kindHeartbeat:
			heartbeats += n
		default:
			t.Errorf("%s sent %d frames of kind %d to %s during the stream", k.from, n, k.kind, k.to)
		}
	}
	t.Logf("stream: %d broadcasts, %d frames (%.2f a broadcast), %d heartbeats in %d ticks",
		sent, frames, float64(frames)/float64(sent), heartbeats, ticks)
	// One DATA to each of 2 members and one ACK from each of them to
	// the 2 others: 6 frames a broadcast, fewer when batched.
	if perOp := float64(frames) / float64(sent); perOp > 7 {
		t.Errorf("%.2f frames a broadcast, want at most 7 (6 without heartbeats)", perOp)
	}
	// Idle links would carry 6 a tick; busy ones carry none.
	if heartbeats > 6*ticks/4 {
		t.Errorf("%d heartbeats in %d ticks on busy links, want at most a quarter of the idle %d", heartbeats, ticks, 6*ticks)
	}

	waitFor(t, 5*time.Second, "stream delivered", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != sent {
				return false
			}
		}
		return true
	})
	time.Sleep(5 * hb)
	fc.take()
	time.Sleep(30 * hb)
	idle := fc.take()
	frames = 0
	for k, n := range idle {
		frames += n
		if k.kind != kindHeartbeat {
			t.Errorf("idle: %s sent %d frames of kind %d to %s", k.from, n, k.kind, k.to)
		}
	}
	t.Logf("idle: %d heartbeats in 30 ticks", frames)
	if perTick := float64(frames) / 30; perTick < 3 || perTick > 7 {
		t.Errorf("idle view sent %.1f heartbeats a tick, want about 6", perTick)
	}
}

// dataOnly passes only DATA frames to one address (the others pass
// unchanged).
type dataOnly struct {
	transport.Endpoint
	to transport.Addr
}

func (e dataOnly) Send(to transport.Addr, payload []byte) error {
	if to == e.to && len(payload) > 0 && payload[0] != kindData {
		return nil
	}
	return e.Endpoint.Send(to, payload)
}

// TestDataStreamRenewsLease: a member that gets nothing but DATA frames
// from the sequencer keeps a live read lease through a whole 1 s
// stream of broadcasts, renewed by the grant each DATA frame carries.
func TestDataStreamRenewsLease(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, func(i int, c *Config) {
		// A lease of 200 ms, held for 150: the stream renews it
		// every few milliseconds.
		c.FailTimeout = 400 * time.Millisecond
		if i == 0 {
			c.Endpoint = dataOnly{c.Endpoint, "host1/gcs"}
		}
	})
	waitThreeMembers(t, obs)
	if d := obs[1].p.LeaseDuration(); d != 200*time.Millisecond {
		t.Fatalf("lease duration %v, want 200ms", d)
	}

	member := obs[1].p
	broadcast := func() {
		if err := obs[0].p.Broadcast([]byte("grant")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !member.LeaseValid() {
		if time.Now().After(deadline) {
			t.Fatal("no lease from DATA frames alone")
		}
		broadcast()
	}
	start, lapses := time.Now(), 0
	for time.Since(start) < time.Second {
		broadcast()
		if !member.LeaseValid() {
			lapses++
		}
	}
	if lapses > 0 {
		t.Errorf("the lease lapsed at %d checks of a 1 s DATA stream", lapses)
	}
	if v, _ := obs[1].lastView(); len(v.Members) != 3 {
		t.Errorf("view changed during the stream: %v", v)
	}
}

// TestVoidDataHeaderChangesNothing: a DATA frame's watermark and grant
// count only from the view's sequencer, in the view, in normal status.
// One from another member, from another view or received during a
// flush neither renews the lease nor garbage-collects anything.
func TestVoidDataHeaderChangesNothing(t *testing.T) {
	p, _ := wiredProcess("b")
	ack(p, "c", farAhead)
	for s := uint64(1); s <= 3; s++ {
		receive(p, s)
	}
	if p.nextDeliver != 4 || p.ordered.len() != 3 {
		t.Fatalf("setup: next delivery %d, %d buffered", p.nextDeliver, p.ordered.len())
	}
	p.now = time.Now()
	data := func(from MemberID, viewID, seq uint64) {
		m := &message{
			Kind: kindData, From: from, ViewID: viewID, Tail: seq, Stable: 3, LeaseDur: time.Minute,
			Data: dataMsg{Seq: seq, Sender: "c", SenderSeq: seq, Payload: []byte("d")},
		}
		p.handleDatagram(transport.Message{From: transport.Addr(from), Payload: m.encode()})
	}
	unchanged := func(what string) {
		t.Helper()
		if p.stable != 0 || p.ordered.len() < 3 || p.LeaseValid() {
			t.Errorf("%s: stable %d, %d buffered, lease %v", what, p.stable, p.ordered.len(), p.LeaseValid())
		}
	}

	data("c", p.view.ID, 4)
	unchanged("DATA from a non-sequencer")
	data("a", p.view.ID+1, 5)
	unchanged("DATA from another view")
	p.st = statusFlushing
	data("a", p.view.ID, 5)
	unchanged("DATA during a flush")

	p.st = statusNormal
	data("a", p.view.ID, 6)
	if p.stable != 3 || !p.LeaseValid() {
		t.Errorf("DATA from the sequencer: stable %d, lease %v; want 3 and a live lease", p.stable, p.LeaseValid())
	}
}
