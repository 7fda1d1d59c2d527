package gcs

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"joshua/internal/transport"
)

// The steady-state datagram path decodes into the loop's own message,
// interns member IDs, aliases payloads into the datagram, keeps
// sequenced messages in a ring, queues events on a ring and carves
// delivery records from blocks of deliveryBlock, so no path allocates
// per datagram. Each case below is a wiredProcess of the view
// {a, b, c} ("a" sequences) whose sends are only counted; a step hands
// it the step's datagrams, each in a buffer of its own as a transport
// would, runs the round's flush and drains the event queue.

// datagramCase is one steady-state path and how many messages a step
// of it delivers.
type datagramCase struct {
	name     string
	self     MemberID
	delivers int
	quiet    bool // the steps send nothing
	// setup brings a fresh process to the steady state; frames returns
	// the datagrams of step i (from 1).
	setup  func(p *Process, steps int)
	frames func(p *Process, i uint64) []*message
}

const farAhead = 1 << 40 // a watermark no step reaches

var pathPayload = bytes.Repeat([]byte{'j'}, 64)

func dataFrom(sender MemberID, seq uint64) dataMsg {
	return dataMsg{Seq: seq, Sender: sender, SenderSeq: seq, Payload: pathPayload}
}

// aheadAck makes m's receipt and delivery watermarks run far ahead, so
// neither safe delivery nor stability waits for it.
func aheadAck(p *Process, m MemberID) {
	p.onHeader(&message{Kind: kindAck, From: m, ViewID: p.view.ID, Delivered: farAhead, Received: farAhead})
}

var datagramCases = []datagramCase{
	{
		name: "DATA", self: "b", delivers: 1,
		setup: func(p *Process, _ int) { aheadAck(p, "c") },
		// The sequencer's watermark rides its DATA frames: each
		// step garbage-collects the message the step before delivered.
		frames: func(p *Process, i uint64) []*message {
			return []*message{{Kind: kindData, From: "a", ViewID: p.view.ID, Stable: i - 1, Data: dataFrom("c", i)}}
		},
	},
	{
		name: "BATCH8", self: "b", delivers: 8,
		setup: func(p *Process, _ int) { aheadAck(p, "c") },
		frames: func(p *Process, i uint64) []*message {
			b := &message{Kind: kindBatch, From: "a", ViewID: p.view.ID, Stable: 8 * (i - 1)}
			for s := 8*i - 7; s <= 8*i; s++ {
				b.Msgs = append(b.Msgs, dataFrom("c", s))
			}
			return []*message{b}
		},
	},
	{
		// b's request i rides with its receipt of i-1, which delivers
		// i-1 and moves stability; a sequences i and multicasts it.
		name: "REQBATCH", self: "a", delivers: 1,
		setup: func(p *Process, _ int) { aheadAck(p, "c") },
		frames: func(p *Process, i uint64) []*message {
			return []*message{{
				Kind: kindReqBatch, From: "b", ViewID: p.view.ID, Delivered: i - 1, Received: i - 1,
				Msgs: []dataMsg{{Sender: "b", SenderSeq: i, Payload: pathPayload}},
			}}
		},
	},
	{
		// Nothing is buffered; the sequencer's heartbeats renew the
		// lease.
		name: "HEARTBEAT", self: "b", quiet: true,
		frames: func(p *Process, i uint64) []*message {
			return []*message{{Kind: kindHeartbeat, From: "a", ViewID: p.view.ID, LeaseDur: 100 * time.Millisecond}}
		},
	},
	{
		// Everything is delivered; the sequencer's watermark, riding
		// its heartbeats, moves stability one message a step and the
		// member garbage-collects it.
		name: "STABLE", self: "b", quiet: true,
		setup: func(p *Process, steps int) {
			aheadAck(p, "c")
			for s := uint64(1); s <= uint64(steps); s++ {
				d := dataFrom("c", s)
				p.acceptData(&d)
			}
			p.deliverReady()
		},
		frames: func(p *Process, i uint64) []*message {
			return []*message{{Kind: kindHeartbeat, From: "a", ViewID: p.view.ID, Stable: i, LeaseDur: 100 * time.Millisecond}}
		},
	},
	{
		// Everything is delivered; b's acks move stability one message
		// a step, which a keeps for its next header frame.
		name: "ACK", self: "a", quiet: true,
		setup: func(p *Process, steps int) {
			aheadAck(p, "c")
			for s := uint64(1); s <= uint64(steps); s++ {
				p.sequence(dataMsg{Sender: "b", SenderSeq: s, Payload: pathPayload})
			}
			p.onHeader(&message{Kind: kindAck, From: "b", ViewID: p.view.ID, Received: farAhead})
		},
		frames: func(p *Process, i uint64) []*message {
			return []*message{{Kind: kindAck, From: "b", ViewID: p.view.ID, Delivered: i, Received: farAhead}}
		},
	},
	{
		// b asks again for one of 64 buffered sequences; a
		// retransmits it.
		name: "NACK", self: "a",
		setup: func(p *Process, _ int) {
			for s := uint64(1); s <= 64; s++ {
				p.sequence(dataMsg{Sender: "b", SenderSeq: s, Payload: pathPayload})
			}
		},
		frames: func(p *Process, i uint64) []*message {
			return []*message{{Kind: kindNack, From: "b", ViewID: p.view.ID, Missing: []uint64{(i-1)%64 + 1}}}
		},
	},
}

// datagramRig is a process in a case's steady state and the encoded
// datagrams of its next steps.
type datagramRig struct {
	p    *Process
	rec  *recorder
	dgs  [][]transport.Message
	next int
}

func newDatagramRig(c datagramCase, steps int) *datagramRig {
	p, rec := wiredProcess(c.self)
	rec.discard = true
	if c.setup != nil {
		c.setup(p, steps)
	}
	r := &datagramRig{p: p, rec: rec}
	r.drain()
	for i := 1; i <= steps; i++ {
		var dgs []transport.Message
		for _, m := range c.frames(p, uint64(i)) {
			dgs = append(dgs, transport.Message{From: transport.Addr(m.From), To: transport.Addr(c.self), Payload: m.encode()})
		}
		r.dgs = append(r.dgs, dgs)
	}
	return r
}

// step feeds the next step's datagrams, flushes the round and drains
// the events; it returns how many DeliverEvents the step produced.
func (r *datagramRig) step() int {
	for _, dg := range r.dgs[r.next] {
		r.p.handleDatagram(dg)
	}
	r.dgs[r.next] = nil
	r.next++
	r.p.flushRound()
	return r.drain()
}

func (r *datagramRig) drain() int {
	n := 0
	for r.p.events.items.len() > 0 {
		if _, ok := r.p.events.items.pop().(DeliverEvent); ok {
			n++
		}
	}
	return n
}

// TestDatagramPathAllocs holds every path to zero allocations per
// step. Under -race, where allocation counts mean nothing, it still
// checks what the steps deliver and send.
func TestDatagramPathAllocs(t *testing.T) {
	const runs = 100
	for _, c := range datagramCases {
		t.Run(c.name, func(t *testing.T) {
			r := newDatagramRig(c, runs+1)
			delivered := 0
			got := testing.AllocsPerRun(runs, func() { delivered += r.step() })
			if !raceEnabled && got > 0 {
				t.Errorf("%s: %v allocs per datagram step, want 0", c.name, got)
			}
			// Check the steps really delivered (REQBATCH delivers a
			// step late).
			if min, max := c.delivers*runs, c.delivers*(runs+1); delivered < min || delivered > max {
				t.Errorf("%s: %d deliveries in %d steps, want %d to %d", c.name, delivered, runs+1, min, max)
			}
			if r.rec.n == 0 && !c.quiet {
				t.Errorf("%s: the steps sent nothing", c.name)
			}
		})
	}
}

func BenchmarkDatagramPath(b *testing.B) {
	const chunk = 1024
	for _, c := range datagramCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var r *datagramRig
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 {
					b.StopTimer()
					r = newDatagramRig(c, chunk)
					b.StartTimer()
				}
				r.step()
			}
		})
	}
}

// TestDeliverEventIsOnePointer pins the delivery event to one pointer,
// so converting it to an Event stores the pointer in the interface
// instead of boxing a copy.
func TestDeliverEventIsOnePointer(t *testing.T) {
	if got, want := unsafe.Sizeof(DeliverEvent{}), unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("DeliverEvent is %d bytes, want one pointer (%d)", got, want)
	}
	if raceEnabled {
		return
	}
	d := &Delivery{Seq: 1, Payload: pathPayload}
	var sink Event
	if got := testing.AllocsPerRun(100, func() { sink = DeliverEvent{d} }); got != 0 {
		t.Errorf("DeliverEvent to Event: %v allocs, want 0", got)
	}
	if ev, ok := sink.(DeliverEvent); !ok || ev.Seq != 1 || !bytes.Equal(ev.Payload, pathPayload) {
		t.Errorf("event reads back as %+v", sink)
	}
}
