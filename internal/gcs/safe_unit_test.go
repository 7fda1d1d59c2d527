package gcs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// White-box tests for the member-local safe-delivery rule: a sequence
// is delivered exactly when this member holds it and every other
// non-sequencer member has acknowledged holding it. No run loop, no
// network, no clock: handlers are called directly.

// safeProcess is a bareProcess in normal status with the order state
// the delivery path touches. It has no Peers, so
// every send is a no-op, and its event queue has no dispatcher.
func safeProcess(self MemberID, members []MemberID) *Process {
	p := bareProcess(self, members, true)
	p.st = statusNormal
	p.nextDeliver = 1
	p.recvAcked = make(map[MemberID]uint64)
	p.acked = make(map[MemberID]uint64)
	p.lastSeqd = make(map[MemberID]uint64)
	p.lastHeard = make(map[MemberID]time.Time)
	p.sentAt = make(map[MemberID]time.Time)
	p.events = &eventQueue{}
	p.events.cond = sync.NewCond(&p.events.mu)
	return p
}

// receive hands p sequence seq: as DATA from the sequencer, or by
// sequencing it when p is the sequencer itself.
func receive(p *Process, seq uint64) {
	d := dataMsg{Seq: seq, Sender: "x", SenderSeq: seq}
	if p.view.Sequencer() == p.cfg.Self {
		p.sequence(d)
		return
	}
	p.onData(&message{Kind: kindData, From: p.view.Sequencer(), ViewID: p.view.ID, Data: d})
}

func ack(p *Process, from MemberID, received uint64) {
	p.onHeader(&message{Kind: kindAck, From: from, ViewID: p.view.ID, Received: received})
}

func TestSafeDeliveryRule(t *testing.T) {
	all := []MemberID{"a", "b", "c", "d"}
	for n := 2; n <= 4; n++ {
		for _, self := range []MemberID{"a", "b"} { // "a" sequences
			members := all[:n]
			t.Run(fmt.Sprintf("members=%d/self=%s", n, self), func(t *testing.T) {
				p := safeProcess(self, members)
				var others []MemberID // whose acks the rule waits for
				for _, m := range members {
					if m != self && m != "a" {
						others = append(others, m)
					}
				}

				// Sequence 1: DATA first, then the acks one by one.
				receive(p, 1)
				for i, m := range others {
					if p.nextDeliver != 1 {
						t.Fatalf("delivered 1 with %d of %d acks", i, len(others))
					}
					ack(p, m, 1)
				}
				if p.nextDeliver != 2 {
					t.Fatalf("1 not delivered with own receipt and all %d acks", len(others))
				}

				// Sequence 2: every ack first, then the DATA.
				for _, m := range others {
					ack(p, m, 2)
				}
				if p.nextDeliver != 2 {
					t.Fatal("delivered 2 on acks alone, before receiving it")
				}
				receive(p, 2)
				if p.nextDeliver != 3 {
					t.Fatal("2 not delivered on DATA arrival after its acks")
				}

				// The sequencer's own ack is never waited for, and an
				// ack below the sequence does not count.
				receive(p, 3)
				for _, m := range others {
					ack(p, m, 2)
				}
				if len(others) > 0 && p.nextDeliver != 3 {
					t.Fatal("delivered 3 on stale acks")
				}
				if p.events.items.len() != int(p.nextDeliver-1) {
					t.Fatalf("%d DeliverEvents for %d deliveries", p.events.items.len(), p.nextDeliver-1)
				}
			})
		}
	}
}

func TestHeartbeatCarriesAck(t *testing.T) {
	p := safeProcess("b", []MemberID{"a", "b", "c"})
	receive(p, 1)
	p.onHeader(&message{Kind: kindHeartbeat, From: "c", ViewID: p.view.ID, Tail: 1, Received: 1})
	if p.nextDeliver != 2 {
		t.Fatal("a heartbeat's Received must count as the lost ACK")
	}
}

func TestHeartbeatAckOnlyInNormalOperation(t *testing.T) {
	p := safeProcess("b", []MemberID{"a", "b", "c"})
	ack(p, "c", 2)
	receive(p, 1)
	if hb := p.header(kindHeartbeat); hb.Tail != 1 || hb.Received != 1 || hb.Delivered != 1 {
		t.Fatalf("normal heartbeat = %+v, want tail, receipt and delivery all 1", hb)
	}
	// What is buffered during a flush came after the flush state was
	// reported; advertising it could let a peer deliver a message the
	// flush then cuts.
	p.st = statusFlushing
	receive(p, 2)
	if hb := p.header(kindHeartbeat); hb.Tail != 2 || hb.Received != 0 || hb.Delivered != 0 {
		t.Fatalf("flushing heartbeat = %+v, want the tail and no ack", hb)
	}
}

func TestVoidAcksChangeNothing(t *testing.T) {
	p := safeProcess("b", []MemberID{"a", "b", "c"})
	receive(p, 1)

	p.onHeader(&message{Kind: kindAck, From: "c", ViewID: p.view.ID - 1, Received: 1}) // another view
	p.onHeader(&message{Kind: kindAck, From: "z", ViewID: p.view.ID, Received: 1})     // not a member
	p.st = statusJoining
	ack(p, "c", 1) // joining: no view to account acks against
	p.st = statusNormal
	if len(p.recvAcked) != 0 || p.nextDeliver != 1 {
		t.Fatalf("void acks were recorded: table %v, nextDeliver %d", p.recvAcked, p.nextDeliver)
	}

	ack(p, "c", 1)
	if p.nextDeliver != 2 {
		t.Fatal("the valid ack did not deliver")
	}
}

func TestInstallViewResetsSafeState(t *testing.T) {
	p := safeProcess("a", []MemberID{"a", "b", "c"})
	receive(p, 1)
	ack(p, "b", 1)
	if p.recvAcked["b"] != 1 {
		t.Fatalf("setup: table %v", p.recvAcked)
	}
	p.installView(View{ID: 4, Members: []MemberID{"a", "b"}, Primary: true})
	if len(p.recvAcked) != 0 {
		t.Fatalf("old-view watermarks survived: table %v", p.recvAcked)
	}
}
