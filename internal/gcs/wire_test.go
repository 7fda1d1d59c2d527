package gcs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestWireRoundTripAllKinds(t *testing.T) {
	msgs := []*message{
		{Kind: kindHeartbeat, From: "a", ViewID: 7},
		{Kind: kindHeartbeat, From: "a", ViewID: 7, Tail: 42},                              // tail advertisement
		{Kind: kindHeartbeat, From: "b", ViewID: 7, Tail: 42, Delivered: 39, Received: 41}, // carries the cumulative ack
		{Kind: kindAck, From: "b", ViewID: 2, Delivered: 9, Received: 12},
		{Kind: kindJoin, From: "newguy"},
		{Kind: kindLeave, From: "b", ViewID: 3},
		{Kind: kindData, From: "a", ViewID: 2, Data: dataMsg{Seq: 9, Sender: "c", SenderSeq: 4, Payload: []byte("hi")}},
		{ // the whole header rides a DATA frame
			Kind: kindData, From: "a", ViewID: 2, Tail: 9, Delivered: 7, Received: 8, Stable: 6, LeaseDur: 12500 * time.Microsecond,
			Data: dataMsg{Seq: 9, Sender: "c", SenderSeq: 4, Payload: []byte("hi")},
		},
		{Kind: kindHeartbeat, From: "a", ViewID: 7, Tail: 42, Stable: 40, LeaseDur: 100 * time.Millisecond}, // the sequencer's
		{Kind: kindAck, From: "b", ViewID: 2, Tail: 13, Delivered: 9, Received: 12, Stable: 8},
		{Kind: kindReq, From: "b", ViewID: 2, Data: dataMsg{Sender: "b", SenderSeq: 11, Payload: []byte("req")}},
		{Kind: kindNack, From: "c", ViewID: 2, Missing: []uint64{3, 4, 9}},
		{Kind: kindAck, From: "c", ViewID: 2, Delivered: 42},
		{Kind: kindSuspect, From: "a", ViewID: 2, Suspects: []MemberID{"b", "c"}},
		{Kind: kindLost, From: "b", ViewID: 2, Suspects: []MemberID{"c"}},
		{Kind: kindPropose, From: "a", ViewID: 2, Attempt: 3, Members: []MemberID{"a", "c"}},
		{
			Kind: kindFlushState, From: "c", ViewID: 2, Attempt: 3,
			NextDeliver: 10, StableSeen: 5,
			DelivTable: map[MemberID]uint64{"a": 3, "c": 7},
			Msgs: []dataMsg{
				{Seq: 6, Sender: "a", SenderSeq: 2, Payload: []byte("x")},
				{Seq: 7, Sender: "c", SenderSeq: 7, Payload: nil},
			},
		},
		{
			Kind: kindNewView, From: "a", ViewID: 2, Attempt: 3,
			NewViewID: 5, Members: []MemberID{"a", "c", "d"}, Primary: true, FinalSeq: 9,
			Msgs: []dataMsg{{Seq: 8, Sender: "a", SenderSeq: 3, Payload: []byte("y")}},
		},
		{
			Kind: kindStateSnap, From: "a", ViewID: 2, Attempt: 3, NewViewID: 5,
			DelivTable: map[MemberID]uint64{"a": 3},
			AppState:   []byte("app-bytes"),
		},
		{
			Kind: kindBatch, From: "a", ViewID: 2,
			Msgs: []dataMsg{
				{Seq: 18, Sender: "b", SenderSeq: 6, Payload: []byte("one")},
				{Seq: 19, Sender: "a", SenderSeq: 9, Payload: nil},
				{Seq: 20, Sender: "c", SenderSeq: 2, Payload: []byte("three")},
			},
		},
		{Kind: kindBatch, From: "a", ViewID: 2}, // empty batch still round-trips
		{Kind: kindBatch, From: "a", ViewID: 2, Tail: 20, Stable: 17, LeaseDur: time.Second, Msgs: []dataMsg{{Seq: 20, Sender: "b", SenderSeq: 7}}},
		{
			Kind: kindReqBatch, From: "b", ViewID: 2, Delivered: 8, Received: 11,
			Msgs: []dataMsg{
				{Sender: "b", SenderSeq: 12, Payload: []byte("r1")},
				{Sender: "b", SenderSeq: 13, Payload: []byte("r2")},
			},
		},
		{Kind: kindReqBatch, From: "b", ViewID: 2, Delivered: 3, Received: 3},
	}
	for _, m := range msgs {
		b := m.encode()
		got, err := decodeMessage(b)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", m.Kind, err)
		}
		normalize(m)
		normalize(got)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("kind %d: roundtrip mismatch\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

// normalize maps nil and empty containers to a canonical form for
// comparison; the wire format does not distinguish them.
func normalize(m *message) {
	if len(m.Missing) == 0 {
		m.Missing = nil
	}
	if len(m.Suspects) == 0 {
		m.Suspects = nil
	}
	if len(m.Members) == 0 {
		m.Members = nil
	}
	if len(m.Msgs) == 0 {
		m.Msgs = nil
	}
	if len(m.DelivTable) == 0 {
		m.DelivTable = nil
	}
	if len(m.AppState) == 0 {
		m.AppState = nil
	}
	if len(m.Data.Payload) == 0 {
		m.Data.Payload = nil
	}
	for i := range m.Msgs {
		if len(m.Msgs[i].Payload) == 0 {
			m.Msgs[i].Payload = nil
		}
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	if _, err := decodeMessage(nil); err == nil {
		t.Error("empty datagram should fail")
	}
	if _, err := decodeMessage([]byte{0xFF, 0x00}); err == nil {
		t.Error("unknown kind should fail")
	}
	// Truncated data message.
	m := &message{Kind: kindData, From: "a", ViewID: 1, Data: dataMsg{Seq: 1, Sender: "b", SenderSeq: 1, Payload: []byte("payload")}}
	b := m.encode()
	if _, err := decodeMessage(b[:len(b)-3]); err == nil {
		t.Error("truncated datagram should fail")
	}
	// Trailing junk.
	if _, err := decodeMessage(append(m.encode(), 0x00)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// Property: data messages with arbitrary payloads and IDs round-trip.
func TestQuickWireData(t *testing.T) {
	f := func(seq, sseq uint64, sender string, payload []byte, viewID uint64) bool {
		m := &message{
			Kind: kindData, From: "x", ViewID: viewID,
			Data: dataMsg{Seq: seq, Sender: MemberID(sender), SenderSeq: sseq, Payload: payload},
		}
		got, err := decodeMessage(m.encode())
		if err != nil {
			return false
		}
		return got.Data.Seq == seq && got.Data.SenderSeq == sseq &&
			got.Data.Sender == MemberID(sender) && bytes.Equal(got.Data.Payload, payload) &&
			got.ViewID == viewID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding random bytes never panics.
func TestQuickWireGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if len(b) > 0 {
			b[0] = byte(rng.Intn(16)) // bias toward valid kinds
		}
		_, _ = decodeMessage(b) // must not panic
	}
}

func TestViewHelpers(t *testing.T) {
	v := View{ID: 3, Members: []MemberID{"a", "b", "c"}, Primary: true}
	if v.Sequencer() != "a" {
		t.Errorf("Sequencer = %q", v.Sequencer())
	}
	if !v.Includes("b") || v.Includes("z") {
		t.Error("Includes wrong")
	}
	empty := View{}
	if empty.Sequencer() != "" {
		t.Error("empty view sequencer should be empty")
	}
}
