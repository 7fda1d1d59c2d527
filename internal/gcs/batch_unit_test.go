package gcs

import (
	"bytes"
	"slices"
	"testing"

	"joshua/internal/transport"
)

// White-box tests for the per-round frame caps: how one round's
// sequenced messages and ordering requests are split into BATCH and
// REQBATCH frames. No run loop, no network: a recording endpoint
// captures every datagram flushRound sends.

// recorder is a transport.Endpoint that keeps a copy of every sent
// datagram, or with discard set only counts them.
type recorder struct {
	sent    []sent
	discard bool
	n       int
}

type sent struct {
	to transport.Addr
	m  *message
}

func (r *recorder) Addr() transport.Addr           { return "" }
func (r *recorder) Recv() <-chan transport.Message { return nil }
func (r *recorder) Close() error                   { return nil }
func (r *recorder) Send(to transport.Addr, b []byte) error {
	r.n++
	if r.discard {
		return nil
	}
	m, err := decodeMessage(bytes.Clone(b))
	if err != nil {
		return err
	}
	r.sent = append(r.sent, sent{to, m})
	return nil
}

// to returns the frames sent to addr, in send order.
func (r *recorder) to(addr transport.Addr) []*message {
	var out []*message
	for _, s := range r.sent {
		if s.to == addr {
			out = append(out, s.m)
		}
	}
	return out
}

// wiredProcess is a safeProcess of the view {a, b, c} ("a" sequences)
// whose sends land in a recorder.
func wiredProcess(self MemberID) (*Process, *recorder) {
	return wiredView(self, []MemberID{"a", "b", "c"})
}

// wiredView is wiredProcess for any view; each member's address is its
// ID.
func wiredView(self MemberID, members []MemberID) (*Process, *recorder) {
	p := safeProcess(self, members)
	rec := &recorder{}
	p.ep = rec
	p.cfg.Peers = map[MemberID]transport.Addr{}
	for _, m := range members {
		p.cfg.Peers[m] = transport.Addr(m)
	}
	p.ids = internIDs(p.cfg.Peers)
	return p, rec
}

// frameSizes lists how many messages each frame carries, and checks
// that together they carry want in order.
func frameSizes(t *testing.T, frames []*message, want [][]byte) []int {
	t.Helper()
	var sizes []int
	var got [][]byte
	for _, m := range frames {
		switch m.Kind {
		case kindData, kindReq:
			sizes = append(sizes, 1)
			got = append(got, m.Data.Payload)
		case kindBatch, kindReqBatch:
			sizes = append(sizes, len(m.Msgs))
			for _, d := range m.Msgs {
				got = append(got, d.Payload)
			}
		default:
			t.Fatalf("unexpected frame kind %d", m.Kind)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("frames carry %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d out of order in the frames", i)
		}
	}
	return sizes
}

func payloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return out
}

func TestSequencerRoundSplitsIntoBatches(t *testing.T) {
	cases := []struct {
		name  string
		msgs  [][]byte
		sizes []int
		kinds []byte
	}{
		{"count cap", payloads(100, 8), []int{64, 36}, []byte{kindBatch, kindBatch}},
		{"byte cap", payloads(3, 600<<10), []int{1, 1, 1}, []byte{kindData, kindData, kindData}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, rec := wiredProcess("a")
			for i, pay := range tc.msgs {
				p.sequence(dataMsg{Sender: "x", SenderSeq: uint64(i + 1), Payload: pay})
			}
			if len(rec.sent) != 0 {
				t.Fatalf("%d frames sent before the round ended", len(rec.sent))
			}
			p.flushRound()
			for _, member := range []transport.Addr{"b", "c"} {
				frames := rec.to(member)
				sizes := frameSizes(t, frames, tc.msgs)
				if !slices.Equal(sizes, tc.sizes) {
					t.Fatalf("frames to %s carry %v messages, want %v", member, sizes, tc.sizes)
				}
				for i, m := range frames {
					if m.Kind != tc.kinds[i] {
						t.Errorf("frame %d to %s is kind %d, want %d", i, member, m.Kind, tc.kinds[i])
					}
				}
			}
			if n := len(rec.to("a")); n != 0 {
				t.Errorf("sequencer sent %d frames to itself", n)
			}
		})
	}
}

func TestRequestRoundSplitsAndCarriesAckOnce(t *testing.T) {
	cases := []struct {
		name  string
		msgs  [][]byte
		sizes []int
		kinds []byte
	}{
		{"count cap", payloads(100, 8), []int{64, 36}, []byte{kindReqBatch, kindReqBatch}},
		// The first frame carries the pending ack, so even a lone
		// request goes out as a REQBATCH; the rest are plain requests.
		{"byte cap", payloads(3, 600<<10), []int{1, 1, 1}, []byte{kindReqBatch, kindReq, kindReq}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, rec := wiredProcess("b")
			// Receiving sequence 1 owes the view a receipt ack.
			receive(p, 1)
			if !p.ackPending {
				t.Fatal("setup: no ack pending after a receipt")
			}
			for _, pay := range tc.msgs {
				p.startBroadcast(pay)
			}
			p.flushRound()

			frames := rec.to("a")
			sizes := frameSizes(t, frames, tc.msgs)
			if !slices.Equal(sizes, tc.sizes) {
				t.Fatalf("frames to the sequencer carry %v messages, want %v", sizes, tc.sizes)
			}
			for i, m := range frames {
				if m.Kind != tc.kinds[i] {
					t.Errorf("frame %d is kind %d, want %d", i, m.Kind, tc.kinds[i])
				}
				if m.Kind == kindReqBatch && m.Received != 1 {
					t.Errorf("REQBATCH %d reports receipt %d, want 1", i, m.Received)
				}
			}
			// The sequencer's copy of the ack rode on the first REQBATCH;
			// the other member got exactly one standalone ACK.
			others := rec.to("c")
			if len(others) != 1 || others[0].Kind != kindAck || others[0].Received != 1 {
				t.Fatalf("frames to c = %+v, want one ACK of receipt 1", others)
			}
			if p.ackPending {
				t.Error("ack still pending after the round")
			}
			if st := p.Stats(); st.AcksCoalesced != 1 {
				t.Errorf("AcksCoalesced = %d, want 1", st.AcksCoalesced)
			}
		})
	}
}
