package gcs

import (
	"fmt"
	"slices"
	"time"

	"joshua/internal/codec"
)

// Wire message kinds. The protocol is datagram-based; every datagram
// carries exactly one message, tagged with a kind byte.
const (
	kindHeartbeat  byte = iota + 1
	kindData            // sequenced broadcast (also used for retransmissions)
	kindReq             // sender -> sequencer: please order this payload
	kindNack            // receiver -> sequencer: retransmit these sequence numbers
	kindAck             // member -> all: cumulative receipt and delivery acknowledgment
	kindJoin            // joiner -> all: request admission
	kindLeave           // member -> all: voluntary departure
	kindSuspect         // member -> all: shared failure suspicion
	kindPropose         // coordinator -> candidates: begin view change
	kindFlushState      // member -> coordinator: my unstable messages and progress
	kindNewView         // coordinator -> candidates: install the new view
	kindStateSnap       // coordinator -> joiner: state transfer before first view
	kindBatch           // sequencer -> all: several sequenced messages in one frame
	kindReqBatch        // sender -> sequencer: several ordering requests + piggybacked ack
	kindLost            // member -> all: the transport hinted a lost connection to these members
)

// membershipKind reports whether a kind belongs to membership and view
// change (kindJoin through kindStateSnap) rather than to the
// steady-state message stream.
func membershipKind(k byte) bool { return k >= kindJoin && k <= kindStateSnap }

// headerKind reports whether frames of a kind carry the steady-state
// header (Tail, Delivered, Received, Stable, LeaseDur): DATA, BATCH,
// REQBATCH, ACK and HEARTBEAT. A frame of one of these kinds tells its
// receiver everything a heartbeat would, so a tick sends no heartbeat
// over a link that carried one recently (see Process.sendHeartbeats).
func headerKind(k byte) bool {
	switch k {
	case kindHeartbeat, kindData, kindBatch, kindReqBatch, kindAck:
		return true
	}
	return false
}

// dataMsg is one sequenced application message. Seq is the global
// total-order position within the view; SenderSeq is the sender's own
// FIFO counter, used for duplicate suppression across view changes.
type dataMsg struct {
	Seq       uint64
	Sender    MemberID
	SenderSeq uint64
	Payload   []byte
}

// message is the union of all wire messages. Only the fields relevant
// to Kind are populated.
type message struct {
	Kind byte
	From MemberID

	ViewID  uint64
	Attempt uint64

	// kindData (Seq, Sender, SenderSeq, Payload via Data)
	Data dataMsg

	// kindNack: sequences to retransmit.
	Missing []uint64

	// The steady-state header, carried by every headerKind frame and
	// read by Process.onHeader. Tail is the highest sequence the
	// sender knows was assigned, so peers that missed the tail of the
	// stream learn to NACK it. Delivered is the sender's cumulative
	// delivery watermark (stability accounting at the sequencer), and
	// Received its highest contiguously received sequence (safe-delivery
	// accounting at every member; may exceed Delivered while delivery
	// awaits the other members' acks); both are zero outside normal
	// status. Stable is the sequencer's stability watermark, up to
	// which members garbage-collect. LeaseDur is a read-lease grant from
	// the sequencer (zero = no grant): the receiving member may serve
	// leased local reads for this long after receipt, minus the safety
	// margin; see Process.ReadMark.
	Tail      uint64
	Delivered uint64
	Received  uint64
	Stable    uint64
	LeaseDur  time.Duration

	// kindSuspect, kindLost
	Suspects []MemberID

	// kindPropose, kindNewView
	Members []MemberID

	// kindNewView
	NewViewID uint64
	Primary   bool
	FinalSeq  uint64
	Msgs      []dataMsg // also kindFlushState, kindBatch, kindReqBatch

	// kindFlushState
	NextDeliver uint64
	StableSeen  uint64
	DelivTable  map[MemberID]uint64 // also kindStateSnap

	// kindStateSnap. The snapshot is split into chunks so one giant
	// application state never forms a single frame (datagram transports
	// bound frame sizes, and stream transports would stall a writer
	// queue); ChunkIdx/ChunkCnt let the joiner reassemble.
	AppState []byte
	ChunkIdx uint64
	ChunkCnt uint64

	// kindJoin: the joiner's locally recovered application state
	// version (applied command index), opaque to this layer. The
	// coordinator hands the minimum over admitted joiners to the
	// application, which may answer the snapshot request with an
	// incremental transfer instead of a full one.
	Since uint64
}

func putMembers(e *codec.Encoder, ms []MemberID) {
	e.PutUint(uint64(len(ms)))
	for _, m := range ms {
		e.PutString(string(m))
	}
}

// getID decodes a member ID, returning the interned copy from ids when
// there is one and a fresh string otherwise.
func getID(d *codec.Decoder, ids map[string]MemberID) MemberID {
	b := d.Bytes()
	if id, ok := ids[string(b)]; ok {
		return id
	}
	return MemberID(b)
}

// getPayload decodes a payload as a view into the datagram, capped so
// an append to it can never write into the next field.
func getPayload(d *codec.Decoder) []byte {
	b := d.Bytes()
	return b[:len(b):len(b)]
}

func getMembers(d *codec.Decoder, ids map[string]MemberID) []MemberID {
	n := d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return nil
	}
	ms := make([]MemberID, 0, n)
	for i := uint64(0); i < n; i++ {
		ms = append(ms, getID(d, ids))
	}
	return ms
}

func putDataMsg(e *codec.Encoder, m dataMsg) {
	e.PutUint(m.Seq)
	e.PutString(string(m.Sender))
	e.PutUint(m.SenderSeq)
	e.PutBytes(m.Payload)
}

func getDataMsg(d *codec.Decoder, ids map[string]MemberID) dataMsg {
	m := dataMsg{Seq: d.Uint()}
	m.Sender = getID(d, ids)
	m.SenderSeq = d.Uint()
	m.Payload = getPayload(d)
	return m
}

func putDataMsgs(e *codec.Encoder, ms []dataMsg) {
	e.PutUint(uint64(len(ms)))
	for _, m := range ms {
		putDataMsg(e, m)
	}
}

// getDataMsgs appends the decoded messages to ms.
func getDataMsgs(d *codec.Decoder, ids map[string]MemberID, ms []dataMsg) []dataMsg {
	n := d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return ms
	}
	ms = slices.Grow(ms, int(n))
	for i := uint64(0); i < n; i++ {
		ms = append(ms, getDataMsg(d, ids))
	}
	return ms
}

func putDelivTable(e *codec.Encoder, t map[MemberID]uint64) {
	e.PutUint(uint64(len(t)))
	// Deterministic order is not required on the wire, but sorting
	// keeps encodings reproducible for tests and debugging.
	for _, m := range sortedKeys(t) {
		e.PutString(string(m))
		e.PutUint(t[m])
	}
}

func getDelivTable(d *codec.Decoder, ids map[string]MemberID) map[MemberID]uint64 {
	n := d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return nil
	}
	t := make(map[MemberID]uint64, n)
	for i := uint64(0); i < n; i++ {
		m := getID(d, ids)
		t[m] = d.Uint()
	}
	return t
}

// encodeSize estimates the encoder capacity a message needs.
func (m *message) encodeSize() int {
	n := 64 + len(m.Data.Payload) + len(m.AppState)
	for i := range m.Msgs {
		n += 32 + len(m.Msgs[i].Payload)
	}
	return n
}

// encode marshals the message into a fresh heap buffer the caller may
// retain indefinitely.
func (m *message) encode() []byte {
	e := codec.NewEncoder(m.encodeSize())
	m.marshal(e)
	return e.Bytes()
}

// encodeTo marshals the message into a pooled encoder. The caller
// must Release it once the bytes have been handed off (safe after
// Send: transport endpoints do not alias the payload).
func (m *message) encodeTo() *codec.Encoder {
	e := codec.GetEncoder(m.encodeSize())
	m.marshal(e)
	return e
}

func (m *message) marshal(e *codec.Encoder) {
	e.PutByte(m.Kind)
	e.PutString(string(m.From))
	e.PutUint(m.ViewID)
	e.PutUint(m.Attempt)
	if headerKind(m.Kind) {
		e.PutUint(m.Tail)
		e.PutUint(m.Delivered)
		e.PutUint(m.Received)
		e.PutUint(m.Stable)
		e.PutDuration(m.LeaseDur)
	}
	switch m.Kind {
	case kindLeave, kindHeartbeat, kindAck:
		// nothing beyond the headers
	case kindJoin:
		e.PutUint(m.Since)
	case kindData:
		putDataMsg(e, m.Data)
	case kindReq:
		e.PutUint(m.Data.SenderSeq)
		e.PutBytes(m.Data.Payload)
	case kindNack:
		e.PutUint(uint64(len(m.Missing)))
		for _, s := range m.Missing {
			e.PutUint(s)
		}
	case kindSuspect, kindLost:
		putMembers(e, m.Suspects)
	case kindPropose:
		putMembers(e, m.Members)
	case kindFlushState:
		e.PutUint(m.NextDeliver)
		e.PutUint(m.StableSeen)
		putDelivTable(e, m.DelivTable)
		putDataMsgs(e, m.Msgs)
	case kindNewView:
		e.PutUint(m.NewViewID)
		putMembers(e, m.Members)
		e.PutBool(m.Primary)
		e.PutUint(m.FinalSeq)
		putDataMsgs(e, m.Msgs)
	case kindStateSnap:
		e.PutUint(m.NewViewID)
		putDelivTable(e, m.DelivTable)
		e.PutUint(m.ChunkIdx)
		e.PutUint(m.ChunkCnt)
		e.PutBytes(m.AppState)
	case kindBatch:
		putDataMsgs(e, m.Msgs)
	case kindReqBatch:
		// Requests carry no Seq, and the Sender is implied by the
		// frame's From, so only (SenderSeq, Payload) pairs go on the
		// wire.
		e.PutUint(uint64(len(m.Msgs)))
		for i := range m.Msgs {
			e.PutUint(m.Msgs[i].SenderSeq)
			e.PutBytes(m.Msgs[i].Payload)
		}
	default:
		panic(fmt.Sprintf("gcs: encoding unknown message kind %d", m.Kind))
	}
}

// decodeMessage unmarshals one datagram into a new message. Unknown
// kinds and malformed messages return an error; callers drop such
// datagrams.
func decodeMessage(b []byte) (*message, error) {
	var m message
	if err := m.decode(b, nil); err != nil {
		return nil, err
	}
	return &m, nil
}

// decode unmarshals one datagram into m, overwriting every field. It
// keeps the backing arrays of m.Msgs and m.Missing (emptied) whatever
// the kind, so a message the loop decodes into again and again stops
// allocating for them. Payloads and the application state alias b;
// member IDs found in ids come from it (nil interns nothing).
func (m *message) decode(b []byte, ids map[string]MemberID) error {
	clear(m.Msgs) // drop the previous datagram's payloads
	d := codec.NewDecoder(b)
	*m = message{Kind: d.Byte(), Msgs: m.Msgs[:0], Missing: m.Missing[:0]}
	m.From = getID(d, ids)
	m.ViewID = d.Uint()
	m.Attempt = d.Uint()
	if headerKind(m.Kind) {
		m.Tail = d.Uint()
		m.Delivered = d.Uint()
		m.Received = d.Uint()
		m.Stable = d.Uint()
		m.LeaseDur = d.Duration()
	}
	switch m.Kind {
	case kindLeave, kindHeartbeat, kindAck:
	case kindJoin:
		m.Since = d.Uint()
	case kindData:
		m.Data = getDataMsg(d, ids)
	case kindReq:
		m.Data.Sender = m.From
		m.Data.SenderSeq = d.Uint()
		m.Data.Payload = getPayload(d)
	case kindNack:
		n := d.Uint()
		if d.Err() == nil && n <= uint64(d.Remaining())+1 {
			m.Missing = slices.Grow(m.Missing, int(n))
			for i := uint64(0); i < n; i++ {
				m.Missing = append(m.Missing, d.Uint())
			}
		}
	case kindSuspect, kindLost:
		m.Suspects = getMembers(d, ids)
	case kindPropose:
		m.Members = getMembers(d, ids)
	case kindFlushState:
		m.NextDeliver = d.Uint()
		m.StableSeen = d.Uint()
		m.DelivTable = getDelivTable(d, ids)
		m.Msgs = getDataMsgs(d, ids, m.Msgs)
	case kindNewView:
		m.NewViewID = d.Uint()
		m.Members = getMembers(d, ids)
		m.Primary = d.Bool()
		m.FinalSeq = d.Uint()
		m.Msgs = getDataMsgs(d, ids, m.Msgs)
	case kindStateSnap:
		m.NewViewID = d.Uint()
		m.DelivTable = getDelivTable(d, ids)
		m.ChunkIdx = d.Uint()
		m.ChunkCnt = d.Uint()
		m.AppState = getPayload(d)
	case kindBatch:
		m.Msgs = getDataMsgs(d, ids, m.Msgs)
	case kindReqBatch:
		n := d.Uint()
		if d.Err() == nil && n <= uint64(d.Remaining())+1 {
			m.Msgs = slices.Grow(m.Msgs, int(n))
			for i := uint64(0); i < n; i++ {
				dm := dataMsg{Sender: m.From, SenderSeq: d.Uint()}
				dm.Payload = getPayload(d)
				m.Msgs = append(m.Msgs, dm)
			}
		}
	default:
		return fmt.Errorf("gcs: unknown message kind %d", m.Kind)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("gcs: decoding kind %d: %w", m.Kind, err)
	}
	return nil
}
