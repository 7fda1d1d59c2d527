package rsm

import (
	"sync"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
)

// envelope is one replicated command inside the group communication
// payload: the service-opaque command bytes plus enough routing
// information for deduplication and the output rule (which replicas
// answer the client).
//
// Envelopes are pooled, and each has one owner at a time. A decoded
// envelope adopts the delivered wire buffer as its backing store
// (raw): ReqID and Payload are views into it, and Origin and Client
// are interned strings, so decoding a command allocates nothing.
// Whatever outlives the envelope is copied by its keeper — the dedup
// table copies the ReqID and the reply into its ring. The round that
// decodes an envelope owns it and releases it once its apply pass
// ends. The WAL may stage a view of raw past that point, which is safe
// because the transport hands every delivery over as a fresh buffer
// that nothing writes into again: release recycles the envelope, never
// the buffer.
type envelope struct {
	ReqID   []byte         // view into raw
	Origin  gcs.MemberID   // replica that intercepted the command
	Client  transport.Addr // where the reply goes; empty for internal
	Payload []byte         // view into raw; never mutated
	raw     []byte         // exact wire encoding, adopted from the delivery
	// index is the applied index the round assigned the command; 0
	// means it is not fresh (a copy already in the dedup table, or a
	// second copy within the round).
	index uint64
}

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// getEnvelope returns a pooled envelope.
func getEnvelope() *envelope { return envelopePool.Get().(*envelope) }

// release zeroes the envelope and returns it to the pool.
func (e *envelope) release() {
	*e = envelope{}
	envelopePool.Put(e)
}

// encodeEnvelopeTo writes the wire form of an envelope into enc.
// The origin side uses this with a pooled encoder so broadcasting a
// command allocates nothing.
func encodeEnvelopeTo(enc *codec.Encoder, reqID []byte, origin gcs.MemberID, client transport.Addr, payload []byte) {
	enc.PutBytes(reqID)
	enc.PutString(string(origin))
	enc.PutString(string(client))
	enc.PutBytes(payload)
}

// encode allocates a fresh wire encoding. Cold paths only.
func (e *envelope) encode() []byte {
	enc := codec.NewEncoder(64 + len(e.ReqID) + len(e.Payload))
	encodeEnvelopeTo(enc, e.ReqID, e.Origin, e.Client, e.Payload)
	return enc.Bytes()
}

// wire returns the exact encoded form of the envelope: the adopted
// delivery buffer when present, else a fresh encoding.
func (e *envelope) wire() []byte {
	if e.raw != nil {
		return e.raw
	}
	return e.encode()
}

// decodeEnvelopeInto decodes b into e, adopting b as the envelope's
// backing store — the caller must not mutate b afterwards. The gcs
// layer hands each delivery an independently owned payload copy, so
// adoption is a true zero-copy handoff. Origin and Client repeat
// across commands (one value per replica, one per client endpoint)
// and are interned, so decoding allocates nothing.
func (r *Replica) decodeEnvelopeInto(e *envelope, b []byte) error {
	d := codec.NewDecoder(b)
	id := d.Bytes()
	origin := d.Bytes()
	client := d.Bytes()
	payload := d.Bytes()
	if err := d.Finish(); err != nil {
		return err
	}
	e.ReqID = id
	e.Origin = gcs.MemberID(r.originIntern.intern(origin))
	e.Client = transport.Addr(r.clientIntern.intern(client))
	e.Payload = payload
	e.raw = b
	return nil
}

// internTable deduplicates small, endlessly repeating strings
// (member IDs, client addresses) so decoding a command reuses one
// canonical allocation per distinct value. It is confined to the
// replica event loop — no lock. The cap bounds memory against
// unbounded client churn; overflow values are simply not retained.
type internTable struct {
	m map[string]string
}

const internTableCap = 16384

func (t *internTable) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok { // compiled to a no-alloc lookup
		return s
	}
	s := string(b)
	if t.m == nil {
		t.m = make(map[string]string, 64)
	}
	if len(t.m) < internTableCap {
		t.m[s] = s
	}
	return s
}
