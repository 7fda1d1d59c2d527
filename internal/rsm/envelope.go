package rsm

import (
	"sync"
	"sync/atomic"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
)

// envelope is one replicated command inside the group communication
// payload: the service-opaque command bytes plus enough routing
// information for deduplication and the output rule (which replicas
// answer the client).
//
// Envelopes are pooled and refcounted. A decoded envelope adopts the
// delivered wire buffer as its backing store (raw): ReqID and Payload
// are views into it, and Origin and Client are interned strings, so
// decoding a command allocates nothing. Whatever outlives the envelope
// is copied by its keeper — the dedup table copies the ReqID and the
// reply into its ring. The write path takes one reference per
// concurrent consumer — the apply/reply pipeline and the WAL stage
// each hold their own — and the envelope returns to the pool only when
// the last reference drops, which is what makes the stage overlap
// (round N+1 staged while round N executes, replies released later
// still) safe under recycling.
type envelope struct {
	ReqID   []byte         // view into raw
	Origin  gcs.MemberID   // replica that intercepted the command
	Client  transport.Addr // where the reply goes; empty for internal
	Payload []byte         // view into raw; never mutated
	raw     []byte         // exact wire encoding, adopted from the delivery
	refs    atomic.Int32
}

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// getEnvelope returns a pooled envelope holding one reference.
func getEnvelope() *envelope {
	e := envelopePool.Get().(*envelope)
	e.refs.Store(1)
	return e
}

// ref adds a reference for a new concurrent holder (e.g. the WAL
// stage retaining raw until flush).
func (e *envelope) ref() { e.refs.Add(1) }

// release drops one reference; the last drop zeroes the views and
// repools the envelope. Releasing more times than referenced is a
// lifecycle bug and panics rather than corrupting a recycled command.
func (e *envelope) release() {
	n := e.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("rsm: envelope released more times than referenced")
	}
	e.ReqID = nil
	e.Origin = ""
	e.Client = ""
	e.Payload = nil
	e.raw = nil
	envelopePool.Put(e)
}

// ReleaseWAL implements wal.Releaser: the log calls it once the
// staged record (which aliases e.raw) has been written to the
// segment file.
func (e *envelope) ReleaseWAL() { e.release() }

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
