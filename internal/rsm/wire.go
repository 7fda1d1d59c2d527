package rsm

import (
	"fmt"
	"hash/crc32"

	"joshua/internal/codec"
	"joshua/internal/wal"
)

// The envelope type and its pooled encode/decode live in envelope.go.

// replicaState is the engine state carried by a transfer's base image
// and by checkpoint files: the service snapshot, the applied command
// index it reflects, and the request deduplication table.
type replicaState struct {
	Applied   uint64
	DedupIDs  [][]byte
	DedupResp [][]byte
	Service   []byte
}

func (s *replicaState) encode() []byte {
	prefix, tail := s.encodeSplit()
	out := make([]byte, 0, len(prefix)+len(s.Service)+len(tail))
	out = append(out, prefix...)
	out = append(out, s.Service...)
	out = append(out, tail...)
	return out
}

// encodeSplit returns the encoding as (prefix, tail) framing the raw
// Service bytes: prefix ++ Service ++ tail == encode(). The background
// checkpointer streams the three pieces so a multi-megabyte service
// snapshot is never copied into a second contiguous buffer.
func (s *replicaState) encodeSplit() (prefix, tail []byte) {
	p := codec.NewEncoder(32)
	p.PutUint(s.Applied)
	p.PutUint(uint64(len(s.Service))) // PutBytes framing: uvarint length, raw bytes
	e := codec.NewEncoder(256)
	e.PutUint(uint64(len(s.DedupIDs)))
	for i, id := range s.DedupIDs {
		e.PutBytes(id)
		// A nil response (reply-suppressed command) must survive the
		// round trip as nil, not as an empty reply to send.
		e.PutBool(s.DedupResp[i] != nil)
		e.PutBytes(s.DedupResp[i])
	}
	return p.Bytes(), e.Bytes()
}

// decodeReplicaState decodes b. The dedup IDs and responses alias b,
// which the caller keeps unchanged while it uses them; loadState
// copies them into the dedup table.
func decodeReplicaState(b []byte) (*replicaState, error) {
	d := codec.NewDecoder(b)
	s := &replicaState{Applied: d.Uint()}
	sb := d.Bytes()
	s.Service = make([]byte, len(sb))
	copy(s.Service, sb)
	n := d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("rsm: corrupt state: %v", d.Err())
	}
	for i := uint64(0); i < n; i++ {
		s.DedupIDs = append(s.DedupIDs, d.Bytes())
		hasResp := d.Bool()
		resp := d.Bytes()
		if !hasResp {
			resp = nil
		}
		s.DedupResp = append(s.DedupResp, resp)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// transfer is the one shape every rebuild of a replica takes: an
// optional base image (an encoded replicaState — a checkpoint file's
// payload, or a donor's forked image) plus the log suffix after it. A
// donor builds one for a joiner, and local recovery builds one from
// the data directory; both install it through Replica.install.
type transfer struct {
	Applied uint64       // the index the replica reaches once installed
	Base    []byte       // encoded replicaState; empty extends the local state
	Records []wal.Record // the suffix after the base (or the joiner's index)
}

// transferFormat opens every framed transfer. Earlier engines used
// kind bytes 1–3 for three separate layouts; their transfers fail the
// format check with a clear error instead of mis-decoding.
const transferFormat byte = 4

// encode frames the transfer for the wire: the format byte, the
// payload length, and a CRC over the payload. The guard rejects
// corrupt or truncated transfer bytes with a clear error instead of
// letting them reach a service decoder.
func (t *transfer) encode() []byte {
	size := len(t.Base) + 32
	for _, rec := range t.Records {
		size += 16 + len(rec.Data)
	}
	p := codec.NewEncoder(size)
	p.PutUint(t.Applied)
	p.PutBytes(t.Base)
	p.PutUint(uint64(len(t.Records)))
	for _, rec := range t.Records {
		p.PutUint(rec.Index)
		p.PutBytes(rec.Data)
	}
	payload := p.Bytes()
	e := codec.NewEncoder(len(payload) + 16)
	e.PutByte(transferFormat)
	e.PutUint(uint64(len(payload)))
	e.PutUint(uint64(crc32.ChecksumIEEE(payload)))
	e.PutRaw(payload)
	return e.Bytes()
}

// decodeTransfer checks the frame and decodes the transfer. The base
// and the records alias b, which the caller hands over.
func decodeTransfer(b []byte) (*transfer, error) {
	d := codec.NewDecoder(b)
	format := d.Byte()
	n := d.Uint()
	crc := d.Uint()
	if d.Err() != nil || n != uint64(d.Remaining()) {
		return nil, fmt.Errorf("rsm: malformed state transfer frame (%v)", d.Err())
	}
	payload := b[len(b)-int(n):]
	if uint64(crc32.ChecksumIEEE(payload)) != crc {
		return nil, fmt.Errorf("rsm: state transfer fails CRC (corrupt or truncated)")
	}
	if format != transferFormat {
		return nil, fmt.Errorf("rsm: unknown state transfer format %d", format)
	}
	d = codec.NewDecoder(payload)
	t := &transfer{Applied: d.Uint(), Base: d.Bytes()}
	n = d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("rsm: corrupt state transfer: %v", d.Err())
	}
	t.Records = make([]wal.Record, 0, n)
	for i := uint64(0); i < n; i++ {
		t.Records = append(t.Records, wal.Record{Index: d.Uint(), Data: d.Bytes()})
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return t, nil
}

// tally bumps the Stats counter for the transfer's shape: a base with
// records is a checkpoint-plus-suffix (hybrid) transfer, a base alone a
// full one, records alone a delta.
func (t *transfer) tally(full, delta, hybrid *uint64) {
	switch {
	case len(t.Base) == 0:
		*delta++
	case len(t.Records) == 0:
		*full++
	default:
		*hybrid++
	}
}
