package rsm

import (
	"bytes"
	"testing"

	"joshua/internal/wal"
)

// TestTransferCodec pins the one transfer frame: every shape round
// trips (with a nil dedup response kept nil inside the base), and
// every truncation and single-byte flip of a framed transfer is
// rejected with an error rather than decoded.
func TestTransferCodec(t *testing.T) {
	base := (&replicaState{
		Applied:   7,
		Service:   []byte("service state"),
		DedupIDs:  [][]byte{[]byte("user#1"), []byte("user#2")},
		DedupResp: [][]byte{[]byte("reply"), nil},
	}).encode()
	recs := []wal.Record{{Index: 8, Data: []byte("command eight")}, {Index: 9, Data: []byte("nine")}}
	for name, want := range map[string]*transfer{
		"suffix":      {Applied: 9, Records: recs},
		"base+suffix": {Applied: 9, Base: base, Records: recs},
		"base":        {Applied: 7, Base: base},
	} {
		framed := want.encode()
		got, err := decodeTransfer(framed)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if got.Applied != want.Applied || !bytes.Equal(got.Base, want.Base) || len(got.Records) != len(want.Records) {
			t.Fatalf("%s: got applied %d, %d-byte base, %d records; want %d, %d, %d", name,
				got.Applied, len(got.Base), len(got.Records), want.Applied, len(want.Base), len(want.Records))
		}
		for i, rec := range got.Records {
			if rec.Index != want.Records[i].Index || !bytes.Equal(rec.Data, want.Records[i].Data) {
				t.Errorf("%s: record %d = %d %q, want %d %q", name, i, rec.Index, rec.Data, want.Records[i].Index, want.Records[i].Data)
			}
		}
		if len(got.Base) > 0 {
			st, err := decodeReplicaState(got.Base)
			if err != nil {
				t.Fatalf("%s: base: %v", name, err)
			}
			if string(st.DedupResp[0]) != "reply" || st.DedupResp[1] != nil {
				t.Errorf("%s: dedup responses = %q, want [reply <nil>]", name, st.DedupResp)
			}
		}

		for n := 0; n < len(framed); n++ {
			if _, err := decodeTransfer(framed[:n]); err == nil {
				t.Errorf("%s: truncated to %d of %d bytes decoded", name, n, len(framed))
			}
		}
		for i := range framed {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				b := bytes.Clone(framed)
				b[i] ^= flip
				if _, err := decodeTransfer(b); err == nil {
					t.Errorf("%s: byte %d xor %#x decoded", name, i, flip)
				}
			}
		}
	}
}
