package rsm

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// dedupResp is the response recorded for command i: nil (reply
// suppressed) for every seventh, empty for every eleventh, otherwise
// 1–200 bytes derived from i, so a recycled buffer that leaked into a
// snapshot would show as wrong bytes or a wrong length.
func dedupResp(i int) []byte {
	switch {
	case i%7 == 0:
		return nil
	case i%11 == 0:
		return []byte{}
	}
	return bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 1+i%100)
}

// fillDedup records commands [from, to) in a table.
func fillDedup(t *dedupTable, from, to int) {
	for i := from; i < to; i++ {
		t.put(fmt.Appendf(nil, "cli%02d#%06d", i%13, i), dedupResp(i), uint64(i))
	}
}

// TestDedupSnapshotSurvivesChurn takes a snapshot of a full table,
// then records 10,000 more commands, which evicts every entry the
// snapshot copied and recycles their response buffers. The snapshot
// must still equal a deep copy taken when it was made, nil and empty
// responses included.
func TestDedupSnapshotSurvivesChurn(t *testing.T) {
	const limit = 4096
	tab := newDedupTable(limit)
	fillDedup(tab, 0, limit)
	ids, resps := tab.snapshot()
	if len(ids) != limit || len(resps) != limit {
		t.Fatalf("snapshot has %d ids and %d responses, want %d", len(ids), len(resps), limit)
	}
	wantIDs := make([]string, len(ids))
	for i, id := range ids {
		wantIDs[i] = string(id)
	}
	wantResps := make([][]byte, len(resps))
	for i, r := range resps {
		if r != nil {
			wantResps[i] = append([]byte{}, r...)
		}
	}

	fillDedup(tab, limit, limit+10000)

	for i := range wantIDs {
		if string(ids[i]) != wantIDs[i] {
			t.Fatalf("id %d changed: %q, want %q", i, ids[i], wantIDs[i])
		}
		if want := dedupResp(i); (want == nil) != (resps[i] == nil) || !bytes.Equal(resps[i], want) {
			t.Fatalf("response %d (%s) = %x, recorded %x", i, ids[i], resps[i], want)
		}
		if (resps[i] == nil) != (wantResps[i] == nil) || !bytes.Equal(resps[i], wantResps[i]) {
			t.Fatalf("response %d (%s) changed after churn", i, ids[i])
		}
	}
}

// TestDedupSnapshotAllocs pins a full table's snapshot to three
// allocations: the ID slice, the response slice and one arena for
// every response byte.
func TestDedupSnapshotAllocs(t *testing.T) {
	tab := newDedupTable(4096)
	fillDedup(tab, 0, 4096)
	if allocs := testing.AllocsPerRun(20, func() { tab.snapshot() }); allocs > 3 {
		t.Errorf("snapshot of 4,096 entries: %v allocs/op, want <= 3", allocs)
	}
}

func BenchmarkDedupSnapshot(b *testing.B) {
	tab := newDedupTable(4096)
	fillDedup(tab, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.snapshot()
	}
}

// dedupModel is the reference the ring is checked against: a map and
// a FIFO slice of keys.
type dedupModel struct {
	limit int
	recs  map[string]dedupModelRec
	fifo  []string
}

type dedupModelRec struct {
	idx  uint64
	resp []byte
}

func (m *dedupModel) put(key string, resp []byte, idx uint64) bool {
	if _, ok := m.recs[key]; ok {
		return false
	}
	m.recs[key] = dedupModelRec{idx, resp}
	m.fifo = append(m.fifo, key)
	if len(m.fifo) > m.limit {
		delete(m.recs, m.fifo[0])
		m.fifo = m.fifo[1:]
	}
	return true
}

// TestDedupRingMatchesModel drives the ring and the model with the
// same random puts, lookups, fetches, snapshots and resets: keys of 1
// to 300 bytes, nil, empty and large replies, and limits from 1 to 64,
// so the ring wraps, grows and evicts under every mix. The ring must
// answer every operation as the model does, and snapshot in FIFO
// order.
func TestDedupRingMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]string, 300)
	for i := range keys {
		k := make([]byte, 1+rng.IntN(300))
		for j := range k {
			k[j] = byte('a' + rng.IntN(26))
		}
		keys[i] = string(k)
	}
	reply := func() []byte {
		switch rng.IntN(8) {
		case 0:
			return nil
		case 1:
			return []byte{}
		case 2:
			return bytes.Repeat([]byte{byte(rng.IntN(256))}, 1000+rng.IntN(9000))
		}
		return bytes.Repeat([]byte{byte(rng.IntN(256))}, 1+rng.IntN(200))
	}
	for trial := 0; trial < 200; trial++ {
		limit := 1 + rng.IntN(64)
		tab := newDedupTable(limit)
		m := &dedupModel{limit: limit, recs: map[string]dedupModelRec{}}
		// A pool a little larger than the limit keeps both hits and
		// misses frequent.
		pool := keys[:min(len(keys), limit+1+rng.IntN(2*limit+1))]
		for op := 0; op < 2000; op++ {
			key := pool[rng.IntN(len(pool))]
			switch n := rng.IntN(100); {
			case n < 50:
				resp := reply()
				idx := uint64(op)
				if got, want := tab.put([]byte(key), resp, idx), m.put(key, resp, idx); got != want {
					t.Fatalf("trial %d op %d: put(%.12q) = %v, model %v", trial, op, key, got, want)
				}
			case n < 70:
				idx, hasResp, ok := tab.lookup([]byte(key))
				rec, want := m.recs[key]
				if ok != want || (ok && (idx != rec.idx || hasResp != (rec.resp != nil))) {
					t.Fatalf("trial %d op %d: lookup(%.12q) = %d %v %v, model %+v %v", trial, op, key, idx, hasResp, ok, rec, want)
				}
			case n < 90:
				enc, idx, ok := tab.fetch([]byte(key))
				rec, want := m.recs[key]
				if ok != want || (ok && (idx != rec.idx || (enc != nil) != (rec.resp != nil))) {
					t.Fatalf("trial %d op %d: fetch(%.12q) = %v %d %v, model %+v %v", trial, op, key, enc != nil, idx, ok, rec, want)
				}
				if enc != nil {
					if !bytes.Equal(enc.Bytes(), rec.resp) {
						t.Fatalf("trial %d op %d: fetch(%.12q) returned %d bytes, recorded %d", trial, op, key, len(enc.Bytes()), len(rec.resp))
					}
					enc.Release()
				}
			case n < 98:
				ids, resps := tab.snapshot()
				if len(ids) != len(m.fifo) || len(resps) != len(m.fifo) {
					t.Fatalf("trial %d op %d: snapshot holds %d ids, %d responses; model %d", trial, op, len(ids), len(resps), len(m.fifo))
				}
				for i, key := range m.fifo {
					want := m.recs[key].resp
					if string(ids[i]) != key || (resps[i] == nil) != (want == nil) || !bytes.Equal(resps[i], want) {
						t.Fatalf("trial %d op %d: snapshot entry %d is %.12q (%d bytes, nil %v), model %.12q (%d bytes, nil %v)",
							trial, op, i, ids[i], len(resps[i]), resps[i] == nil, key, len(want), want == nil)
					}
				}
			default:
				tab.reset()
				m.recs, m.fifo = map[string]dedupModelRec{}, nil
			}
			if tab.live() != len(m.fifo) {
				t.Fatalf("trial %d op %d: %d live records, model %d", trial, op, tab.live(), len(m.fifo))
			}
		}
	}
}

// TestApplyPathAllocs pins what applying one command costs the engine
// outside the service: decoding the delivered envelope, the dedup
// check, recording the reply and fetching it back for a retry. The
// budget is zero per command both while the table fills (the ring and
// the index grow by doubling, amortized away) and once it is full and
// every record evicts the oldest. Under -race only the replies are
// checked.
func TestApplyPathAllocs(t *testing.T) {
	const limit = 4096
	wires := make([][]byte, 2*limit)
	for i := range wires {
		wires[i] = wireFor(fmt.Sprintf("user%05d/cli#%08d", i%1000, i), "rep0", "user/cli", []byte{byte(i)})
	}
	r := &Replica{dedup: newDedupTable(limit)}
	reply := bytes.Repeat([]byte{'r'}, 64)
	next := 0
	apply := func() {
		env := getEnvelope()
		if err := r.decodeEnvelopeInto(env, wires[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if _, _, seen := r.dedup.lookup(env.ReqID); !seen {
			r.dedup.put(env.ReqID, reply, uint64(next))
		}
		enc, _, ok := r.dedup.fetch(env.ReqID)
		if !ok || enc == nil || !bytes.Equal(enc.Bytes(), reply) {
			t.Fatalf("command %d: fetch after put = %v, %v", next, enc != nil, ok)
		}
		enc.Release()
		env.release()
	}
	for _, phase := range []string{"filling", "full"} {
		// AllocsPerRun runs apply once more than asked, so each phase
		// applies exactly limit commands.
		got := testing.AllocsPerRun(limit-1, apply)
		if !raceEnabled && got != 0 {
			t.Errorf("%s table: %v allocs per command, want 0", phase, got)
		}
		if r.dedup.live() != limit {
			t.Fatalf("%s table: %d records, want %d", phase, r.dedup.live(), limit)
		}
	}
}
