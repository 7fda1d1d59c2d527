package rsm

import (
	"bytes"
	"fmt"
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
		t.put(fmt.Sprintf("cli%02d#%06d", i%13, i), dedupResp(i), uint64(i))
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
	wantIDs := append([]string(nil), ids...)
	wantResps := make([][]byte, len(resps))
	for i, r := range resps {
		if r != nil {
			wantResps[i] = append([]byte{}, r...)
		}
	}

	fillDedup(tab, limit, limit+10000)

	for i := range wantIDs {
		if ids[i] != wantIDs[i] {
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
