package gcs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// ringModel is the map the sequence-indexed ring replaced, kept as the
// oracle: every held message by sequence, everything up to lo dropped.
type ringModel struct {
	msgs map[uint64]dataMsg
	lo   uint64
}

// sorted lists the model's messages the way the flush snapshot used to:
// map values sorted by sequence.
func (m *ringModel) sorted() []dataMsg {
	out := make([]dataMsg, 0, len(m.msgs))
	for _, d := range m.msgs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// checkRing compares the ring with the model: size, every lookup in
// range, the in-order listing, and the highest sequence and delivery
// gap the old maxOrdered reported for next.
func checkRing(t *testing.T, r *seqRing, m *ringModel, next uint64) {
	t.Helper()
	if r.len() != len(m.msgs) {
		t.Fatalf("ring holds %d, model %d", r.len(), len(m.msgs))
	}
	var max uint64
	for s := range m.msgs {
		if s > max {
			max = s
		}
	}
	for s := m.lo; s <= max+2; s++ {
		d, ok := m.msgs[s]
		got := r.get(s)
		if ok != (got != nil) || ok && !reflect.DeepEqual(*got, d) {
			t.Fatalf("get(%d) = %+v, model %+v (held %v)", s, got, d, ok)
		}
	}
	if got, want := r.appendTo(nil), m.sorted(); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
		t.Fatalf("listing %v, model %v", seqs(got), seqs(want))
	}
	if len(m.msgs) > 0 && r.hi != max {
		t.Fatalf("highest held %d, model %d", r.hi, max)
	}
	_, nextHeld := m.msgs[next]
	wantGap := len(m.msgs) > 0 && max >= next && !nextHeld
	if gotGap := r.len() > 0 && r.hi >= next && r.get(next) == nil; gotGap != wantGap {
		t.Fatalf("gap at %d: ring %v, model %v", next, gotGap, wantGap)
	}
}

func seqs(ms []dataMsg) []uint64 {
	out := make([]uint64, len(ms))
	for i := range ms {
		out[i] = ms[i].Seq
	}
	return out
}

func (m *ringModel) put(r *seqRing, t *testing.T, s uint64) {
	t.Helper()
	d := dataMsg{Seq: s, Sender: MemberID([]byte{'a' + byte(s%3)}), SenderSeq: s, Payload: []byte{byte(s)}}
	_, dup := m.msgs[s]
	if r.put(&d) == dup {
		t.Fatalf("put(%d) stored %v, duplicate %v", s, !dup, dup)
	}
	m.msgs[s] = d
}

func (m *ringModel) gc(r *seqRing, w uint64) {
	r.gc(w)
	for s := range m.msgs {
		if s <= w {
			delete(m.msgs, s)
		}
	}
	if w > m.lo {
		m.lo = w
	}
}

func TestOrderedRing(t *testing.T) {
	t.Run("gap, duplicates and out-of-order arrival", func(t *testing.T) {
		var r seqRing
		m := &ringModel{msgs: map[uint64]dataMsg{}}
		for _, s := range []uint64{3, 1, 5, 3, 2, 5} {
			m.put(&r, t, s)
		}
		checkRing(t, &r, m, 1)
		// 4 is missing: a member that delivered 1..3 sees the gap.
		checkRing(t, &r, m, 4)
		if r.get(4) != nil {
			t.Fatal("sequence 4 should be missing")
		}
		m.put(&r, t, 4)
		checkRing(t, &r, m, 4)
		// The duplicate-request path finds a message by its sender's
		// numbering.
		if d := r.find(m.msgs[4].Sender, 4); d == nil || d.Seq != 4 {
			t.Fatalf("find(sender of 4, 4) = %+v", d)
		}
		if d := r.find("zz", 4); d != nil {
			t.Fatalf("find of an unknown sender = %+v", d)
		}
	})

	t.Run("wrap-around without growth", func(t *testing.T) {
		var r seqRing
		m := &ringModel{msgs: map[uint64]dataMsg{}}
		// A window of 100 slides over ten buffer lengths: every slot is
		// reused, and the buffer never grows.
		for s := uint64(1); s <= 10*initialRing; s++ {
			m.put(&r, t, s)
			if s > 100 {
				m.gc(&r, s-100)
			}
			if s%97 == 0 {
				checkRing(t, &r, m, s+1)
			}
		}
		if len(r.buf) != initialRing {
			t.Fatalf("buffer grew to %d with a window of 100", len(r.buf))
		}
	})

	t.Run("growth keeps every message", func(t *testing.T) {
		var r seqRing
		m := &ringModel{msgs: map[uint64]dataMsg{}}
		m.put(&r, t, 1)
		for s := uint64(2); s <= 3*initialRing; s += 7 {
			m.put(&r, t, s)
		}
		m.put(&r, t, 3*initialRing+5)
		if len(r.buf) != 4*initialRing {
			t.Fatalf("buffer is %d for a span of %d", len(r.buf), 3*initialRing+5)
		}
		checkRing(t, &r, m, 2)
		m.gc(&r, initialRing)
		checkRing(t, &r, m, initialRing+1)
		r.reset()
		m = &ringModel{msgs: map[uint64]dataMsg{}}
		checkRing(t, &r, m, 1)
		m.put(&r, t, 1) // a new view restarts at 1
		checkRing(t, &r, m, 1)
	})

	t.Run("random against the map", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		var r seqRing
		m := &ringModel{msgs: map[uint64]dataMsg{}}
		var next uint64 = 1 // the lowest sequence not yet delivered
		for i := 0; i < 20000; i++ {
			switch op := rng.Intn(10); {
			case op < 7: // arrival anywhere in a window that sometimes jumps far
				span := 64
				if rng.Intn(50) == 0 {
					span = 3 * initialRing
				}
				m.put(&r, t, m.lo+1+uint64(rng.Intn(span)))
			case op < 9: // delivery of the contiguous prefix
				for r.get(next) != nil {
					next++
				}
			default: // stability up to some delivered sequence
				if next-1 > m.lo {
					m.gc(&r, m.lo+1+uint64(rng.Int63n(int64(next-1-m.lo))))
				}
			}
			if i%101 == 0 {
				checkRing(t, &r, m, next)
			}
		}
		checkRing(t, &r, m, next)
	})

	t.Run("flush snapshot lists what the map did", func(t *testing.T) {
		p := safeProcess("b", []MemberID{"a", "b", "c"})
		m := &ringModel{msgs: map[uint64]dataMsg{}}
		for _, s := range []uint64{7, 2, 9, 1, 4, 3, 300, 2} {
			d := dataMsg{Seq: s, Sender: "c", SenderSeq: s, Payload: []byte{byte(s)}}
			p.acceptData(&d)
			m.msgs[s] = d
		}
		p.deliverTo(4)
		p.applyStable(2)
		for s := range m.msgs {
			if s <= 2 {
				delete(m.msgs, s)
			}
		}
		st := p.makeFlushStateMsg(1)
		if !reflect.DeepEqual(st.Msgs, m.sorted()) {
			t.Fatalf("flush state lists %v, the map listed %v", seqs(st.Msgs), seqs(m.sorted()))
		}
		if st.NextDeliver != 5 || st.StableSeen != 2 {
			t.Fatalf("flush state progress %d/%d, want 5/2", st.NextDeliver, st.StableSeen)
		}
	})
}
