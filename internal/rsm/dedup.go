package rsm

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"

	"joshua/internal/codec"
)

// The request-deduplication table remembers, for the last DedupLimit
// applied commands, the applied index and the reply a retry is
// answered with. It is one FIFO byte ring plus an index:
//
//   - The ring holds one record per command, appended in apply order:
//     a header (key length, reply length, applied index), the ReqID
//     bytes, then the reply bytes. A reply length of dedupSuppressed
//     marks a command that produced no reply. Eviction pops the ring
//     head, so every replica — and recovery replay — evicts the same
//     commands in the same order.
//   - The index is open-addressed (linear probing, backward-shift
//     deletion, no tombstones) and maps a key's hash to its record's
//     ring offset.
//
// Recording a command copies its key and reply into the ring. Once the
// ring and the index have grown to hold DedupLimit records, nothing
// allocates; before that, each doubling is amortized over the records
// that filled it. Only the event loop writes (put, reset); the read
// workers' lookup and fetch take the read lock, so the dedup-retry
// fast path is servable off the loop.
type dedupTable struct {
	mu    sync.RWMutex
	limit int

	// The records live in [head, end) followed, once the ring has
	// wrapped, by [0, tail); unwrapped, end == tail. A record never
	// straddles the end of the ring: one that does not fit there
	// starts over at offset 0.
	ring    []byte
	head    int
	tail    int
	end     int
	wrapped bool
	count   int

	index []dedupSlot
	mask  uint64
}

// dedupSlot is one index entry; at is the record's ring offset plus
// one, so the zero slot is empty.
type dedupSlot struct {
	hash uint64
	at   int
}

// A record header: key length, reply length, applied index. The index
// tags the reply so the read path can gate dedup-hit retries on the
// durability watermark (index 0 = always durable: checkpointed or
// transferred state).
const (
	dedupHeader     = 16
	dedupSuppressed = ^uint32(0)
	dedupMinRing    = 4 << 10
	dedupMinIndex   = 64
)

var dedupSeed = maphash.MakeSeed()

func dedupHash(reqID []byte) uint64 { return maphash.Bytes(dedupSeed, reqID) }

func newDedupTable(limit int) *dedupTable {
	if limit < 1 {
		limit = 1
	}
	t := &dedupTable{limit: limit}
	t.initIndex(dedupMinIndex)
	return t
}

func (t *dedupTable) initIndex(slots int) {
	t.index = make([]dedupSlot, slots)
	t.mask = uint64(slots - 1)
}

// dedupRecord decodes the record at offset off of ring. key and resp
// alias ring; resp is nil for a reply-suppressed command.
func dedupRecord(ring []byte, off int) (key, resp []byte, idx uint64, size int) {
	b := ring[off:]
	klen := int(binary.LittleEndian.Uint32(b))
	rlen := binary.LittleEndian.Uint32(b[4:])
	idx = binary.LittleEndian.Uint64(b[8:])
	key = b[dedupHeader : dedupHeader+klen : dedupHeader+klen]
	size = dedupHeader + klen
	if rlen != dedupSuppressed {
		resp = b[size : size+int(rlen) : size+int(rlen)]
		size += int(rlen)
	}
	return key, resp, idx, size
}

// find probes for key under the caller's lock; -1 if absent.
func (t *dedupTable) find(h uint64, key []byte) int {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.index[i]
		if s.at == 0 {
			return -1
		}
		if s.hash == h {
			if k, _, _, _ := dedupRecord(t.ring, s.at-1); bytes.Equal(k, key) {
				return s.at - 1
			}
		}
	}
}

// lookup reports the applied index and whether a response is recorded
// for reqID; safe from any goroutine. The response bytes themselves
// are not returned — they live in the ring, which a later eviction
// overwrites, so callers that need them use fetch.
func (t *dedupTable) lookup(reqID []byte) (idx uint64, hasResp, ok bool) {
	h := dedupHash(reqID)
	t.mu.RLock()
	if off := t.find(h, reqID); off >= 0 {
		_, resp, i, _ := dedupRecord(t.ring, off)
		idx, hasResp, ok = i, resp != nil, true
	}
	t.mu.RUnlock()
	return
}

// fetch copies the recorded response for reqID into a pooled encoder
// while holding the read lock — the copy is what makes handing the
// bytes to the async reply path safe against the ring slot being
// overwritten once the record is evicted. enc is nil for a
// recorded-but-reply-suppressed command; the caller owns (and must
// Release) a non-nil encoder. Safe from any goroutine.
func (t *dedupTable) fetch(reqID []byte) (enc *codec.Encoder, idx uint64, ok bool) {
	h := dedupHash(reqID)
	t.mu.RLock()
	if off := t.find(h, reqID); off >= 0 {
		var resp []byte
		_, resp, idx, _ = dedupRecord(t.ring, off)
		ok = true
		if resp != nil {
			enc = codec.GetEncoder(len(resp))
			enc.PutRaw(resp)
		}
	}
	t.mu.RUnlock()
	return
}

// put records a response under its applied index, evicting the oldest
// record once the table is at its limit. It reports false if the ID
// was already present (the existing record wins, matching apply-in-
// total-order semantics). reqID and resp are copied. Event loop only.
func (t *dedupTable) put(reqID, resp []byte, idx uint64) bool {
	h := dedupHash(reqID)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.find(h, reqID) >= 0 {
		return false
	}
	if t.count == t.limit {
		t.pop()
	}
	size := dedupHeader + len(reqID) + len(resp)
	off := t.reserve(size)
	b := t.ring[off : off+size]
	rlen := uint32(len(resp))
	if resp == nil {
		rlen = dedupSuppressed
	}
	binary.LittleEndian.PutUint32(b, uint32(len(reqID)))
	binary.LittleEndian.PutUint32(b[4:], rlen)
	binary.LittleEndian.PutUint64(b[8:], idx)
	copy(b[dedupHeader:], reqID)
	copy(b[dedupHeader+len(reqID):], resp)
	t.count++
	if t.count*4 > len(t.index)*3 {
		t.growIndex()
	}
	i := h & t.mask
	for t.index[i].at != 0 {
		i = (i + 1) & t.mask
	}
	t.index[i] = dedupSlot{hash: h, at: off + 1}
	return true
}

// reserve claims size bytes at the ring's tail, growing the ring when
// the free space cannot hold them. Caller holds the write lock.
func (t *dedupTable) reserve(size int) int {
	switch {
	case !t.wrapped && t.tail+size <= len(t.ring):
	case !t.wrapped && size <= t.head:
		t.wrapped, t.tail = true, 0
	case t.wrapped && t.tail+size <= t.head:
	default:
		t.growRing(size)
	}
	off := t.tail
	t.tail += size
	if !t.wrapped {
		t.end = t.tail
	}
	return off
}

// growRing doubles the ring until it holds the live records plus size
// more bytes, unwrapping the records to its start and moving every
// index entry with them. Caller holds the write lock.
func (t *dedupTable) growRing(size int) {
	live, upper := t.liveSize()
	n := max(len(t.ring)*2, dedupMinRing)
	for n < live+size {
		n *= 2
	}
	ring := make([]byte, n)
	t.copyLive(ring)
	for i := range t.index {
		s := &t.index[i]
		if s.at == 0 {
			continue
		}
		if off := s.at - 1; off >= t.head {
			s.at -= t.head
		} else {
			s.at += upper
		}
	}
	t.ring = ring
	t.head, t.tail, t.end, t.wrapped = 0, live, live, false
}

// liveSize returns how many ring bytes the records take, and how many
// of them lie in [head, end).
func (t *dedupTable) liveSize() (live, upper int) {
	upper = t.end - t.head
	live = upper
	if t.wrapped {
		live += t.tail
	}
	return live, upper
}

// copyLive copies the records, oldest first, to the start of dst.
func (t *dedupTable) copyLive(dst []byte) {
	n := copy(dst, t.ring[t.head:t.end])
	if t.wrapped {
		copy(dst[n:], t.ring[:t.tail])
	}
}

func (t *dedupTable) growIndex() {
	old := t.index
	t.initIndex(len(old) * 2)
	for _, s := range old {
		if s.at == 0 {
			continue
		}
		i := s.hash & t.mask
		for t.index[i].at != 0 {
			i = (i + 1) & t.mask
		}
		t.index[i] = s
	}
}

// pop evicts the oldest record. Caller holds the write lock.
func (t *dedupTable) pop() {
	key, _, _, size := dedupRecord(t.ring, t.head)
	i := dedupHash(key) & t.mask
	for t.index[i].at != t.head+1 {
		i = (i + 1) & t.mask
	}
	t.deleteAt(i)
	t.head += size
	t.count--
	switch {
	case t.count == 0:
		t.head, t.tail, t.end, t.wrapped = 0, 0, 0, false
	case t.wrapped && t.head == t.end:
		t.head, t.end, t.wrapped = 0, t.tail, false
	}
}

// deleteAt removes index slot i by backward-shift deletion, so probe
// chains stay short under FIFO churn. Caller holds the write lock.
func (t *dedupTable) deleteAt(i uint64) {
	for j := i; ; {
		j = (j + 1) & t.mask
		s := &t.index[j]
		if s.at == 0 {
			break
		}
		k := s.hash & t.mask
		// s can fill the hole at i unless its ideal slot k lies
		// cyclically inside (i, j] — then it must stay put.
		if (j > i && (k <= i || k > j)) || (j < i && (k <= i && k > j)) {
			t.index[i] = *s
			i = j
		}
	}
	t.index[i] = dedupSlot{}
}

// snapshot copies the table in FIFO order for checkpoints and state
// transfers: the live ring is copied once, and every ID and response
// is a slice of that copy, so a fork costs three allocations whatever
// the table holds and nothing returned aliases the ring. A nil
// response is a reply-suppressed command; an empty one is non-nil.
// Event loop only: the loop is the sole writer, so it reads unlocked.
func (t *dedupTable) snapshot() (ids, resps [][]byte) {
	if t.count == 0 {
		return nil, nil
	}
	live, _ := t.liveSize()
	ring := make([]byte, live)
	t.copyLive(ring)
	ids = make([][]byte, 0, t.count)
	resps = make([][]byte, 0, t.count)
	for off := 0; off < live; {
		key, resp, _, size := dedupRecord(ring, off)
		ids = append(ids, key)
		resps = append(resps, resp)
		off += size
	}
	return ids, resps
}

// reset empties the table (join-time state transfer reload), dropping
// the ring and shrinking the index back to its initial footprint so a
// transfer-bloated table is not pinned.
func (t *dedupTable) reset() {
	t.mu.Lock()
	t.ring = nil
	t.head, t.tail, t.end, t.wrapped, t.count = 0, 0, 0, false, 0
	t.initIndex(dedupMinIndex)
	t.mu.Unlock()
}

// live is the number of recorded commands. Event loop only (the sole
// writer), so no lock.
func (t *dedupTable) live() int { return t.count }
