package rsm

import (
	"hash/maphash"
	"sync"

	"joshua/internal/codec"
)

// dedupShards fixes the shard count of the deduplication table. A
// power of two so the shard pick is a mask, sized so that read workers
// probing retries rarely contend with the event loop inserting fresh
// responses.
const dedupShards = 16

// dedupInlineKey is how many ReqID bytes an entry stores inline.
// Request IDs are "<client-addr>#<seq>" and fit comfortably; the rare
// longer ID falls back to retaining the string.
const dedupInlineKey = 48

var dedupSeed = maphash.MakeSeed()

// dedupTable is the request-deduplication table: open-addressed
// shards with inline keys and entry-owned response buffers, behind
// RWMutexes so the dedup-retry fast path is servable off the event
// loop. Recording one applied command allocates nothing in steady
// state — the key bytes are copied inline, the response is copied
// into a buffer recycled from evicted entries, and FIFO eviction
// order lives in a fixed ring of the (already allocated) ReqID
// strings. Only the event loop inserts and evicts, so the ring needs
// no lock; reads take the owning shard's RLock.
type dedupTable struct {
	shards [dedupShards]dedupShard
	limit  int

	// FIFO eviction ring, event-loop-only: insertion order of live
	// entries in [head, tail) modulo len(fifo).
	fifo  []string
	head  int
	tail  int
	count int
}

// dedupEntry is one recorded response, tagged with the applied index
// of the command that produced it so the read path can gate dedup-hit
// retries on the durability watermark (index 0 = always durable:
// checkpointed or transferred state). The key is stored inline up to
// dedupInlineKey bytes; longer keys retain the ReqID string instead.
type dedupEntry struct {
	hash    uint64
	idx     uint64
	klen    uint16
	used    bool
	hasResp bool
	key     [dedupInlineKey]byte
	longKey string
	resp    []byte // entry-owned, recycled through the shard freelist
}

func (e *dedupEntry) match(h uint64, id string) bool {
	if !e.used || e.hash != h || int(e.klen) != len(id) {
		return false
	}
	if len(id) <= dedupInlineKey {
		return string(e.key[:e.klen]) == id // no-alloc comparison
	}
	return e.longKey == id
}

type dedupShard struct {
	mu      sync.RWMutex
	entries []dedupEntry
	mask    uint64
	n       int
	free    [][]byte // recycled response buffers from evicted entries
}

// Freelist bounds: buffers beyond these are left to the GC so one
// giant response doesn't pin memory for the life of the process.
const (
	dedupFreeListMax = 64
	dedupFreeBufMax  = 64 << 10
)

func newDedupTable(limit int) *dedupTable {
	if limit < 1 {
		limit = 1
	}
	t := &dedupTable{limit: limit}
	for i := range t.shards {
		t.shards[i].init(64)
	}
	return t
}

func (s *dedupShard) init(slots int) {
	s.entries = make([]dedupEntry, slots)
	s.mask = uint64(slots - 1)
	s.n = 0
}

func dedupHash(reqID string) uint64 { return maphash.String(dedupSeed, reqID) }

// The shard pick uses the top hash bits; probing uses the low bits,
// so entries spread independently within and across shards.
func (t *dedupTable) shard(h uint64) *dedupShard {
	return &t.shards[h>>(64-4)]
}

// find probes for id under the caller's lock; -1 if absent.
func (s *dedupShard) find(h uint64, id string) int {
	i := h & s.mask
	for {
		e := &s.entries[i]
		if !e.used {
			return -1
		}
		if e.match(h, id) {
			return int(i)
		}
		i = (i + 1) & s.mask
	}
}

// lookup reports the applied index and whether a response is recorded
// for reqID; safe from any goroutine. The response bytes themselves
// are not returned — they are entry-owned and may be recycled by a
// later eviction, so callers that need them use fetch.
func (t *dedupTable) lookup(reqID string) (idx uint64, hasResp, ok bool) {
	h := dedupHash(reqID)
	s := t.shard(h)
	s.mu.RLock()
	if i := s.find(h, reqID); i >= 0 {
		idx, hasResp, ok = s.entries[i].idx, s.entries[i].hasResp, true
	}
	s.mu.RUnlock()
	return
}

// fetch copies the recorded response for reqID into a pooled encoder
// while holding the shard lock — the copy is what makes handing the
// bytes to the async reply path safe against the entry's buffer being
// recycled by a concurrent-looking eviction. enc is nil for a
// recorded-but-reply-suppressed command; the caller owns (and must
// Release) a non-nil encoder. Safe from any goroutine.
func (t *dedupTable) fetch(reqID string) (enc *codec.Encoder, idx uint64, ok bool) {
	h := dedupHash(reqID)
	s := t.shard(h)
	s.mu.RLock()
	if i := s.find(h, reqID); i >= 0 {
		e := &s.entries[i]
		idx, ok = e.idx, true
		if e.hasResp {
			enc = codec.GetEncoder(len(e.resp))
			enc.PutRaw(e.resp)
		}
	}
	s.mu.RUnlock()
	return
}

// put records a response under its applied index, evicting the oldest
// entry once the table is at its limit. It reports false if the ID was
// already present (the existing record wins, matching apply-in-total-
// order semantics). Event loop only.
func (t *dedupTable) put(reqID string, resp []byte, idx uint64) bool {
	h := dedupHash(reqID)
	s := t.shard(h)
	s.mu.Lock()
	if s.find(h, reqID) >= 0 {
		s.mu.Unlock()
		return false
	}
	s.insert(h, reqID, resp, idx)
	s.mu.Unlock()

	if t.fifo == nil {
		t.fifo = make([]string, t.limit+1)
	}
	t.fifo[t.tail] = reqID
	t.tail = (t.tail + 1) % len(t.fifo)
	t.count++
	if t.count > t.limit {
		victim := t.fifo[t.head]
		t.fifo[t.head] = ""
		t.head = (t.head + 1) % len(t.fifo)
		t.count--
		t.removeKey(victim)
	}
	return true
}

// insert places a fresh entry under the caller's write lock, copying
// the key inline and the response into a recycled buffer.
func (s *dedupShard) insert(h uint64, reqID string, resp []byte, idx uint64) {
	if (s.n+1)*4 > len(s.entries)*3 {
		s.grow()
	}
	i := h & s.mask
	for s.entries[i].used {
		i = (i + 1) & s.mask
	}
	e := &s.entries[i]
	e.hash = h
	e.idx = idx
	e.used = true
	e.klen = uint16(len(reqID))
	if len(reqID) <= dedupInlineKey {
		copy(e.key[:], reqID)
		e.longKey = ""
	} else {
		e.longKey = reqID
	}
	if resp == nil {
		e.hasResp = false
		e.resp = nil
	} else {
		e.hasResp = true
		buf := e.resp
		if buf == nil && len(s.free) > 0 {
			buf = s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
		}
		e.resp = append(buf[:0], resp...)
	}
	s.n++
}

func (s *dedupShard) grow() {
	old := s.entries
	s.init(len(old) * 2)
	for i := range old {
		e := &old[i]
		if !e.used {
			continue
		}
		j := e.hash & s.mask
		for s.entries[j].used {
			j = (j + 1) & s.mask
		}
		s.entries[j] = *e
		s.n++
	}
}

// removeKey evicts one entry, recycling its response buffer.
func (t *dedupTable) removeKey(reqID string) {
	h := dedupHash(reqID)
	s := t.shard(h)
	s.mu.Lock()
	if i := s.find(h, reqID); i >= 0 {
		s.deleteAt(uint64(i))
	}
	s.mu.Unlock()
}

// deleteAt removes the entry at slot i using backward-shift deletion
// (no tombstones, so probe chains stay short under FIFO churn).
// Caller holds the write lock.
func (s *dedupShard) deleteAt(i uint64) {
	if e := &s.entries[i]; e.resp != nil && cap(e.resp) <= dedupFreeBufMax && len(s.free) < dedupFreeListMax {
		s.free = append(s.free, e.resp)
	}
	s.n--
	j := i
	for {
		j = (j + 1) & s.mask
		e := &s.entries[j]
		if !e.used {
			break
		}
		k := e.hash & s.mask
		// e can fill the hole at i unless its ideal slot k lies
		// cyclically inside (i, j] — then it must stay put.
		if (j > i && (k <= i || k > j)) || (j < i && (k <= i && k > j)) {
			s.entries[i] = *e
			i = j
		}
	}
	s.entries[i] = dedupEntry{}
}

// snapshot copies the table in FIFO insertion order for checkpoints
// and state transfers. Every response is copied into one arena, so a
// fork costs three allocations whatever the table holds, and no
// returned response aliases an entry buffer that eviction recycles.
// Event loop only: the first pass collects the live entries' buffers,
// which stay unchanged until the copy pass because only the event loop
// writes them.
func (t *dedupTable) snapshot() (ids []string, resps [][]byte) {
	if t.count == 0 {
		return nil, nil
	}
	ids = make([]string, 0, t.count)
	resps = make([][]byte, 0, t.count)
	size := 0
	for i := t.head; i != t.tail; i = (i + 1) % len(t.fifo) {
		id := t.fifo[i]
		h := dedupHash(id)
		s := t.shard(h)
		s.mu.RLock()
		if j := s.find(h, id); j >= 0 {
			e := &s.entries[j]
			var resp []byte
			if e.hasResp {
				// Non-nil even when empty: nil means reply-suppressed.
				if resp = e.resp; resp == nil {
					resp = []byte{}
				}
				size += len(resp)
			}
			ids = append(ids, id)
			resps = append(resps, resp)
		}
		s.mu.RUnlock()
	}
	arena := make([]byte, 0, size)
	for i, resp := range resps {
		if resp != nil {
			off := len(arena)
			arena = append(arena, resp...)
			resps[i] = arena[off:len(arena):len(arena)]
		}
	}
	return ids, resps
}

// reset empties the table (join-time state transfer reload), shrinking
// each shard back to its initial footprint so a transfer-bloated table
// is not pinned.
func (t *dedupTable) reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.init(64)
		s.free = nil
		s.mu.Unlock()
	}
	t.fifo = nil
	t.head, t.tail, t.count = 0, 0, 0
}

// live is the FIFO ring's live-entry count. Event loop only (the sole
// inserter), so no locks.
func (t *dedupTable) live() int { return t.count }

// size counts entries across shards.
func (t *dedupTable) size() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}
