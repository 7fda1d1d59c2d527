// Package wal is the durability layer of a head node: a segmented
// write-ahead log plus checkpoint files, the on-disk half of the
// replicated state machine. The rsm engine appends every applied
// ordered command, group-commits the batch with one fsync per event-
// loop round, and periodically checkpoints the full service snapshot;
// on restart the head recovers locally — newest checkpoint, then the
// log suffix — before rejoining the group, and the retained suffix is
// what lets a restarted head rejoin with an incremental (log-delta)
// state transfer instead of a full snapshot.
//
// On-disk layout (one directory per replica):
//
//	seg-<first-index>.wal    log segments, rotated by size
//	ckpt-<index>.ckpt        checkpoints (the newest two are kept)
//
// Each log record is framed [len u32][crc32 u32][uvarint index][data].
// A checkpoint is the streaming layout written by SaveCheckpointFrom —
//
//	"JCKP" [version u8] [flags u8] [uvarint index]
//	([len u32][crc32 u32][payload])... [len u32 = 0]
//
// — a sequence of independently CRC-guarded chunks so a multi-hundred-
// megabyte state never needs a single contiguous staging buffer and a
// torn write is detected at the first bad chunk. Flags bit 0 marks the
// payload stream as flate-compressed; the writer no longer sets it, but
// files written with it still load. Torn or
// corrupt tails — the expected residue of a crash — are truncated at
// open, never fatal; everything from the first bad frame on is
// discarded, which is exactly the not-yet-acknowledged suffix. A
// checkpoint torn mid-write only ever exists as a .tmp file (rename is
// the commit point), which Open deletes.
package wal

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced — the
// durability/latency trade the EXPERIMENTS.md ablation measures.
type SyncPolicy int

const (
	// SyncInterval (the default) group-commits to the OS on every
	// Commit and fsyncs at most once per Options.Interval, bounding
	// data loss on power failure to one interval while keeping fsync
	// off the per-command path.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs on every Commit — one fsync per event-loop
	// round covering the whole batch of commands applied in it (group
	// commit), not one per record.
	SyncAlways
	// SyncNone never fsyncs; durability rests on the OS page cache
	// (process crashes lose nothing, power loss may). The ablation
	// baseline.
	SyncNone
)

// ParseSyncPolicy maps the config-file / flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return SyncInterval, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Options parameterizes a Log.
type Options struct {
	// Dir is the log directory, created if absent. Required.
	Dir string
	// Policy defaults to SyncInterval.
	Policy SyncPolicy
	// Interval is the fsync cadence under SyncInterval. Default 50ms.
	Interval time.Duration
	// SegmentBytes triggers rotation once the active segment exceeds
	// it. Default 4 MiB.
	SegmentBytes int64
	// Logger receives diagnostics (torn-tail truncation, checkpoint
	// pruning); nil disables logging.
	Logger *log.Logger
}

// Stats counts log activity since Open.
type Stats struct {
	Appends         uint64 // records appended
	Fsyncs          uint64 // fsync calls on segment files
	Bytes           uint64 // frame bytes appended
	Segments        int    // on-disk segment count (gauge)
	FirstIndex      uint64 // oldest record retained (0 = none)
	LastIndex       uint64 // newest record (or checkpoint index if higher)
	CheckpointIndex uint64 // newest durable checkpoint
	TornBytes       uint64 // bytes truncated from torn tails at open
}

// Record is one log entry surfaced by Replay and ReadSince.
type Record struct {
	Index uint64
	Data  []byte
}

const (
	segPrefix    = "seg-"
	segSuffix    = ".wal"
	ckptPrefix   = "ckpt-"
	ckptSuffix   = ".ckpt"
	frameHdrSize = 8 // [len u32][crc32 u32]
	// checkpointsKept is how many checkpoint generations survive
	// pruning: the newest plus one fallback in case the newest is torn
	// by a crash mid-rename (rename is atomic, but cheap insurance).
	checkpointsKept = 2

	// ckptMagic and ckptVersion open every checkpoint file; a file
	// without both is not read.
	ckptMagic   = "JCKP"
	ckptVersion = 2
	// ckptFlagCompressed marks the chunk payload stream as flate-
	// compressed. The writer no longer sets it; the reader still
	// honours it.
	ckptFlagCompressed = 0x01
	// ckptChunkSize is the v2 chunk payload size: large enough that
	// per-chunk CRC and header overhead vanish, small enough that a
	// reader never stages more than this beyond the assembled state.
	ckptChunkSize = 256 << 10
)

type segment struct {
	first uint64 // index the segment was created to hold next
	path  string
}

// Log is a segmented write-ahead log with checkpoints. All methods are
// safe for concurrent use, though the rsm engine drives appends from a
// single goroutine.
type Log struct {
	opts Options

	mu       sync.Mutex
	segments []segment // ascending by first; last entry is active
	active   *os.File
	actSize  int64 // active segment size including buffered bytes

	// Staged records awaiting flush, kept as an iovec list instead of
	// one flat buffer: frame headers (and data copied by Append) live
	// in the hdr arena, while AppendShared stages caller-owned data as
	// views, so the hot path never copies a command body it already
	// holds. flushLocked hands the whole list to writev.
	vec         [][]byte // staged iovecs, in append order
	hdr         []byte   // arena backing headers + copied data
	stagedBytes int

	firstIdx uint64 // oldest record on disk (0 = no records)
	lastIdx  uint64 // newest record, or checkpoint index if higher
	// ckptIdx is the newest durable checkpoint's index. The state bytes
	// themselves are never kept in memory: Checkpoint reads them back
	// from disk on demand (recovery and transfer are cold paths, and a
	// resident copy would double the footprint of a large job state).
	ckptIdx uint64

	// Flush/sync generations order durability: flushedGen counts
	// flushes that moved bytes into the OS page cache, syncedGen the
	// generation covered by the newest fsync. Bytes are unsynced
	// exactly when syncedGen < flushedGen.
	flushedGen uint64
	syncedGen  uint64
	lastSync   time.Time
	stats      Stats
	closed     bool

	// pending holds commit waiters awaiting an fsync; the
	// committer goroutine coalesces them into group commits.
	pending []commitTicket
	kick    chan struct{} // wakes the committer (buffered 1)
	quit    chan struct{} // stops the committer

	syncDone chan struct{} // stops the background interval syncer
}

// commitTicket is one commit awaiting the fsync that covers
// its flush generation.
type commitTicket struct {
	gen uint64
	ch  chan error
}

// Open loads (or creates) the log in opts.Dir: newest valid checkpoint
// wins, segments are scanned in order, and the first torn or corrupt
// frame truncates everything from itself on.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:     opts,
		lastSync: time.Now(),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	if err := l.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	if l.ckptIdx > l.lastIdx {
		l.lastIdx = l.ckptIdx
	}
	if len(l.segments) == 0 {
		if err := l.addSegment(l.lastIdx + 1); err != nil {
			return nil, err
		}
	} else {
		act := l.segments[len(l.segments)-1]
		f, err := os.OpenFile(act.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		size, err := f.Seek(0, 2)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.active = f
		l.actSize = size
	}
	if opts.Policy == SyncInterval {
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	go l.committer()
	return l, nil
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logger != nil {
		l.opts.Logger.Printf("[wal %s] "+format, append([]any{filepath.Base(l.opts.Dir)}, args...)...)
	}
}

// loadCheckpoint picks the newest checkpoint file that validates;
// older and corrupt ones are left for SaveCheckpoint to prune. Leftover
// .tmp files — a crash mid-background-checkpoint — are deleted: the
// rename never happened, so they are not durable state.
func (l *Log) loadCheckpoint() error {
	if tmps, err := filepath.Glob(filepath.Join(l.opts.Dir, ckptPrefix+"*"+ckptSuffix+".tmp")); err == nil {
		for _, tmp := range tmps {
			l.logf("removing torn checkpoint temp %s", filepath.Base(tmp))
			os.Remove(tmp)
		}
	}
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		idx, _, ok := decodeCheckpointV2(b)
		if !ok {
			l.logf("checkpoint %s corrupt; trying older", filepath.Base(name))
			continue
		}
		l.ckptIdx = idx
		return nil
	}
	return nil
}

// decodeCheckpointV2 parses the chunked streaming format written by
// SaveCheckpointFrom. Every chunk's CRC must validate and the chunk
// list must end with the zero-length terminator; anything else is a
// torn or corrupt file.
func decodeCheckpointV2(b []byte) (index uint64, state []byte, ok bool) {
	off := len(ckptMagic)
	if len(b) < off+2 || string(b[:off]) != ckptMagic || b[off] != ckptVersion {
		return 0, nil, false
	}
	flags := b[off+1]
	off += 2
	idx, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, nil, false
	}
	off += n
	var payload []byte
	for {
		if off+4 > len(b) {
			return 0, nil, false
		}
		ln := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		if ln == 0 {
			break
		}
		if off+4+ln > len(b) {
			return 0, nil, false
		}
		chunk := b[off+4 : off+4+ln]
		if crc32.ChecksumIEEE(chunk) != binary.BigEndian.Uint32(b[off:]) {
			return 0, nil, false
		}
		payload = append(payload, chunk...)
		off += 4 + ln
	}
	if off != len(b) {
		return 0, nil, false
	}
	if flags&ckptFlagCompressed != 0 {
		fr := flate.NewReader(bytes.NewReader(payload))
		st, err := io.ReadAll(fr)
		if err != nil || fr.Close() != nil {
			return 0, nil, false
		}
		return idx, st, true
	}
	return idx, payload, true
}

// loadSegments scans every segment in index order, truncating at the
// first invalid frame and discarding any later segments.
func (l *Log) loadSegments() error {
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	segs := make([]segment, 0, len(names))
	for _, name := range names {
		base := filepath.Base(name)
		numeric := strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix)
		first, err := strconv.ParseUint(numeric, 10, 64)
		if err != nil {
			l.logf("ignoring stray file %s", base)
			continue
		}
		segs = append(segs, segment{first: first, path: name})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	var prev uint64 // last valid index seen; 0 = none yet
	for i, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		validEnd, firstRec, lastRec, bad := scanFrames(b, prev)
		if firstRec != 0 && l.firstIdx == 0 {
			l.firstIdx = firstRec
		}
		if lastRec != 0 {
			prev = lastRec
		}
		if bad || validEnd < int64(len(b)) {
			torn := int64(len(b)) - validEnd
			l.stats.TornBytes += uint64(torn)
			l.logf("truncating %d torn bytes at %s+%d", torn, filepath.Base(seg.path), validEnd)
			if err := os.Truncate(seg.path, validEnd); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			// Everything after a bad frame is unordered garbage.
			for _, later := range segs[i+1:] {
				l.logf("dropping segment %s after torn tail", filepath.Base(later.path))
				os.Remove(later.path)
			}
			segs = segs[:i+1]
			l.segments = segs
			l.lastIdx = prev
			return nil
		}
	}
	l.segments = segs
	l.lastIdx = prev
	return nil
}

// scanFrames walks one segment's frames. It returns the end offset of
// the valid prefix, the first and last record indices seen (0 = none),
// and whether it stopped on a corrupt (vs merely torn) frame; a frame
// whose index does not follow prev counts as corrupt.
func scanFrames(b []byte, prev uint64) (validEnd int64, first, last uint64, bad bool) {
	var off int64
	for off+frameHdrSize <= int64(len(b)) {
		n := int64(binary.BigEndian.Uint32(b[off:]))
		if off+frameHdrSize+n > int64(len(b)) {
			return off, first, last, false // torn tail
		}
		body := b[off+frameHdrSize : off+frameHdrSize+n]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[off+4:]) {
			return off, first, last, true
		}
		idx, m := binary.Uvarint(body)
		if m <= 0 || (prev != 0 && idx != prev+1) {
			return off, first, last, true
		}
		if first == 0 {
			first = idx
		}
		last, prev = idx, idx
		off += frameHdrSize + n
	}
	return off, first, last, off != int64(len(b))
}

func (l *Log) addSegment(first uint64) error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segments = append(l.segments, segment{first: first, path: path})
	l.active = f
	l.actSize = 0
	return nil
}

// Append stages one record, copying data into the arena. Indices must
// be contiguous: index == LastIndex()+1. Records become crash-durable
// per the sync policy at the next Commit.
func (l *Log) Append(index uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(index, data, false)
}

// AppendShared stages one record without copying data: the staged
// frame keeps a view of data until a later flush writes it, so the
// caller must never write into data again. On error nothing is staged.
func (l *Log) AppendShared(index uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(index, data, true)
}

// appendLocked stages one frame as iovecs: header+index (and, for the
// copying path, the data too) go into the arena as one contiguous
// span; shared data is staged as a view. Arena growth may move the
// backing array, but previously staged views keep the old array — and
// its bytes — alive, so earlier entries stay valid.
func (l *Log) appendLocked(index uint64, data []byte, shared bool) error {
	if l.closed {
		return errors.New("wal: closed")
	}
	if index != l.lastIdx+1 {
		return fmt.Errorf("wal: append index %d, want %d", index, l.lastIdx+1)
	}
	if l.actSize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(index); err != nil {
			return err
		}
	}
	var idxBuf [binary.MaxVarintLen64]byte
	in := binary.PutUvarint(idxBuf[:], index)
	bodyLen := in + len(data)

	// The frame header and index go into the arena first and the CRC is
	// computed over the arena span (not the stack buffer: crc32's arch
	// dispatch leaks its argument, and checksumming idxBuf directly
	// would force it to the heap on every append).
	start := len(l.hdr)
	l.hdr = append(l.hdr, 0, 0, 0, 0, 0, 0, 0, 0)
	l.hdr = append(l.hdr, idxBuf[:in]...)
	if !shared {
		l.hdr = append(l.hdr, data...)
	}
	span := l.hdr[start:]
	binary.BigEndian.PutUint32(span, uint32(bodyLen))
	crc := crc32.ChecksumIEEE(span[frameHdrSize:])
	if shared {
		crc = crc32.Update(crc, crc32.IEEETable, data)
	}
	binary.BigEndian.PutUint32(span[4:], crc)
	l.vec = append(l.vec, span)
	if shared && len(data) > 0 {
		l.vec = append(l.vec, data)
	}
	l.stagedBytes += frameHdrSize + bodyLen
	l.actSize += int64(frameHdrSize + bodyLen)
	l.lastIdx = index
	if l.firstIdx == 0 {
		l.firstIdx = index
	}
	l.stats.Appends++
	l.stats.Bytes += uint64(frameHdrSize + bodyLen)
	return nil
}

// rotateLocked seals the active segment and opens a fresh one that
// will start at next.
func (l *Log) rotateLocked(next uint64) error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.opts.Policy != SyncNone && l.unsyncedLocked() {
		if err := l.fsyncLocked(); err != nil {
			return err
		}
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return l.addSegment(next)
}

// flushLocked moves the staged iovec list into the OS page cache with
// a vectored write. On error the staged state is kept (the interval
// syncer and the next commit retry the flush), matching the
// pre-vectored behavior.
func (l *Log) flushLocked() error {
	if l.stagedBytes == 0 {
		return nil
	}
	if _, err := writeBufs(l.active, l.vec); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.clearStagedLocked()
	l.flushedGen++
	return nil
}

// clearStagedLocked resets the staging state, trimming an arena
// bloated by one oversized round.
func (l *Log) clearStagedLocked() {
	clear(l.vec)
	l.vec = l.vec[:0]
	if cap(l.hdr) > 1<<20 {
		l.hdr = nil
	} else {
		l.hdr = l.hdr[:0]
	}
	l.stagedBytes = 0
}

func (l *Log) unsyncedLocked() bool { return l.syncedGen < l.flushedGen }

func (l *Log) fsyncLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncedGen = l.flushedGen
	l.lastSync = time.Now()
	l.stats.Fsyncs++
	return nil
}

// Commit is the synchronous group-commit point: flush the batch, then
// fsync per policy — every round under SyncAlways, at most once per
// Interval under SyncInterval, never under SyncNone. It blocks until
// the covering fsync (if any) completes.
func (l *Log) Commit() error { return l.CommitTicket().Wait() }

// Ticket is a pooled commit waiter: CommitTicket hands one out per
// round and Wait returns it to the pool, so steady-state group commit
// allocates nothing.
type Ticket struct {
	ch chan error
}

var ticketPool = sync.Pool{New: func() any { return &Ticket{ch: make(chan error, 1)} }}

// CommitTicket is the pipelined group-commit point, called once per
// event-loop round after the round's appends: the staged batch is
// flushed inline, and the ticket's Wait returns the commit's outcome
// once the fsync the policy demands (if any) has covered it. The fsync
// itself runs on the committer goroutine, so the appender may keep
// staging the next round while this round reaches disk; outstanding
// commits are coalesced into one fsync. The caller must call Wait
// exactly once; the ticket must not be used afterwards.
func (l *Log) CommitTicket() *Ticket {
	t := ticketPool.Get().(*Ticket)
	l.commitEnqueue(t.ch)
	return t
}

// Wait blocks for the commit outcome and repools the ticket.
func (t *Ticket) Wait() error {
	err := <-t.ch
	ticketPool.Put(t)
	return err
}

// commitEnqueue flushes the staged batch and arranges exactly one
// send on ch: inline when no fsync is owed, else from the committer
// (or Close) once the covering fsync lands.
func (l *Log) commitEnqueue(ch chan error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ch <- errors.New("wal: closed")
		return
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		ch <- err
		return
	}
	need := false
	switch l.opts.Policy {
	case SyncAlways:
		need = l.unsyncedLocked()
	case SyncInterval:
		need = l.unsyncedLocked() && time.Since(l.lastSync) >= l.opts.Interval
	}
	if !need {
		l.mu.Unlock()
		ch <- nil
		return
	}
	l.pending = append(l.pending, commitTicket{gen: l.flushedGen, ch: ch})
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// committer services commit tickets off the appender's path,
// coalescing every queued ticket into a single fsync of the active
// segment. A Sync that loses the race with rotation (or Close)
// observes os.ErrClosed and counts as success: both seal the file
// with their own fsync first.
func (l *Log) committer() {
	for {
		select {
		case <-l.quit:
			return
		case <-l.kick:
		}
		for l.commitPending() {
		}
	}
}

// commitPending completes one batch of queued tickets; it reports
// whether there was anything to do.
func (l *Log) commitPending() bool {
	l.mu.Lock()
	tickets := l.pending
	l.pending = nil
	if len(tickets) == 0 {
		l.mu.Unlock()
		return false
	}
	var maxGen uint64
	for _, t := range tickets {
		if t.gen > maxGen {
			maxGen = t.gen
		}
	}
	if l.syncedGen >= maxGen || l.closed {
		// Already covered by rotation, the interval backstop, or
		// Close's final fsync.
		l.mu.Unlock()
		for _, t := range tickets {
			t.ch <- nil
		}
		return true
	}
	file := l.active
	gen := l.flushedGen
	l.mu.Unlock()

	err := file.Sync()
	synced := err == nil
	if errors.Is(err, os.ErrClosed) {
		err = nil // rotation/Close fsynced before closing the file
	} else if err != nil {
		err = fmt.Errorf("wal: %w", err)
	}
	l.mu.Lock()
	if err == nil {
		if gen > l.syncedGen {
			l.syncedGen = gen
		}
		if synced {
			l.lastSync = time.Now()
			l.stats.Fsyncs++
		}
	}
	l.mu.Unlock()
	for _, t := range tickets {
		t.ch <- err
	}
	return true
}

// syncLoop is the SyncInterval backstop: if traffic stops mid-
// interval, the tail still reaches disk within one interval.
func (l *Log) syncLoop() {
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.syncDone:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && (l.stagedBytes > 0 || l.unsyncedLocked()) {
				if err := l.flushLocked(); err == nil && l.unsyncedLocked() {
					l.fsyncLocked()
				}
			}
			l.mu.Unlock()
		}
	}
}

// SaveCheckpoint durably records the application state as of index.
// It is SaveCheckpointFrom over an in-memory state buffer.
func (l *Log) SaveCheckpoint(index uint64, state []byte) error {
	return l.SaveCheckpointFrom(index, bytes.NewReader(state))
}

// SaveCheckpointFrom durably records the application state as of index,
// streamed from src: the state is chunked into CRC-guarded frames as it
// is read, written to a temp file, fsynced, and renamed into place — so
// the caller never needs the whole encoding resident, and a crash at
// any point leaves either the previous checkpoint or a .tmp that Open
// discards. On success old checkpoint generations are pruned and every
// segment fully covered by index is released. Safe to call concurrently
// with appends: the rsm engine runs it on a dedicated checkpointer
// goroutine.
func (l *Log) SaveCheckpointFrom(index uint64, src io.Reader) error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", ckptPrefix, index, ckptSuffix))
	tmp := path + ".tmp"
	if err := l.writeCheckpointTmp(tmp, index, src); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.opts.Dir)

	l.mu.Lock()
	defer l.mu.Unlock()
	if index > l.ckptIdx {
		l.ckptIdx = index
	}
	l.pruneCheckpointsLocked()
	return l.retainLocked(index)
}

// writeCheckpointTmp streams one v2 checkpoint file to tmp and fsyncs
// it. The rename commit point belongs to the caller.
func (l *Log) writeCheckpointTmp(tmp string, index uint64, src io.Reader) error {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	hdr := make([]byte, 0, len(ckptMagic)+2+binary.MaxVarintLen64)
	hdr = append(hdr, ckptMagic...)
	hdr = append(hdr, ckptVersion, 0) // flags: none
	hdr = binary.AppendUvarint(hdr, index)
	_, err = bw.Write(hdr)

	cw := &ckptChunkWriter{w: bw, buf: make([]byte, 0, ckptChunkSize)}
	if err == nil {
		if _, err = io.Copy(cw, src); err == nil {
			err = cw.finish()
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// ckptChunkWriter frames a byte stream into [len u32][crc32 u32]
// [payload] chunks of at most ckptChunkSize, ending with a zero-length
// terminator on finish.
type ckptChunkWriter struct {
	w   io.Writer
	buf []byte
	hdr [8]byte
}

func (cw *ckptChunkWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		space := ckptChunkSize - len(cw.buf)
		if space == 0 {
			if err := cw.emit(); err != nil {
				return 0, err
			}
			space = ckptChunkSize
		}
		n := min(space, len(p))
		cw.buf = append(cw.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (cw *ckptChunkWriter) emit() error {
	binary.BigEndian.PutUint32(cw.hdr[:], uint32(len(cw.buf)))
	binary.BigEndian.PutUint32(cw.hdr[4:], crc32.ChecksumIEEE(cw.buf))
	if _, err := cw.w.Write(cw.hdr[:]); err != nil {
		return err
	}
	if _, err := cw.w.Write(cw.buf); err != nil {
		return err
	}
	cw.buf = cw.buf[:0]
	return nil
}

func (cw *ckptChunkWriter) finish() error {
	if len(cw.buf) > 0 {
		if err := cw.emit(); err != nil {
			return err
		}
	}
	var term [4]byte
	_, err := cw.w.Write(term[:])
	return err
}

// syncDir fsyncs a directory so a rename survives power loss. Errors
// are ignored: some filesystems refuse directory fsync, and the worst
// case is re-running recovery from the previous checkpoint.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func (l *Log) pruneCheckpointsLocked() {
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil {
		return
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names[min(len(names), checkpointsKept):] {
		os.Remove(name)
	}
}

// retainLocked deletes non-active segments made fully redundant by a
// checkpoint at index: a segment may go once the next segment starts
// at or below index+1 (every record the dropped segment holds is then
// ≤ index, covered by the checkpoint).
func (l *Log) retainLocked(index uint64) error {
	drop := 0
	for drop < len(l.segments)-1 && l.segments[drop+1].first <= index+1 {
		drop++
	}
	for _, seg := range l.segments[:drop] {
		l.logf("releasing segment %s (checkpoint %d)", filepath.Base(seg.path), index)
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if drop > 0 {
		l.segments = append(l.segments[:0], l.segments[drop:]...)
		l.firstIdx = 0
		if first := l.segments[0].first; first <= l.lastIdx {
			l.firstIdx = first
		}
	}
	return nil
}

// Checkpoint reads the newest durable checkpoint's index and state
// back from disk (nil state if none has been saved). State bytes are
// not cached in memory; this is a cold path (local recovery, join-time
// state transfer), and re-reading keeps the resident footprint at zero.
// A concurrent SaveCheckpointFrom can prune a file between the scan and
// the read; the scan then falls through to the next (newer files sort
// first, so the answer only improves).
func (l *Log) Checkpoint() (uint64, []byte) {
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, ckptPrefix+"*"+ckptSuffix))
	if err != nil {
		return 0, nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		if idx, state, ok := decodeCheckpointV2(b); ok {
			return idx, state
		}
	}
	return 0, nil
}

// CheckpointIndex returns the newest durable checkpoint's index
// without touching the state bytes.
func (l *Log) CheckpointIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptIdx
}

// LastIndex returns the newest record index (or the checkpoint index,
// if higher).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastIdx
}

// Replay streams every record with index > from, in order. The staged
// buffer is flushed first so replay sees all appended records. data
// is a view into a buffer read for this call alone; fn may keep it.
func (l *Log) Replay(from uint64, fn func(index uint64, data []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: closed")
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()

	for _, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		var off int64
		for off+frameHdrSize <= int64(len(b)) {
			n := int64(binary.BigEndian.Uint32(b[off:]))
			if off+frameHdrSize+n > int64(len(b)) {
				return fmt.Errorf("wal: torn frame in %s during replay", filepath.Base(seg.path))
			}
			body := b[off+frameHdrSize : off+frameHdrSize+n]
			if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[off+4:]) {
				return fmt.Errorf("wal: corrupt frame in %s during replay", filepath.Base(seg.path))
			}
			idx, m := binary.Uvarint(body)
			if m <= 0 {
				return fmt.Errorf("wal: corrupt index in %s during replay", filepath.Base(seg.path))
			}
			if idx > from {
				if err := fn(idx, body[m:]); err != nil {
					return err
				}
			}
			off += frameHdrSize + n
		}
	}
	return nil
}

// ReadSince collects the records in (since, LastIndex] for a state
// transfer or local recovery. ok is false when the log does not hold
// that whole contiguous range (or cannot read it); callers then fall
// back to an older base.
func (l *Log) ReadSince(since uint64) (recs []Record, ok bool) {
	l.mu.Lock()
	held := since == l.lastIdx || since < l.lastIdx && l.firstIdx != 0 && l.firstIdx <= since+1
	l.mu.Unlock()
	if !held {
		return nil, false
	}
	err := l.Replay(since, func(index uint64, data []byte) error {
		recs = append(recs, Record{Index: index, Data: data})
		return nil
	})
	if err != nil {
		return nil, false
	}
	return recs, true
}

// Reset installs externally received state (a full join-time transfer)
// as a checkpoint at index and discards every log record: the local
// suffix may diverge from the group's history, so none of it may be
// replayed or served again.
func (l *Log) Reset(index uint64, state []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: closed")
	}
	// Staged records are deliberately discarded: the local suffix may
	// diverge from the group's history.
	l.clearStagedLocked()
	if l.active != nil {
		l.active.Close()
	}
	for _, seg := range l.segments {
		os.Remove(seg.path)
	}
	l.segments = nil
	l.firstIdx = 0
	l.lastIdx = index
	l.syncedGen = l.flushedGen
	if err := l.addSegment(index + 1); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	return l.SaveCheckpoint(index, state)
}

// Stats returns a snapshot of the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.segments)
	st.FirstIndex = l.firstIdx
	st.LastIndex = l.lastIdx
	st.CheckpointIndex = l.ckptIdx
	return st
}

// Close flushes and fsyncs the active segment and releases the file
// handle. Outstanding commit tickets are completed by the final
// fsync. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.syncDone != nil {
		close(l.syncDone)
	}
	close(l.quit)
	pending := l.pending
	l.pending = nil
	err := l.flushLocked()
	if err == nil && l.unsyncedLocked() {
		err = l.fsyncLocked()
	}
	cerr := l.active.Close()
	l.mu.Unlock()
	for _, t := range pending {
		t.ch <- err
	}
	if err != nil {
		return err
	}
	return cerr
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
