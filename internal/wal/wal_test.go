package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, mutate func(*Options)) *Log {
	t.Helper()
	opts := Options{Dir: dir, Policy: SyncNone}
	if mutate != nil {
		mutate(&opts)
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := l.Append(i, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func collect(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	err := l.Replay(from, func(index uint64, data []byte) error {
		recs = append(recs, Record{Index: index, Data: append([]byte(nil), data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	recs := collect(t, l, 0)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Index != uint64(i+1) {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
		if want := fmt.Sprintf("record-%d", r.Index); string(r.Data) != want {
			t.Fatalf("record %d data %q, want %q", r.Index, r.Data, want)
		}
	}
	// Appends continue where the log left off.
	appendN(t, l, 11, 12)
	if got := l.LastIndex(); got != 12 {
		t.Fatalf("LastIndex = %d, want 12", got)
	}
	if err := l.Append(99, nil); err == nil {
		t.Fatal("non-contiguous append succeeded")
	}
}

func TestTornTailTruncatedNotFatal(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: a partial frame at the tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0, 0, 0, 99, 1, 2, 3} // claims 99 body bytes, has 3
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l = openT(t, dir, nil)
	defer l.Close()
	if st := l.Stats(); st.TornBytes != uint64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", st.TornBytes, len(torn))
	}
	if recs := collect(t, l, 0); len(recs) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(recs))
	}
	// The log accepts appends exactly after the surviving prefix.
	appendN(t, l, 6, 6)
}

func TestCorruptMidRecordTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 8)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the third record; records 3..8 must go.
	var off int64
	for i := 0; i < 2; i++ {
		off += frameHdrSize + int64(binary.BigEndian.Uint32(b[off:]))
	}
	b[off+frameHdrSize+1] ^= 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	recs := collect(t, l, 0)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after corruption, want 2", len(recs))
	}
	if got := l.LastIndex(); got != 2 {
		t.Fatalf("LastIndex = %d, want 2", got)
	}
}

func TestRotationAndCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	appendN(t, l, 1, 40) // ~18 bytes/frame: several segments
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("got %d segments, want rotation to produce at least 3", st.Segments)
	}

	if err := l.SaveCheckpoint(30, []byte("state@30")); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	st := l.Stats()
	if st.CheckpointIndex != 30 {
		t.Fatalf("CheckpointIndex = %d, want 30", st.CheckpointIndex)
	}
	if st.FirstIndex == 0 || st.FirstIndex > 31 {
		t.Fatalf("FirstIndex = %d after retention, want ≤ 31 and nonzero", st.FirstIndex)
	}
	// Records beyond the checkpoint survive retention.
	if recs := collect(t, l, 30); len(recs) != 10 {
		t.Fatalf("replayed %d records past checkpoint, want 10", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: checkpoint + suffix recover.
	l = openT(t, dir, nil)
	defer l.Close()
	idx, state := l.Checkpoint()
	if idx != 30 || !bytes.Equal(state, []byte("state@30")) {
		t.Fatalf("Checkpoint = (%d, %q), want (30, state@30)", idx, state)
	}
	if got := l.LastIndex(); got != 40 {
		t.Fatalf("LastIndex = %d, want 40", got)
	}
	// Only the newest two checkpoint generations are kept.
	if err := l.SaveCheckpoint(35, []byte("state@35")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveCheckpoint(40, []byte("state@40")); err != nil {
		t.Fatal(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(ckpts) != checkpointsKept {
		t.Fatalf("%d checkpoint files on disk, want %d", len(ckpts), checkpointsKept)
	}
}

func TestReadSinceAndCanServe(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.SegmentBytes = 128 })
	defer l.Close()
	appendN(t, l, 1, 20)
	if err := l.SaveCheckpoint(10, []byte("s")); err != nil {
		t.Fatal(err)
	}

	recs, ok := l.ReadSince(15)
	if !ok || len(recs) != 5 {
		t.Fatalf("ReadSince(15) = %d records ok=%v, want 5 true", len(recs), ok)
	}
	if recs[0].Index != 16 || recs[4].Index != 20 {
		t.Fatalf("delta range [%d,%d], want [16,20]", recs[0].Index, recs[4].Index)
	}
	if recs, ok := l.ReadSince(20); !ok || len(recs) != 0 {
		t.Fatalf("ReadSince(at tip) = %d records ok=%v, want empty true", len(recs), ok)
	}
	if _, ok := l.ReadSince(21); ok {
		t.Fatal("ReadSince beyond tip should fail")
	}
	// Retention dropped the oldest segments: a peer that far behind
	// cannot be served a contiguous suffix.
	first := l.Stats().FirstIndex
	if first <= 1 {
		t.Skipf("retention kept everything (FirstIndex=%d)", first)
	}
	if _, ok := l.ReadSince(first - 2); ok {
		t.Fatalf("ReadSince(%d) served despite FirstIndex=%d", first-2, first)
	}
}

func TestResetDiscardsLog(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 9)
	if err := l.Reset(50, []byte("installed")); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if recs := collect(t, l, 0); len(recs) != 0 {
		t.Fatalf("log kept %d records across Reset", len(recs))
	}
	appendN(t, l, 51, 52)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	idx, state := l.Checkpoint()
	if idx != 50 || string(state) != "installed" {
		t.Fatalf("Checkpoint = (%d, %q) after Reset, want (50, installed)", idx, state)
	}
	if recs := collect(t, l, idx); len(recs) != 2 {
		t.Fatalf("replayed %d records after Reset, want 2", len(recs))
	}
}

func TestSyncPolicies(t *testing.T) {
	always := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncAlways })
	appendN(t, always, 1, 3)
	if st := always.Stats(); st.Fsyncs == 0 {
		t.Fatal("SyncAlways: Commit did not fsync")
	}
	always.Close()

	none := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncNone })
	appendN(t, none, 1, 3)
	if st := none.Stats(); st.Fsyncs != 0 {
		t.Fatalf("SyncNone: %d fsyncs before close", st.Fsyncs)
	}
	none.Close()

	interval := openT(t, t.TempDir(), func(o *Options) {
		o.Policy = SyncInterval
		o.Interval = 10 * time.Millisecond
	})
	defer interval.Close()
	appendN(t, interval, 1, 1)
	deadline := time.Now().Add(2 * time.Second)
	for interval.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SyncInterval: background syncer never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCommitAsyncAlwaysAwaitsFsync(t *testing.T) {
	l := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncAlways })
	defer l.Close()
	if err := l.Append(1, []byte("a")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.CommitTicket().Wait(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if st := l.Stats(); st.Fsyncs != 1 {
		t.Fatalf("Fsyncs = %d after commit, want 1", st.Fsyncs)
	}
	// Nothing new staged: the next commit completes without fsyncing.
	if err := l.CommitTicket().Wait(); err != nil {
		t.Fatalf("idle commit: %v", err)
	}
	if st := l.Stats(); st.Fsyncs != 1 {
		t.Fatalf("Fsyncs = %d after idle commit, want still 1", st.Fsyncs)
	}
}

func TestCommitAsyncCompletesImmediatelyWhenNoFsyncDue(t *testing.T) {
	none := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncNone })
	defer none.Close()
	if err := none.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := waitWithin(t, none.CommitTicket(), time.Second); err != nil {
		t.Fatalf("SyncNone commit: %v", err)
	}
	if st := none.Stats(); st.Fsyncs != 0 {
		t.Fatalf("SyncNone: %d fsyncs", st.Fsyncs)
	}

	// Within the interval, an interval-policy commit is durability-
	// deferred: the ticket resolves without waiting for an fsync.
	iv := openT(t, t.TempDir(), func(o *Options) {
		o.Policy = SyncInterval
		o.Interval = time.Hour
	})
	defer iv.Close()
	if err := iv.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := iv.CommitTicket().Wait(); err != nil {
		t.Fatalf("SyncInterval commit: %v", err)
	}
	if st := iv.Stats(); st.Fsyncs != 0 {
		t.Fatalf("SyncInterval fsynced %d times inside the interval", st.Fsyncs)
	}
}

func TestCommitAsyncCoalescesOutstandingCommits(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) { o.Policy = SyncAlways })
	const n = 16
	tickets := make([]*Ticket, 0, n)
	for i := uint64(1); i <= n; i++ {
		if err := l.Append(i, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		tickets = append(tickets, l.CommitTicket())
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Fsyncs == 0 || st.Fsyncs > n {
		t.Fatalf("Fsyncs = %d, want within [1, %d]", st.Fsyncs, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every committed record is durable.
	l = openT(t, dir, nil)
	defer l.Close()
	if recs := collect(t, l, 0); len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
}

func TestCommitAsyncAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, func(o *Options) {
		o.Policy = SyncAlways
		o.SegmentBytes = 64
	})
	const n = 60
	tickets := make([]*Ticket, 0, n)
	for i := uint64(1); i <= n; i++ {
		if err := l.Append(i, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		tickets = append(tickets, l.CommitTicket())
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("got %d segments, want rotation during async commits", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = openT(t, dir, nil)
	defer l.Close()
	if recs := collect(t, l, 0); len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
}

func TestCommitAsyncAfterClose(t *testing.T) {
	l := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncAlways })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.CommitTicket().Wait(); err == nil {
		t.Fatal("CommitTicket on a closed log should fail")
	}
	if err := l.Commit(); err == nil {
		t.Fatal("Commit on a closed log should fail")
	}
}

func TestCloseCompletesOutstandingCommits(t *testing.T) {
	// Tickets still queued when Close runs are covered by its final
	// fsync and must resolve (with nil), not leak.
	l := openT(t, t.TempDir(), func(o *Options) { o.Policy = SyncAlways })
	var tickets []*Ticket
	for i := uint64(1); i <= 8; i++ {
		if err := l.Append(i, []byte("r")); err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, l.CommitTicket())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := waitWithin(t, tk, 2*time.Second); err != nil {
			t.Fatalf("commit %d resolved with %v", i, err)
		}
	}
}

// waitWithin returns a commit ticket's outcome, failing the test if it
// has not resolved within d.
func waitWithin(t *testing.T, tk *Ticket, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tk.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("commit ticket unresolved after %v", d)
		return nil
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "Interval": SyncInterval, "none": SyncNone, "": SyncInterval,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy accepted bogus")
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		rt, err := ParseSyncPolicy(p.String())
		if err != nil || rt != p {
			t.Fatalf("round trip %v failed: %v %v", p, rt, err)
		}
	}
}

func TestCheckpointCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 4)
	if err := l.SaveCheckpoint(2, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveCheckpoint(4, []byte("new")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Corrupt the newest checkpoint; open must fall back to the older.
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	newest := ckpts[len(ckpts)-1]
	b, _ := os.ReadFile(newest)
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	idx, state := l.Checkpoint()
	if idx != 2 || string(state) != "old" {
		t.Fatalf("Checkpoint = (%d, %q), want fallback (2, old)", idx, state)
	}
}

func TestCheckpointV2MultiChunkRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 3)

	// A state bigger than one chunk exercises the chunk framing.
	state := make([]byte, ckptChunkSize*2+12345)
	for i := range state {
		state[i] = byte(i * 7)
	}
	if err := l.SaveCheckpoint(3, state); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	if idx, got := l.Checkpoint(); idx != 3 || !bytes.Equal(got, state) {
		t.Fatalf("Checkpoint = (%d, %d bytes), want (3, %d bytes identical)", idx, len(got), len(state))
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	if len(ckpts) != 1 {
		t.Fatalf("%d checkpoint files, want 1", len(ckpts))
	}
	b, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:len(ckptMagic)]) != ckptMagic {
		t.Fatalf("checkpoint file does not start with %q", ckptMagic)
	}
	l.Close()

	l = openT(t, dir, nil)
	defer l.Close()
	if idx, got := l.Checkpoint(); idx != 3 || !bytes.Equal(got, state) {
		t.Fatalf("reopened Checkpoint = (%d, %d bytes), want (3, identical)", idx, len(got))
	}
}

func TestCheckpointFromStreamsReader(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	defer l.Close()
	appendN(t, l, 1, 2)
	state := bytes.Repeat([]byte("stream"), 4096)
	if err := l.SaveCheckpointFrom(2, bytes.NewReader(state)); err != nil {
		t.Fatalf("SaveCheckpointFrom: %v", err)
	}
	if idx, got := l.Checkpoint(); idx != 2 || !bytes.Equal(got, state) {
		t.Fatalf("Checkpoint = (%d, %d bytes), want streamed state back", idx, len(got))
	}
	if l.CheckpointIndex() != 2 {
		t.Fatalf("CheckpointIndex = %d, want 2", l.CheckpointIndex())
	}
}

// TestCheckpointCompression checks that a checkpoint whose header flags
// a flate-compressed payload, as an earlier writer option produced,
// still loads: a data directory holding one recovers without a wipe.
func TestCheckpointCompression(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 2)
	l.Close()

	state := bytes.Repeat([]byte("abcdefgh"), 64<<10)
	var file bytes.Buffer
	file.WriteString(ckptMagic)
	file.Write([]byte{ckptVersion, ckptFlagCompressed})
	file.Write(binary.AppendUvarint(nil, 2))
	cw := &ckptChunkWriter{w: &file, buf: make([]byte, 0, ckptChunkSize)}
	fw, err := flate.NewWriter(cw, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(state); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.finish(); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, fmt.Sprintf("%s%020d%s", ckptPrefix, 2, ckptSuffix))
	if err := os.WriteFile(name, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	if idx, got := l.Checkpoint(); idx != 2 || !bytes.Equal(got, state) {
		t.Fatalf("Checkpoint = (%d, %d bytes), want the decompressed %d bytes at 2", idx, len(got), len(state))
	}
}

func TestTornCheckpointTmpRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 6)
	if err := l.SaveCheckpoint(4, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-background-checkpoint: a torn tmp file at a
	// higher index that never reached its rename commit point.
	torn := filepath.Join(dir, fmt.Sprintf("%s%020d%s.tmp", ckptPrefix, 6, ckptSuffix))
	if err := os.WriteFile(torn, []byte("JCKP\x02\x00garbage-without-terminator"), 0o644); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	if idx, state := l.Checkpoint(); idx != 4 || string(state) != "durable" {
		t.Fatalf("Checkpoint = (%d, %q), want previous durable (4, durable)", idx, state)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn tmp file survived Open: %v", err)
	}
	// The WAL suffix past the durable checkpoint is still replayable.
	if recs := collect(t, l, 4); len(recs) != 2 {
		t.Fatalf("replayed %d records past checkpoint, want 2", len(recs))
	}
}

func TestTruncatedV2CheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, nil)
	appendN(t, l, 1, 4)
	if err := l.SaveCheckpoint(2, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveCheckpoint(4, []byte("new")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Truncate the newest checkpoint mid-chunk: the missing terminator
	// must fail validation and fall back to the previous generation.
	ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"+ckptSuffix))
	newest := ckpts[len(ckpts)-1]
	b, _ := os.ReadFile(newest)
	if err := os.WriteFile(newest, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l = openT(t, dir, nil)
	defer l.Close()
	if idx, state := l.Checkpoint(); idx != 2 || string(state) != "old" {
		t.Fatalf("Checkpoint = (%d, %q), want fallback (2, old)", idx, state)
	}
}
