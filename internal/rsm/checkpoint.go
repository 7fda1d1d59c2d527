package rsm

import (
	"io"
	"runtime"
	"time"
)

// ckptJob is one replica image for a background checkpoint or state
// transfer: the applied index it covers, the forked service encoder,
// and the dedup-table snapshot captured on the loop at the same
// instant (capturing it later would let the table drift past the
// service image and break exactly-once on recovery).
type ckptJob struct {
	index  uint64
	encode func() []byte
	ids    [][]byte
	resps  [][]byte
}

// maybeCheckpoint starts a checkpoint when the cadence is due, or when
// a failed attempt's retry backoff has expired. The loop only captures
// the copy-on-write image and the dedup snapshot — both must reflect
// exactly appliedIdx — and the checkpointer goroutine serializes,
// CRCs, and fsyncs off-loop.
func (r *Replica) maybeCheckpoint() {
	if r.log == nil {
		return
	}
	if r.sinceCkpt < r.cfg.CheckpointEvery && !r.ckptRetry.Load() {
		return
	}
	if at := r.ckptRetryAt.Load(); at != 0 && time.Now().UnixNano() < at {
		return // failure backoff: don't thrash the serialize+fsync
	}
	if r.ckptInflight.Load() {
		return // one outstanding background checkpoint at a time
	}
	job := r.fork()
	r.ckptInflight.Store(true)
	r.ckptRetry.Store(false)
	r.sinceCkpt = 0
	r.ckptQ <- job // buffered 1; the inflight gate makes this non-blocking
}

// fork captures the replica image at the current applied index; loop
// only.
func (r *Replica) fork() ckptJob {
	ids, resps := r.dedup.snapshot()
	return ckptJob{index: r.appliedIdx, encode: r.service.Fork(), ids: ids, resps: resps}
}

// checkpointer serializes, frames, and fsyncs forked checkpoint images
// off the event loop. One job is in flight at a time (ckptInflight);
// a failure arms the retry backoff.
func (r *Replica) checkpointer() {
	labelStage("checkpointer")
	for {
		select {
		case <-r.done:
			return
		case job := <-r.ckptQ:
			t0 := time.Now()
			st := &replicaState{
				Applied:   job.index,
				Service:   job.encode(),
				DedupIDs:  job.ids,
				DedupResp: job.resps,
			}
			prefix, tail := st.encodeSplit()
			size := len(prefix) + len(st.Service) + len(tail)
			src := io.MultiReader(&pacedReader{b: prefix}, &pacedReader{b: st.Service}, &pacedReader{b: tail})
			if err := r.log.SaveCheckpointFrom(job.index, src); err != nil {
				r.logf("checkpoint at %d failed: %v", job.index, err)
				r.checkpointFailed()
			} else {
				r.checkpointDone(t0, size)
				r.logf("checkpoint at applied index %d", job.index)
			}
			r.ckptInflight.Store(false)
		}
	}
}

// pacedReader feeds the checkpoint writer in small slices, yielding
// the processor after each one. The chunking+CRC work downstream is
// CPU-bound; on a small GOMAXPROCS the background write would
// otherwise hold the only P for a full preemption slice at a time,
// and every goroutine wakeup in a command's multi-hop path (loop →
// WAL → apply → reply) pays that delay — the very stall the off-loop
// checkpointer exists to remove. Yielding every 64 KiB bounds the
// induced pause at the cost of one slice.
type pacedReader struct {
	b []byte
}

func (p *pacedReader) Read(dst []byte) (int, error) {
	if len(p.b) == 0 {
		return 0, io.EOF
	}
	n := len(dst)
	if n > 64<<10 {
		n = 64 << 10
	}
	if n > len(p.b) {
		n = len(p.b)
	}
	copy(dst, p.b[:n])
	p.b = p.b[n:]
	runtime.Gosched()
	return n, nil
}

// ckptRetryBase is the first failure's backoff; each consecutive
// failure doubles it, capped at ckptRetryMax.
const (
	ckptRetryBase = 100 * time.Millisecond
	ckptRetryMax  = 10 * time.Second
)

// checkpointFailed arms the retry backoff after a failed checkpoint
// attempt: the checkpoint is still owed (ckptRetry), but the backoff
// keeps the loop from re-running the full serialize+fsync every round
// against a sick disk.
func (r *Replica) checkpointFailed() {
	n := r.ckptFails.Add(1)
	shift := n - 1
	if shift > 7 {
		shift = 7
	}
	backoff := ckptRetryBase << shift
	if backoff > ckptRetryMax {
		backoff = ckptRetryMax
	}
	r.ckptRetryAt.Store(time.Now().Add(backoff).UnixNano())
	r.ckptRetry.Store(true)
	r.bump(func(st *Stats) { st.CheckpointFailures++ })
}

// checkpointDone clears the failure backoff and records the completed
// checkpoint's duration and size.
func (r *Replica) checkpointDone(t0 time.Time, size int) {
	r.ckptFails.Store(0)
	r.ckptRetryAt.Store(0)
	r.ckptRetry.Store(false)
	dur := uint64(time.Since(t0))
	r.bump(func(st *Stats) {
		st.CkptLastDurationNs = dur
		st.CkptBytes = uint64(size)
	})
}
