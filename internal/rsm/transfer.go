package rsm

import (
	"fmt"

	"joshua/internal/gcs"
	"joshua/internal/wal"
)

// loadState installs a decoded replicaState: service, dedup table,
// applied index. reset drops the ring and shrinks the index back to
// its initial footprint, so a transfer-bloated table is not pinned.
func (r *Replica) loadState(st *replicaState) error {
	if err := r.service.Restore(st.Service); err != nil {
		return err
	}
	r.dedup.reset()
	for i, id := range st.DedupIDs {
		// Index 0: transferred/checkpointed responses predate the local
		// log, so the durability gate treats them as always durable.
		r.dedup.put(id, st.DedupResp[i], 0)
	}
	r.appliedIdx = st.Applied
	r.appliedPub.Store(r.appliedIdx)
	r.bump(func(s *Stats) {
		s.DedupEntries = r.dedup.live()
		s.AppliedIndex = r.appliedIdx
	})
	return nil
}

// serveTransfer answers a join-time snapshot request. The loop only
// captures a copy-on-write image and the dedup snapshot, and a
// background goroutine assembles the transfer and calls ev.Reply — the
// group's flush protocol blocks quiescent until the reply (or its
// timeout), so a late reply from another goroutine is the intended
// contract, and the donor's event loop never stalls on a 4000-node
// join.
func (r *Replica) serveTransfer(ev gcs.SnapshotRequestEvent) {
	go r.buildTransfer(ev, r.fork())
}

// buildTransfer assembles a join-time transfer off the event loop. The
// group is quiescent for the duration of the flush — appliedIdx cannot
// advance before Reply — but the background checkpointer may prune WAL
// segments and checkpoint generations concurrently, so each source is
// validated and falls through: the log suffix after the joiner's
// advertised index alone; else the newest durable checkpoint plus the
// suffix after it (retried against concurrent pruning); else the image
// the loop forked at dispatch, which needs no disk state and therefore
// cannot lose a race. An in-memory donor (no log) has only the last.
func (r *Replica) buildTransfer(ev gcs.SnapshotRequestEvent, job ckptJob) {
	labelStage("transfer_builder")
	t := &transfer{Applied: job.index}
	ok := false
	if r.log != nil && ev.Since > 0 {
		t.Records, ok = r.suffix(ev.Since, job.index)
	}
	for attempt := 0; !ok && r.log != nil && attempt < 3; attempt++ {
		var ckptIdx uint64
		if ckptIdx, t.Base = r.log.Checkpoint(); t.Base == nil || ckptIdx > job.index {
			break // no checkpoint yet, or one past the flush point
		}
		t.Records, ok = r.suffix(ckptIdx, job.index)
	}
	if !ok {
		st := &replicaState{Applied: job.index, Service: job.encode(), DedupIDs: job.ids, DedupResp: job.resps}
		t.Base, t.Records = st.encode(), nil
	}
	r.bump(func(st *Stats) { t.tally(&st.TransferOutFull, &st.TransferOutDelta, &st.TransferOutHybrid) })
	r.logf("serving transfer to index %d: %d-byte base + %d records", job.index, len(t.Base), len(t.Records))
	ev.Reply(t.encode())
}

// suffix reads the log records (since, applied] for a transfer. False
// means the log does not hold all of them — pruned beneath a
// concurrent checkpoint, or never written.
func (r *Replica) suffix(since, applied uint64) ([]wal.Record, bool) {
	if since > applied {
		return nil, false
	}
	recs, ok := r.log.ReadSince(since)
	if !ok {
		return nil, false
	}
	for i, rec := range recs {
		if rec.Index > applied {
			recs = recs[:i]
			break
		}
	}
	return recs, since+uint64(len(recs)) == applied
}

// restoreTransfer installs a join-time state transfer.
func (r *Replica) restoreTransfer(b []byte) error {
	t, err := decodeTransfer(b)
	if err != nil {
		return err
	}
	r.bump(func(st *Stats) { st.TransferInBytes += uint64(len(b)) })
	replayed, err := r.install(t, true)
	if err != nil {
		return err
	}
	r.bump(func(st *Stats) {
		t.tally(&st.TransferInFull, &st.TransferInDelta, &st.TransferInHybrid)
		st.TransferReplayed += replayed
	})
	return nil
}

// recoverLocal rebuilds the replica from its data directory before it
// joins the group: the newest checkpoint is the base, and every log
// record after it the suffix.
func (r *Replica) recoverLocal() error {
	ckptIdx, base := r.log.Checkpoint()
	recs, ok := r.log.ReadSince(ckptIdx)
	if !ok {
		return fmt.Errorf("rsm: log does not hold a readable suffix after checkpoint %d", ckptIdx)
	}
	replayed, err := r.install(&transfer{Applied: r.log.LastIndex(), Base: base, Records: recs}, false)
	if err != nil {
		return fmt.Errorf("rsm: recovering checkpoint %d + %d records: %w", ckptIdx, len(recs), err)
	}
	// The recovered suffix counts toward the cadence, so a head that
	// restarts more often than every CheckpointEvery commands still
	// checkpoints, and its next restart replays a bounded suffix.
	r.sinceCkpt = r.appliedIdx - ckptIdx
	r.bump(func(st *Stats) { st.RecoveryReplayed = replayed })
	if replayed > 0 || base != nil {
		r.logf("recovered locally to applied index %d (checkpoint %d + %d replayed)",
			r.appliedIdx, ckptIdx, replayed)
	}
	return nil
}

// install rebuilds the replica from t. A base, when present, replaces
// the service state, the dedup table and the applied index; a received
// one also becomes the local log's durable base, discarding the local
// suffix, which may diverge from the group's history. The records
// after it then replay through applyBatch, which logs only records
// above the log's last index: a received suffix is written to the
// local log, a recovered one is not written twice.
func (r *Replica) install(t *transfer, received bool) (uint64, error) {
	if len(t.Base) > 0 {
		st, err := decodeReplicaState(t.Base)
		if err != nil {
			return 0, err
		}
		if err := r.loadState(st); err != nil {
			return 0, err
		}
		r.sinceCkpt = 0
		if received && r.log != nil {
			if err := r.log.Reset(st.Applied, t.Base); err != nil {
				r.logf("wal reset after state transfer failed: %v", err)
			}
		}
	}
	return r.replay(t.Records, t.Applied)
}

// replay feeds log records through applyBatch like live rounds and
// checks that they end at applied. Records at or below the applied
// index are skipped — a suffix shared by several joiners, or one whose
// prefix the base already covers. Every record was fresh when first
// applied, so a batch is cut before any record whose ReqID the dedup
// table still holds: the pending batch's inserts evict it exactly as
// live execution did before that record's lookup. The batch cap (see
// replayBatchMax) keeps two copies of one ReqID in separate batches.
func (r *Replica) replay(recs []wal.Record, applied uint64) (uint64, error) {
	var replayed uint64
	batchMax := r.replayBatchMax()
	batch := make([]*envelope, 0, min(batchMax, len(recs)))
	flush := func() {
		r.applyBatch(batch) // releases the envelopes
		batch = batch[:0]
	}
	fail := func(err error) (uint64, error) {
		for _, env := range batch {
			env.release()
		}
		return replayed, err
	}
	for _, rec := range recs {
		at := r.appliedIdx + uint64(len(batch))
		if rec.Index <= at {
			continue
		}
		if rec.Index != at+1 {
			return fail(fmt.Errorf("rsm: log gap: record %d after applied %d", rec.Index, at))
		}
		env := getEnvelope()
		if err := r.decodeEnvelopeInto(env, rec.Data); err != nil {
			env.release()
			return fail(fmt.Errorf("rsm: log record %d: %w", rec.Index, err))
		}
		if _, _, seen := r.dedup.lookup(env.ReqID); seen || len(batch) >= batchMax {
			flush()
		}
		batch = append(batch, env)
		replayed++
	}
	flush()
	if r.appliedIdx != applied {
		return replayed, fmt.Errorf("rsm: replay ends at %d, want %d", r.appliedIdx, applied)
	}
	return replayed, nil
}

// replayBatchMax caps the batches replay feeds the apply stage at
// DedupLimit records: a ReqID logged twice implies more than DedupLimit
// fresh inserts between the two copies (the first entry had to be
// evicted before the retry could re-log), so a batch this size never
// holds a same-ReqID pair.
func (r *Replica) replayBatchMax() int {
	return min(512, r.cfg.DedupLimit)
}
