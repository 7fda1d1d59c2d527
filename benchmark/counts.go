package main

import (
	"runtime"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/simnet"
)

// counters is one reading of every public counter the layers export,
// summed over heads, plus the process-wide runtime figures. Layer
// count metrics are differences of two readings: the benchmark adds no
// counter of its own to the program.
type counters struct {
	net simnet.Stats
	// rsm holds the monotone replica counters only (gauges such as
	// DedupEntries are dropped by add); gcs likewise.
	rsm rsm.Stats
	gcs gcs.Stats
	// cacheHits/cacheMisses are pbs.Server.ReadCacheStats.
	cacheHits, cacheMisses uint64
	executions             int
	mallocs                uint64
	gcPauseNs              uint64
	numGC                  uint32
	cpu                    time.Duration
}

// addHead folds in the counters of head i of cl; a head that is down
// adds nothing.
func (c *counters) addHead(cl *cluster.Cluster, i int) {
	h := cl.Head(i)
	if h == nil {
		return
	}
	rs, gs := h.Replica().Stats(), h.Replica().GroupStats()
	hits, misses := h.Daemon().Server().ReadCacheStats()
	a := &c.rsm
	a.Intercepted += rs.Intercepted
	a.Applied += rs.Applied
	a.Replied += rs.Replied
	a.DedupHits += rs.DedupHits
	a.LocalReads += rs.LocalReads
	a.ReplyQueueDrops += rs.ReplyQueueDrops
	a.Views += rs.Views
	a.ApplyParallelRuns += rs.ApplyParallelRuns
	a.ApplyBarriers += rs.ApplyBarriers
	a.FsyncOverlapNs += rs.FsyncOverlapNs
	if rs.DurabilityLagMax > a.DurabilityLagMax {
		a.DurabilityLagMax = rs.DurabilityLagMax
	}
	a.RecoveryReplayed += rs.RecoveryReplayed
	a.WALAppends += rs.WALAppends
	a.WALFsyncs += rs.WALFsyncs
	a.WALBytes += rs.WALBytes
	a.CheckpointFailures += rs.CheckpointFailures
	if rs.CkptLastDurationNs > a.CkptLastDurationNs {
		a.CkptLastDurationNs = rs.CkptLastDurationNs
	}
	if rs.CkptBytes > a.CkptBytes {
		a.CkptBytes = rs.CkptBytes
	}
	a.TransferInBytes += rs.TransferInBytes
	a.TransferInFull += rs.TransferInFull
	a.TransferInDelta += rs.TransferInDelta
	a.TransferInHybrid += rs.TransferInHybrid
	a.LeaseReads += rs.LeaseReads
	a.LeaseFallbacks += rs.LeaseFallbacks
	a.LeaseRevocations += rs.LeaseRevocations

	g := &c.gcs
	g.Broadcasts += gs.Broadcasts
	g.Delivered += gs.Delivered
	g.Sequenced += gs.Sequenced
	g.Retransmits += gs.Retransmits
	g.NacksSent += gs.NacksSent
	g.Views += gs.Views
	g.FlushAttempts += gs.FlushAttempts
	g.BatchesSent += gs.BatchesSent

	c.cacheHits += hits
	c.cacheMisses += misses
}

// readCounters reads the whole deployment. departed carries what heads
// crashed earlier in the run had counted when they died: a restarted
// head counts from zero again.
func readCounters(sys *system, departed *counters) counters {
	c := counters{net: sys.cl.Net.Stats()}
	if departed != nil {
		c.rsm, c.gcs = departed.rsm, departed.gcs
		c.cacheHits, c.cacheMisses = departed.cacheHits, departed.cacheMisses
	}
	for _, i := range sys.cl.LiveHeads() {
		c.addHead(sys.cl, i)
	}
	for j := 0; j < sys.computes; j++ {
		c.executions += sys.cl.Mom(j).Executions()
	}
	c.readRuntime()
	return c
}

func (c *counters) readRuntime() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.gcPauseNs, c.numGC = m.Mallocs, m.PauseTotalNs, m.NumGC
	c.cpu = processCPU()
}

// runtimeCounters reads only the process-wide figures, for phases
// that gate on allocations without needing the layer counters.
func runtimeCounters() counters {
	var c counters
	c.readRuntime()
	return c
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB returns what survives two forced collections: the second
// empties the sync.Pools the first one only aged, whose contents are
// otherwise whatever the last burst of requests happened to leave.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// layerCounts turns the difference of two counter readings around a
// workload into the per-layer count metrics. ops is every operation
// the workload completed; jobs is how many of them were submissions.
func layerCounts(r *run, before, after counters) {
	m := r.metrics
	ops := float64(r.attempted - r.failed)
	n := int(ops)
	d := func(a, b uint64) float64 { return float64(a - b) }
	heads := float64(envHeads)

	m.set("simnet.msgs_per_op", ratio(d(after.net.Sent, before.net.Sent), ops), n)
	m.set("simnet.bytes_per_op", ratio(d(after.net.Bytes, before.net.Bytes), ops), n)
	m.set("simnet.dropped_full", d(after.net.DroppedFull, before.net.DroppedFull), 0)

	ag, bg := after.gcs, before.gcs
	m.set("gcs.msgs_per_batch", ratio(d(ag.Delivered, bg.Delivered), d(ag.BatchesSent, bg.BatchesSent)), int(d(ag.BatchesSent, bg.BatchesSent)))
	m.set("gcs.retransmits_per_kop", 1000*ratio(d(ag.Retransmits, bg.Retransmits), ops), n)
	m.set("gcs.nacks_per_kop", 1000*ratio(d(ag.NacksSent, bg.NacksSent), ops), n)
	m.set("gcs.flush_attempts_per_view", ratio(d(ag.FlushAttempts, bg.FlushAttempts), d(ag.Views, bg.Views)/heads), int(d(ag.Views, bg.Views)))

	ar, br := after.rsm, before.rsm
	applied := d(ar.Applied, br.Applied)
	m.set("gcs.lease_revocations", d(ar.LeaseRevocations, br.LeaseRevocations), 0)
	m.set("wal.fsyncs_per_op", ratio(d(ar.WALFsyncs, br.WALFsyncs)/heads, ops), n)
	m.set("wal.bytes_per_op", ratio(d(ar.WALBytes, br.WALBytes)/heads, ops), n)
	m.set("rsm.apply_barrier_frac", ratio(d(ar.ApplyBarriers, br.ApplyBarriers), applied), int(applied))
	m.set("rsm.apply_parallel_runs", d(ar.ApplyParallelRuns, br.ApplyParallelRuns), 0)
	m.set("rsm.dedup_hits", d(ar.DedupHits, br.DedupHits), 0)
	m.set("rsm.reply_queue_drops", d(ar.ReplyQueueDrops, br.ReplyQueueDrops), 0)
	m.set("rsm.durability_lag_max_ms", float64(ar.DurabilityLagMax)/1e6, 0)
	m.set("rsm.fsync_overlap_frac", ratio(d(ar.FsyncOverlapNs, br.FsyncOverlapNs)/heads, float64(r.measured)), 0)
	m.set("rsm.lease_hit_ratio", ratio(d(ar.LeaseReads, br.LeaseReads), d(ar.LeaseReads, br.LeaseReads)+d(ar.LeaseFallbacks, br.LeaseFallbacks)), int(d(ar.LeaseReads, br.LeaseReads)+d(ar.LeaseFallbacks, br.LeaseFallbacks)))
	m.set("rsm.checkpoint_ms", float64(ar.CkptLastDurationNs)/1e6, 0)
	m.set("rsm.checkpoint_mb", float64(ar.CkptBytes)/(1<<20), 0)
	m.set("rsm.checkpoint_failures", d(ar.CheckpointFailures, br.CheckpointFailures), 0)
	m.set("rsm.transfer_delta", d(ar.TransferInDelta, br.TransferInDelta), 0)
	m.set("rsm.transfer_hybrid", d(ar.TransferInHybrid, br.TransferInHybrid), 0)
	m.set("rsm.transfer_full", d(ar.TransferInFull, br.TransferInFull), 0)
	m.set("rsm.transfer_mb", d(ar.TransferInBytes, br.TransferInBytes)/(1<<20), 0)
	m.set("rsm.recovery_replayed", d(ar.RecoveryReplayed, br.RecoveryReplayed), 0)

	reads := d(after.cacheHits, before.cacheHits) + d(after.cacheMisses, before.cacheMisses)
	m.set("pbs.read_cache_hit_ratio", ratio(d(after.cacheHits, before.cacheHits), reads), int(reads))
	if r.w.jobsRun {
		jobs := float64(r.jobs)
		m.set("pbs.commands_per_job", ratio(applied/heads, jobs), int(jobs))
		m.set("pbs.executions_per_job", ratio(float64(after.executions-before.executions), jobs), int(jobs))
	}

	m.set("runtime.cpu_ms_per_op", ratio(ms(after.cpu-before.cpu), ops), n)
	m.set("runtime.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6, 0)
	m.set("runtime.num_gc", float64(after.numGC-before.numGC), 0)
}
