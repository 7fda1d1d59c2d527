// Package joshua implements the paper's primary contribution: JOSHUA
// (job scheduler for high availability using active replication), a
// virtually synchronous environment that makes a PBS-compliant job and
// resource management service symmetric active/active highly
// available by external replication — no service code is modified.
//
// Each head node runs a Server, which plays the role of the joshua
// server process: it intercepts PBS user commands arriving from the
// control commands (jsub, jdel, jstat — see the Client type and
// cmd/joshua), pushes them through the generic replication
// engine (internal/rsm) for reliable totally ordered execution
// against the local batch service (internal/pbs, the TORQUE+Maui
// equivalent), and relays the output back to the user exactly once.
// A job's end is one more command in that order: the jdone its first
// node's mom sends (MomHooks wires it). With completions ordered,
// every head places, and so launches, each job identically; that is
// what the paper's jmutex lock round in the mom prologue had to decide,
// and this design no longer needs it.
//
// The service-independent machinery — total order, request
// deduplication, the output rule, join-time state transfer —
// lives entirely in internal/rsm; this package contributes only the
// PBS protocol (wire.go), the one service adapter holding the batch
// daemon (service.go), and the head-node assembly below.
//
// As long as one head node survives, the service remains available
// with no interruption and no loss of state: there is no failover,
// surviving heads simply continue, and the compute-node moms adapt.
package joshua

import (
	"errors"
	"fmt"
	"sync/atomic"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// Config parameterizes a JOSHUA head-node server. The embedded
// rsm.Config carries every replication-engine setting (identity,
// endpoints, group formation, durability, leases, pool sizes, TuneGCS,
// Logger); StartServer fills its Service, Classify, RejectNotPrimary
// and RejectShutdown on a copy, so whatever the caller
// puts there is ignored.
type Config struct {
	rsm.Config

	// Daemon is the local batch service (the TORQUE+Maui equivalent
	// of this head node). Required.
	Daemon *pbs.Daemon

	// Shard and Shards place this head in a sharded deployment: the
	// head belongs to replication group Shard of Shards total (see
	// internal/shard). The server itself never routes — clients do —
	// but it reports its placement through jadmin, and the daemon it
	// is configured with must carry the matching pbs.Config.IDFilter
	// so the shard only mints job IDs it owns. Zero values mean the
	// single-group deployment.
	Shard  int
	Shards int
}

// Server is one JOSHUA head node: the PBS batch service behind a
// generic replication engine.
type Server struct {
	cfg Config
	// rep is assigned after rsm.NewReplica returns, but the replica
	// serves datagrams (and hence this server's read handlers) as
	// soon as its transport is wired inside NewReplica — atomic so an
	// early request observes either nil or the full pointer, never a
	// torn write.
	rep    atomic.Pointer[rsm.Replica]
	daemon *pbs.Daemon
	// serveReadFn is serveRead bound once at construction; handing the
	// same func value to every read Classification avoids a per-request
	// method-value allocation on the hot path.
	serveReadFn func(payload []byte) *codec.Encoder
}

// Errors.
var (
	ErrNotPrimary = errors.New("joshua: head node not in primary component")
)

// StartServer creates and runs a head-node server. The returned
// server is accepting client commands once Ready() is closed.
func StartServer(cfg Config) (*Server, error) {
	if cfg.Daemon == nil {
		return nil, errors.New("joshua: Config.Daemon required")
	}
	if cfg.ClientEndpoint == nil {
		return nil, errors.New("joshua: Config.ClientEndpoint required")
	}

	s := &Server{cfg: cfg, daemon: cfg.Daemon}
	s.serveReadFn = s.serveRead
	// Every head applies the same placements, and the view's sequencer
	// alone relays them to the moms, as it alone answers a command
	// whose origin has left. A head in no view yet — recovering its
	// log, or joining — is not the sender.
	cfg.Daemon.SetSender(func() bool {
		rep := s.rep.Load()
		return rep != nil && rep.View().Sequencer() == cfg.Self
	})

	rc := cfg.Config
	rc.Service = newHeadService(cfg.Daemon)
	rc.Classify = s.classify
	rc.RejectNotPrimary = func(reqID []byte) []byte {
		return (&rpcResponse{ReqID: string(reqID), OK: false, ErrMsg: ErrNotPrimary.Error()}).encode()
	}
	rc.RejectShutdown = func(reqID []byte) []byte {
		return (&rpcResponse{ReqID: string(reqID), OK: false, ErrMsg: "head node shutting down"}).encode()
	}
	rep, err := rsm.Start(rc)
	if err != nil {
		return nil, err
	}
	s.rep.Store(rep)
	return s, nil
}

// classify sorts one control-command datagram: queries are answered
// locally (serveRead, the Respond hook), queries carrying the Ordered
// flag are linearizable reads the replica serves under its read lease
// or orders, and mutations flow through the total order. It only
// peeks at the request header (kind, ReqID, op, ordered); a read's
// full argument decode happens in serveRead.
func (s *Server) classify(payload []byte) rsm.Classification {
	// The ReqID stays a zero-copy view into the datagram, which the
	// replica holds for as long as it reads the ID.
	var v view
	if !v.header(codec.NewDecoder(payload)) {
		return rsm.Classification{Verdict: rsm.Ignore}
	}
	switch {
	case v.op.mutating():
		return rsm.Classification{Verdict: rsm.Replicate, ReqID: v.reqID}
	case v.ordered:
		return rsm.Classification{Verdict: rsm.OrderedRead, ReqID: v.reqID, Respond: s.serveReadFn}
	}
	return rsm.Classification{Verdict: rsm.Reply, Respond: s.serveReadFn}
}

// Ready is closed once the head has joined (or formed) the group and
// installed its first view.
func (s *Server) Ready() <-chan struct{} { return s.rep.Load().Ready() }

// Self returns the head's member identity.
func (s *Server) Self() gcs.MemberID { return s.cfg.Self }

// View returns the most recent group view.
func (s *Server) View() gcs.View { return s.rep.Load().View() }

// Daemon returns the local batch service (for inspection in tests and
// status tooling).
func (s *Server) Daemon() *pbs.Daemon { return s.daemon }

// Replica returns the underlying replication engine (for inspection
// in tests and status tooling).
func (s *Server) Replica() *rsm.Replica { return s.rep.Load() }

// Stats returns a snapshot of the replica counters.
func (s *Server) Stats() rsm.Stats { return s.rep.Load().Stats() }

// Leave announces a voluntary departure (the paper handles it as a
// forced failure) and shuts the head down.
func (s *Server) Leave() {
	s.rep.Load().Leave()
	s.daemon.Close()
}

// Close stops the head node immediately, simulating a crash.
func (s *Server) Close() {
	s.rep.Load().Close()
	s.daemon.Close()
}

// serveRead builds the response for one read-classified request into
// a pooled encoder (released by the replica once the send returns). It runs on a read-worker goroutine, concurrently with command
// application, so it touches only concurrency-safe state: the batch
// server behind its RWMutex and its per-version listing, and the
// replica's counter snapshots.
//
// Every local read carries the batch-state version it was served at,
// so sharded clients can reject snapshots that regress behind one they
// already saw (per-shard monotonic reads).
func (s *Server) serveRead(payload []byte) *codec.Encoder {
	var v view
	if !v.parse(payload) {
		return nil
	}
	e := codec.GetEncoder(256)
	switch {
	case v.op == OpInfoLocal:
		putResponse(e, v.reqID, &rpcResponse{OK: true, Info: s.infoLocked(), Epoch: s.daemon.Server().Version()})
	case v.op.mutating():
		putResponse(e, v.reqID, &rpcResponse{
			ErrMsg: fmt.Sprintf("joshua: operation %v is not a local read", v.op),
			Epoch:  s.daemon.Server().Version(),
		})
	default:
		// jstat, with or without a job ID, and the node listing: the
		// same reply an ordered read gets, built on the live table.
		execute(e, s.daemon, &v)
	}
	return e
}

// infoLocked builds the jadmin report from concurrency-safe snapshots
// (it runs on read workers since the concurrent read path landed; the
// name is historical).
func (s *Server) infoLocked() map[string]string {
	rep := s.rep.Load()
	if rep == nil {
		// A read raced server startup (the replica serves before
		// StartServer finishes); report the bare minimum. The client
		// retries or the prober re-asks later.
		return map[string]string{"head": string(s.cfg.Self), "mode": "starting"}
	}
	waiting, running, completed := s.daemon.Server().QueueLengths()
	dst := s.daemon.Stats()
	st := rep.Stats()
	gst := rep.GroupStats()
	cacheHits, _ := s.daemon.Server().ReadCacheStats()
	view := rep.View()
	shards := s.cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	info := map[string]string{
		"head":               string(s.cfg.Self),
		"mode":               "replicated",
		"shard":              fmt.Sprintf("%d", s.cfg.Shard),
		"shards":             fmt.Sprintf("%d", shards),
		"view":               fmt.Sprintf("%d", view.ID),
		"members":            fmt.Sprintf("%v", view.Members),
		"primary":            fmt.Sprintf("%v", view.Primary),
		"jobs_waiting":       fmt.Sprintf("%d", waiting),
		"jobs_running":       fmt.Sprintf("%d", running),
		"jobs_completed":     fmt.Sprintf("%d", completed),
		"cmds_applied":       fmt.Sprintf("%d", st.Applied),
		"cmds_replied":       fmt.Sprintf("%d", st.Replied),
		"dedup_entries":      fmt.Sprintf("%d", st.DedupEntries),
		"dedup_hits":         fmt.Sprintf("%d", st.DedupHits),
		"local_reads":        fmt.Sprintf("%d", st.LocalReads),
		"read_cache_hits":    fmt.Sprintf("%d", cacheHits),
		"read_workers":       fmt.Sprintf("%d", st.ReadWorkers),
		"read_queue_depth":   fmt.Sprintf("%d", st.ReadQueueDepth),
		"reply_queue_drops":  fmt.Sprintf("%d", st.ReplyQueueDrops), // failed Sends; the transport's per-peer queue drops the rest
		"apply_overlap_ns":   fmt.Sprintf("%d", st.FsyncOverlapNs),
		"apply_dlag_max_ns":  fmt.Sprintf("%d", st.DurabilityLagMax),
		"mem_heap_alloc":     fmt.Sprintf("%d", st.HeapAllocBytes),
		"mem_gc_pause_ns":    fmt.Sprintf("%d", st.GCPauseNs),
		"mem_gc_count":       fmt.Sprintf("%d", st.NumGC),
		"mem_allocs_per_cmd": fmt.Sprintf("%.1f", st.AllocsPerCmd),
		"lease_held":         fmt.Sprintf("%v", st.LeaseHeld),
		"lease_reads":        fmt.Sprintf("%d", st.LeaseReads),
		"lease_waits":        fmt.Sprintf("%d", st.LeaseWaits),
		"lease_fallbacks":    fmt.Sprintf("%d", st.LeaseFallbacks),
		"lease_fb_no_lease":  fmt.Sprintf("%d", st.LeaseFallbackNoLease),
		"lease_fb_wait":      fmt.Sprintf("%d", st.LeaseFallbackWait),
		"lease_revocations":  fmt.Sprintf("%d", st.LeaseRevocations),
		"gcs_broadcasts":     fmt.Sprintf("%d", gst.Broadcasts),
		"gcs_delivered":      fmt.Sprintf("%d", gst.Delivered),
		"gcs_retransmits":    fmt.Sprintf("%d", gst.Retransmits),
		"gcs_views":          fmt.Sprintf("%d", gst.Views),
		"mom_sent":           fmt.Sprintf("%d", dst.Sent),
		"mom_resent":         fmt.Sprintf("%d", dst.Resent),
		"mom_acks":           fmt.Sprintf("%d", dst.Acks),
		"mom_adopted":        fmt.Sprintf("%d", dst.Adopted),
	}
	// State transfers by direction and shape: base only (full), log
	// suffix only (delta), or both (hybrid).
	info["transfer_in_full"] = fmt.Sprintf("%d", st.TransferInFull)
	info["transfer_in_delta"] = fmt.Sprintf("%d", st.TransferInDelta)
	info["transfer_in_hybrid"] = fmt.Sprintf("%d", st.TransferInHybrid)
	info["transfer_out_full"] = fmt.Sprintf("%d", st.TransferOutFull)
	info["transfer_out_delta"] = fmt.Sprintf("%d", st.TransferOutDelta)
	info["transfer_out_hybrid"] = fmt.Sprintf("%d", st.TransferOutHybrid)
	if s.cfg.DataDir != "" {
		info["wal_dir"] = s.cfg.DataDir
		info["wal_policy"] = s.cfg.SyncPolicy.String()
		info["wal_appends"] = fmt.Sprintf("%d", st.WALAppends)
		info["wal_fsyncs"] = fmt.Sprintf("%d", st.WALFsyncs)
		info["wal_bytes"] = fmt.Sprintf("%d", st.WALBytes)
		info["wal_segments"] = fmt.Sprintf("%d", st.WALSegments)
		info["wal_applied_index"] = fmt.Sprintf("%d", st.AppliedIndex)
		info["wal_checkpoint_index"] = fmt.Sprintf("%d", st.CheckpointIndex)
		info["wal_recovery_replayed"] = fmt.Sprintf("%d", st.RecoveryReplayed)
		info["ckpt_inflight"] = fmt.Sprintf("%v", st.CkptInflight)
		info["ckpt_last_duration_ns"] = fmt.Sprintf("%d", st.CkptLastDurationNs)
		info["ckpt_bytes"] = fmt.Sprintf("%d", st.CkptBytes)
		info["ckpt_failures"] = fmt.Sprintf("%d", st.CheckpointFailures)
	}
	return info
}
