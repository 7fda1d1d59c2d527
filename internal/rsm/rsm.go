// Package rsm is the service-agnostic replicated-state-machine core
// of the symmetric active/active architecture: everything the paper's
// JOSHUA layer does that is independent of the service being
// replicated. A Replica owns the group communication event loop,
// applies totally ordered commands to a pluggable Service, keeps the
// exactly-once request-deduplication table (with FIFO eviction),
// enforces the output rule (the origin and the sequencer reply) and
// non-primary output suppression, and carries the service state plus
// the dedup table through join-time state transfer.
//
// Query commands do not change state and need no ordering, so the
// engine splits the two paths: totally ordered commands apply on the
// single event-loop goroutine (determinism), while Reply-classified
// datagrams — local reads and protocol-level rejections — are served
// by a pool of read workers that receive straight from the client
// endpoint and read a concurrency-safe service view. Every response
// goes to the transport from the goroutine that built it: Send never
// blocks (each transport queues per peer), so a slow client socket
// never stalls command application.
//
// The write path itself is pipelined: each event-loop round appends
// its commands to the write-ahead log and issues the group-commit
// fsync asynchronously (wal.CommitTicket), then applies the round's
// commands one at a time, in log order on the loop, while the fsync is
// in flight. A releaser goroutine couples the two stages back
// together, releasing each round's client replies in order only once
// both its applies and its covering fsync have completed — no client
// ever sees an acknowledgment the log could still lose.
//
// Checkpoints and join-time state transfers never stall the loop
// either: the loop only captures a copy-on-write image (Service.Fork),
// and a background goroutine serializes, fsyncs, or ships it.
//
// The paper's central claim is that this machinery is *external*: it
// wraps any deterministic service behind its command interface, with
// TORQUE merely the instance evaluated. Accordingly the PBS batch
// system (internal/joshua wires it up as one Service, completions
// included) and the key-value demo store (internal/rsm/kvstore) run on
// this identical engine.
package rsm

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// labelStage tags the calling goroutine with an rsm_stage pprof label,
// so CPU/heap/mutex profiles (go test -cpuprofile etc.) attribute
// samples to pipeline stages instead of anonymous goroutines.
func labelStage(name string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("rsm_stage", name)))
}

// Command is one totally ordered command delivered to the Service.
// Every replica applies the same commands in the same order; Payload
// is opaque to the engine.
type Command struct {
	// ReqID is the client request identifier, the deduplication key.
	// Like Payload it is a view into the delivered command and valid
	// only while Apply runs.
	ReqID []byte
	// Payload is the service-defined command encoding (for request-
	// originated commands, the client datagram verbatim).
	Payload []byte
	// Origin is the replica that intercepted the command.
	Origin gcs.MemberID
	// Client is where the response goes; empty for internally
	// originated commands (no reply is sent).
	Client transport.Addr
}

// Service is the deterministic state machine being replicated.
// Apply, Fork and Restore are invoked from the Replica's event loop
// goroutine only (local recovery in Start calls them before the loop
// runs), one call at a time, in total order. Any state a
// Classification's Respond hook reads is read on read-worker
// goroutines concurrently with Apply, and must be guarded (an RWMutex
// or a copy-on-write snapshot; see internal/pbs for the pattern).
type Service interface {
	// Apply executes one totally ordered command against local state
	// and writes the encoded response to relay to the client into
	// reply, an empty pooled encoder the engine owns: the engine copies
	// the bytes into its deduplication table and sends the reply from
	// reply itself, so Apply must not keep it. Writing nothing means
	// the command produces no reply (internal commands, malformed
	// payloads); it is still recorded in the dedup table.
	Apply(cmd Command, reply *codec.Encoder)
	// Snapshot encodes the full service state. The engine serializes
	// through Fork; Snapshot is the reference encoding every fork must
	// reproduce byte for byte (the cross-replica determinism suites
	// compare snapshots, so checkpoints and transfers encoded from a
	// fork must be interchangeable with it).
	Snapshot() []byte
	// Fork captures a copy-on-write image of the state and returns its
	// encoder. The capture runs on the event loop, serialized against
	// Apply, and must return quickly — shallow-copy the top-level maps
	// behind the service's read lock, nothing more. The encoder runs
	// later on an arbitrary goroutine, concurrently with subsequent
	// Applies, and must return exactly what Snapshot() would have
	// returned at fork time. Checkpoints are serialized and fsynced,
	// and join-time transfers assembled, from this image off the loop,
	// so neither stalls command application however large the state.
	Fork() func() []byte
	// Restore replaces the service state from a Snapshot.
	Restore(state []byte) error
}

// Verdict tells the Replica what to do with one client datagram.
type Verdict int

const (
	// Ignore drops the datagram (malformed, not a request).
	Ignore Verdict = iota
	// Reply answers immediately with the classification's response —
	// local reads and protocol-level rejections, served without
	// ordering, off the event loop.
	Reply
	// Replicate pushes the datagram through the total order; every
	// replica applies it; the origin and the sequencer answer.
	Replicate
	// OrderedRead is a linearizable read. A replica holding a live
	// read lease answers it locally with Respond once its state covers
	// every command acknowledged before the read arrived, waiting for
	// that if it must; otherwise the read is replicated under ReqID
	// like a Replicate datagram (see Replica.leasedRead).
	OrderedRead
)

// Classification is the Classifier's decision for one datagram.
type Classification struct {
	Verdict Verdict
	// ReqID is the deduplication key; required for Replicate and
	// OrderedRead. It may be a view into the datagram: the replica
	// reads it only while it holds the payload.
	ReqID []byte
	// Respond builds a Reply or OrderedRead response into a pooled encoder
	// (codec.GetEncoder), which the replica returns to the pool once
	// the send returns, so the read reply path allocates nothing. It
	// receives the datagram payload back from the replica, so the
	// classifier can install one long-lived function (e.g. a bound
	// method) instead of allocating a capturing closure per request.
	// It runs on a read worker, concurrently with Service.Apply. A nil
	// Respond, or a nil encoder, sends nothing.
	Respond func(payload []byte) *codec.Encoder
}

// Classifier inspects one inbound client datagram and returns the
// verdict plus, for a Reply, the Respond hook that builds the answer.
// It runs on a read worker, concurrently with Service.Apply and with
// the other read workers, so it must be safe to call from any
// goroutine.
//
// Replicate-classified requests are broadcast by the read-worker pool,
// so two requests one client has outstanding at the same time may
// enter the total order — and be answered — in either order: replies
// follow total order, not send order. A client that needs its commands
// applied in send order awaits each reply before sending the next.
type Classifier func(payload []byte) Classification

// Config parameterizes a Replica.
type Config struct {
	// Self is this replica's member identity.
	Self gcs.MemberID
	// GroupEndpoint carries group communication; the replica owns it.
	GroupEndpoint transport.Endpoint
	// ClientEndpoint receives client request datagrams; the replica
	// owns it.
	ClientEndpoint transport.Endpoint
	// Peers maps every potential replica to its group address.
	Peers map[gcs.MemberID]transport.Addr

	// Group formation: exactly one of InitialMembers (static
	// bootstrap), Bootstrap (found a new group), or neither (join an
	// existing group through Peers).
	InitialMembers []gcs.MemberID
	Bootstrap      bool

	// PartitionPolicy is forwarded to the group layer. The default
	// FailStop matches the paper's fail-stop model.
	PartitionPolicy gcs.PartitionPolicy

	// Service is the replicated state machine. Required.
	Service Service
	// Classify parses client datagrams. Required.
	Classify Classifier

	// DedupLimit bounds the request-deduplication table. Default 4096
	// entries.
	DedupLimit int

	// ReadConcurrency sizes the read-worker pool. Every worker receives
	// from ClientEndpoint and classifies and serves what it gets (local
	// reads, dedup-retry probes, broadcasts) off the event loop. Zero
	// selects the default, runtime.GOMAXPROCS(0); negative is a Start
	// error.
	ReadConcurrency int

	// LeaseDuration is the length of the sequencer-granted read leases
	// that let this replica serve linearizable (ordered) reads from
	// local state without a broadcast — see leasedRead. Zero selects
	// the group layer's default length; negative is a Start error.
	// The field is only the request: TuneGCS may override it (and
	// cluster.Options.TuneGCS callers typically leave it zero), so the
	// replica reads the length in force back from the group layer
	// (gcs.Process.LeaseDuration) and nothing should read it here.
	// Leases need safe delivery in the group layer (the grant is only
	// sound when an acked command is known received at every holder),
	// so the replica always turns it on; a TuneGCS that turns it off
	// simply stops grants, and ordered reads fall back to the
	// broadcast path.
	LeaseDuration time.Duration

	// RejectNotPrimary builds the response sent for a replicate-
	// classified request arriving at a replica outside the primary
	// component. Nil drops such requests silently (the client's retry
	// finds a primary replica by failover).
	RejectNotPrimary func(reqID []byte) []byte
	// RejectShutdown builds the response sent when the group layer
	// refuses a broadcast because the replica is shutting down. Nil
	// drops the request silently.
	RejectShutdown func(reqID []byte) []byte

	// DataDir, when set, enables the durability layer: every applied
	// command is written through a write-ahead log in this directory,
	// the full state is checkpointed every CheckpointEvery commands,
	// and Start recovers the local state (newest checkpoint + log
	// suffix) before the replica rejoins the group — so a restarted
	// head needs only an incremental (log-delta) state transfer, and a
	// whole-cluster restart loses nothing. Empty keeps the replica
	// purely in-memory (the paper's model).
	DataDir string
	// SyncPolicy selects the WAL fsync policy; the zero value is the
	// wal package's default interval policy.
	SyncPolicy wal.SyncPolicy
	// CheckpointEvery is the applied-command cadence between
	// checkpoints, counted from the newest durable checkpoint: the
	// commands a restart recovers past it count too. Default 1024.
	CheckpointEvery uint64

	// TuneGCS, when non-nil, may adjust group communication timings
	// before the group process starts (tests and benchmarks shorten
	// them).
	TuneGCS func(*gcs.Config)

	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
}

// Stats counts replica activity.
type Stats struct {
	Intercepted    uint64 // client requests received
	Applied        uint64 // replicated commands applied
	Replied        uint64 // responses sent to clients
	DedupHits      uint64 // retried requests answered from the table
	LocalReads     uint64 // Reply-classified datagrams served locally
	Views          uint64 // views installed
	DedupEntries   int    // current deduplication-table size (gauge)
	ReadQueueDepth int    // datagrams waiting in the client endpoint's receive queue (gauge)
	ReadWorkers    int    // read-worker pool size

	// ReplyQueueDrops counts replies whose Send returned an error: a
	// closed endpoint, or a drop the transport detected locally (an
	// unknown or refused peer, or tcpnet's per-peer send queue
	// overflowing). A drop the transport does not detect is counted
	// nowhere; the client's retry recovers the reply either way.
	ReplyQueueDrops uint64

	// Apply pipeline. Every command is applied alone, in log order:
	// ApplyBarriers counts each applied command, and ApplyParallelRuns
	// always reads 0. Both are kept only for the benchmark's
	// rsm.apply_barrier_frac and rsm.apply_parallel_runs rows, and go
	// with them.
	ApplyParallelRuns uint64
	ApplyBarriers     uint64
	FsyncOverlapNs    uint64 // cumulative ns the WAL fsync ran concurrently with the apply stage
	DurabilityLagMax  uint64 // worst-case ns a round's replies waited on durability after apply finished

	// Durability layer (zero without Config.DataDir).
	AppliedIndex     uint64 // monotone count of commands applied locally
	RecoveryReplayed uint64 // log records replayed during local recovery
	WALAppends       uint64 // records appended to the log
	WALFsyncs        uint64 // fsync calls issued by the log
	WALBytes         uint64 // frame bytes appended to the log
	WALSegments      int    // on-disk log segments (gauge)
	CheckpointIndex  uint64 // newest durable checkpoint's applied index

	// Checkpointing (see Service.Fork; Ckpt* are zero until the first
	// checkpoint completes).
	CheckpointFailures uint64 // failed checkpoint attempts (retried after backoff)
	CkptInflight       bool   // a background checkpoint is being written (gauge)
	CkptLastDurationNs uint64 // wall time of the newest completed checkpoint
	CkptBytes          uint64 // encoded size of the newest completed checkpoint

	// State transfer accounting (both directions), classed by shape:
	// base image only (full), log suffix only (delta), or both (hybrid).
	TransferInBytes   uint64 // transfer bytes received when joining
	TransferInFull    uint64 // base-only transfers received
	TransferInDelta   uint64 // suffix-only transfers received
	TransferInHybrid  uint64 // base+suffix transfers received
	TransferReplayed  uint64 // suffix records applied while joining
	TransferOutFull   uint64 // base-only transfers served
	TransferOutDelta  uint64 // suffix-only transfers served
	TransferOutHybrid uint64 // base+suffix transfers served

	// Leased linearizable reads (see Config.LeaseDuration).
	LeaseHeld        bool   // a read lease is currently live (gauge)
	LeaseReads       uint64 // ordered reads served locally under a lease
	LeaseWaits       uint64 // ordered reads parked until local state covered their mark
	LeaseFallbacks   uint64 // ordered reads that fell back to the broadcast path (sum of the two below)
	LeaseRevocations uint64 // leases revoked by flush entry or view change

	LeaseFallbackNoLease uint64 // no live lease when the read arrived
	LeaseFallbackWait    uint64 // parked, then the lease broke or a lease period passed
}

// Replica is one symmetric active/active member: the generic
// replication engine of a head node.
type Replica struct {
	cfg      Config
	group    *gcs.Process
	clientEP transport.Endpoint
	service  Service

	// ckptQ feeds the checkpointer goroutine; ckptInflight gates it to
	// one outstanding background checkpoint (so the buffered-1 send
	// below never blocks the loop).
	ckptQ        chan ckptJob
	ckptInflight atomic.Bool
	// Checkpoint-failure backoff: ckptRetry marks a retry owed,
	// ckptRetryAt (unixnano) is the earliest moment it may run, and
	// ckptFails counts consecutive failures for the exponential step.
	// Without these a failed SaveCheckpoint would re-run the full
	// serialize+fsync every single round until the disk recovered.
	ckptRetry   atomic.Bool
	ckptRetryAt atomic.Int64
	ckptFails   atomic.Uint32

	done chan struct{}
	once sync.Once

	// ready is closed when the first view is installed (group formed
	// or join complete).
	ready     chan struct{}
	readyOnce sync.Once

	// dedup maps request IDs to the encoded response each replica
	// computed when the command was applied; it makes client retries
	// idempotent. It is sharded behind RWMutexes so read workers can
	// probe retries concurrently with the loop's inserts. Replicated:
	// every replica builds the same table from the same command
	// stream.
	dedup *dedupTable

	// relQ feeds the releaser goroutine one releaseBatch per round, in
	// round order.
	relQ chan releaseBatch
	// replyFree recycles the per-round reply slices between the loop
	// (producer) and the releaser (consumer), so steady-state rounds
	// allocate no slice headers.
	replyFree chan []reply

	// durableIdx is the highest applied index known covered by an
	// fsync (or by a durable checkpoint); read workers consult it so a
	// dedup-table retry is never answered before the command it
	// acknowledges is durable. Meaningless (and unused) without a log.
	durableIdx atomic.Uint64
	// appliedPub publishes appliedIdx for the leased-read durability
	// check. It is stored *before* a command executes (conservative:
	// the published value is never behind the state a reader can
	// observe), so a durableIdx >= appliedPub check never passes while
	// applied state outruns the fsync watermark.
	appliedPub atomic.Uint64
	// delivHandled counts group deliveries this replica has finished
	// applying; a leased read is served once it reaches the read's
	// mark (gcs.Process.ReadMark).
	delivHandled atomic.Uint64
	// Leased-read outcome counters (see Stats).
	leaseReads        atomic.Uint64
	leaseWaits        atomic.Uint64
	leaseNoLease      atomic.Uint64
	leaseWaitFallback atomic.Uint64

	// Parked leased reads (see park). parked is guarded by parkMu and
	// keeps its capacity, so parking allocates nothing once warm;
	// nParked mirrors its length for the loop's and the releaser's
	// lock-free check. wake (buffered 1) tells a read worker to look at
	// the parked reads, and parkTimer sends it when the earliest one's
	// lease period runs out.
	parkMu    sync.Mutex
	parked    []parkedRead
	nParked   atomic.Int64
	wake      chan struct{}
	parkTimer *time.Timer

	// --- owned by the run loop ---
	view gcs.View
	// originIntern / clientIntern canonicalize the member IDs and
	// client addresses decoded out of envelopes (see internTable).
	originIntern internTable
	clientIntern internTable
	// batchBuf collects one round's envelopes; posIdx maps a ReqID's
	// dedup hash → its first copy this round. Both are reused across
	// rounds.
	batchBuf []*envelope
	posIdx   map[uint64]int
	// appliedIdx numbers applied commands 1,2,3… across the replica's
	// whole life (unlike gcs sequence numbers, which reset per view).
	// It is the WAL record index, the checkpoint position, and the
	// version a restarted head advertises when rejoining.
	appliedIdx uint64
	// sinceCkpt counts the commands applied since the newest
	// checkpoint: those a restart recovered from the log after it, then
	// every command appended since. A received base resets it to 0.
	sinceCkpt uint64

	// log is the durability layer; nil without Config.DataDir.
	log *wal.Log

	statsMu sync.Mutex
	stats   Stats
}

// Start creates and runs a replica. It is accepting client requests
// once Ready() is closed.
func Start(cfg Config) (*Replica, error) {
	if cfg.Service == nil {
		return nil, errors.New("rsm: Config.Service required")
	}
	if cfg.Classify == nil {
		return nil, errors.New("rsm: Config.Classify required")
	}
	if cfg.ClientEndpoint == nil {
		return nil, errors.New("rsm: Config.ClientEndpoint required")
	}
	if cfg.ReadConcurrency < 0 {
		return nil, fmt.Errorf("rsm: negative ReadConcurrency %d", cfg.ReadConcurrency)
	}
	if cfg.LeaseDuration < 0 {
		return nil, fmt.Errorf("rsm: negative LeaseDuration %v", cfg.LeaseDuration)
	}
	if cfg.DedupLimit <= 0 {
		cfg.DedupLimit = 4096
	}
	if cfg.ReadConcurrency == 0 {
		cfg.ReadConcurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1024
	}

	r := &Replica{
		cfg:      cfg,
		clientEP: cfg.ClientEndpoint,
		service:  cfg.Service,
		done:     make(chan struct{}),
		ready:    make(chan struct{}),
		dedup:    newDedupTable(cfg.DedupLimit),
		wake:     make(chan struct{}, 1),
	}
	r.parkTimer = time.AfterFunc(time.Hour, r.kick)
	r.parkTimer.Stop()
	r.stats.ReadWorkers = cfg.ReadConcurrency

	// The releaser starts before local recovery, which replays the log
	// suffix through applyBatch like a live round; failure paths below
	// stop it again.
	r.relQ = make(chan releaseBatch, 64)
	r.replyFree = make(chan []reply, 4)
	go r.releaser()
	fail := func(err error) (*Replica, error) {
		close(r.done)
		if r.log != nil {
			r.log.Close()
		}
		return nil, err
	}

	// Local recovery runs before the group is joined: install the
	// newest checkpoint and the log suffix after it, and advertise the
	// recovered applied index so peers can serve an incremental state
	// transfer.
	if cfg.DataDir != "" {
		l, err := wal.Open(wal.Options{
			Dir:    cfg.DataDir,
			Policy: cfg.SyncPolicy,
			Logger: cfg.Logger,
		})
		if err != nil {
			return fail(err)
		}
		r.log = l
		r.ckptQ = make(chan ckptJob, 1)
		go r.checkpointer()
		if err := r.recoverLocal(); err != nil {
			return fail(err)
		}
		// Everything recovered from disk is, by definition, durable.
		r.durableIdx.Store(r.appliedIdx)
	}
	r.appliedPub.Store(r.appliedIdx)

	gcfg := gcs.Config{
		Self:            cfg.Self,
		Endpoint:        cfg.GroupEndpoint,
		Peers:           cfg.Peers,
		InitialMembers:  cfg.InitialMembers,
		Bootstrap:       cfg.Bootstrap,
		PartitionPolicy: cfg.PartitionPolicy,
		StateSince:      r.appliedIdx,
		// Leases are only sound under safe delivery: a client ack then
		// implies every lease holder already received the command.
		SafeDelivery:  true,
		LeaseDuration: cfg.LeaseDuration,
		Logger:        cfg.Logger,
	}
	if cfg.TuneGCS != nil {
		cfg.TuneGCS(&gcfg)
	}
	group, err := gcs.Start(gcfg)
	if err != nil {
		return fail(err)
	}
	r.group = group

	for i := 0; i < cfg.ReadConcurrency; i++ {
		go r.readWorker()
	}
	go r.run()
	return r, nil
}

// Ready is closed once the replica has joined (or formed) the group
// and installed its first view.
func (r *Replica) Ready() <-chan struct{} { return r.ready }

// Self returns the replica's member identity.
func (r *Replica) Self() gcs.MemberID { return r.cfg.Self }

// View returns the most recent group view.
func (r *Replica) View() gcs.View { return r.group.View() }

// GroupStats returns the group communication layer's counters.
func (r *Replica) GroupStats() gcs.Stats { return r.group.Stats() }

// Stats returns a snapshot of the replica counters.
func (r *Replica) Stats() Stats {
	r.statsMu.Lock()
	st := r.stats
	r.statsMu.Unlock()
	st.LeaseHeld = r.group.LeaseValid()
	st.LeaseReads = r.leaseReads.Load()
	st.LeaseWaits = r.leaseWaits.Load()
	st.LeaseFallbackNoLease = r.leaseNoLease.Load()
	st.LeaseFallbackWait = r.leaseWaitFallback.Load()
	st.LeaseFallbacks = st.LeaseFallbackNoLease + st.LeaseFallbackWait
	st.LeaseRevocations = r.group.Stats().LeaseRevocations
	st.ReadQueueDepth = len(r.clientEP.Recv())
	if r.log != nil {
		ws := r.log.Stats()
		st.WALAppends = ws.Appends
		st.WALFsyncs = ws.Fsyncs
		st.WALBytes = ws.Bytes
		st.WALSegments = ws.Segments
		st.CheckpointIndex = ws.CheckpointIndex
		st.CkptInflight = r.ckptInflight.Load()
	}
	return st
}

// Leave announces a voluntary departure (the paper handles it as a
// forced failure) and shuts the replica down.
func (r *Replica) Leave() {
	r.group.Leave()
	r.Close()
}

// Close stops the replica immediately, simulating a crash. The
// Service is not closed; its owner remains responsible for it.
func (r *Replica) Close() {
	r.once.Do(func() {
		close(r.done)
		r.parkTimer.Stop()
		r.group.Close()
		r.clientEP.Close()
		if r.log != nil {
			// Flush what the group-commit policy already admitted;
			// anything beyond that is exactly what a crash loses.
			r.log.Close()
		}
	})
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("[rsm %s] "+format, append([]any{r.cfg.Self}, args...)...)
	}
}

func (r *Replica) bump(f func(*Stats)) {
	r.statsMu.Lock()
	f(&r.stats)
	r.statsMu.Unlock()
}

// run is the replica's event loop. The read workers own the client
// endpoint, so this loop handles group events only and a slow Apply
// never delays datagram interception.
func (r *Replica) run() {
	labelStage("event_loop")
	events := r.group.Events()
	for {
		select {
		case <-r.done:
			return
		case e, ok := <-events:
			if !ok {
				return
			}
			r.runRound(e, events)
		}
	}
}

func (r *Replica) handleGroupEvent(e gcs.Event) {
	switch ev := e.(type) {
	case gcs.ViewEvent:
		r.view = ev.View
		r.bump(func(st *Stats) { st.Views++ })
		r.readyOnce.Do(func() { close(r.ready) })
		r.logf("view %d members=%v primary=%v", ev.View.ID, ev.View.Members, ev.View.Primary)
	case gcs.SnapshotRequestEvent:
		r.serveTransfer(ev)
	case gcs.StateTransferEvent:
		if err := r.restoreTransfer(ev.State); err != nil {
			r.logf("state transfer failed: %v", err)
		} else {
			r.logf("state transfer applied (%d bytes, now at index %d)", len(ev.State), r.appliedIdx)
		}
	}
}
