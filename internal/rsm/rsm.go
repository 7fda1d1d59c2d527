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
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	// checkpoints. Default 1024.
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

	// Memory pressure (runtime.MemStats-derived gauges, sampled by
	// Stats() so regressions are visible in operation, not just
	// benchmarks). AllocsPerCmd divides process-wide mallocs since
	// Start by commands applied — an upper bound on the engine's own
	// per-command garbage, comparable across runs of one workload.
	HeapAllocBytes uint64  // live heap bytes (gauge)
	GCPauseNs      uint64  // cumulative stop-the-world pause ns
	NumGC          uint32  // completed GC cycles
	AllocsPerCmd   float64 // process mallocs since Start per applied command
}

// reply is one held command response. The releaser sends enc's bytes
// and then returns enc to the codec pool (the transport contract: Send
// does not retain the payload after it returns).
type reply struct {
	to  transport.Addr
	enc *codec.Encoder
}

// pendingApply is one delivery of a round. The round's commands live
// in a reused slab ([]pendingApply, value entries), so batching a
// round allocates no per-command nodes.
type pendingApply struct {
	env   *envelope
	cmd   Command
	index uint64 // applied index (fresh commands only)
	// enc holds a fresh command's reply from the apply stage until the
	// round's first reply of it takes it to the releaser, or the round
	// releases it.
	enc     *codec.Encoder
	replied bool  // enc went out with a reply
	seen    bool  // already in the dedup table (cross-round duplicate)
	dupOf   int32 // >= 0: duplicate of cmds[dupOf] within this round; -1 otherwise
}

// resp is the reply Apply wrote, nil if it wrote none.
func (pa *pendingApply) resp() []byte {
	if pa.enc == nil || pa.enc.Len() == 0 {
		return nil
	}
	return pa.enc.Bytes()
}

// releaseBatch is one round's output, handed to the releaser
// goroutine: replies held until the round's durability epoch (tk)
// completes, plus the round's envelopes, whose pipeline references
// drop only after both durability and reply queueing are done.
// Batches are released strictly in round order, so a later round's
// replies can never overtake an earlier round's.
type releaseBatch struct {
	tk       *wal.Ticket // nil: the round appended nothing awaiting durability
	maxIndex uint64      // durable watermark once tk resolves (0 = none)
	replies  []reply
	envs     []*envelope // round envelopes; releaser drops the pipeline reference
	t0       time.Time   // when the round's commit was issued (apply-stage start)
	applyEnd time.Time   // when the round's apply stage finished
}

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
	// envFree / replyFree recycle the per-round envelope and reply
	// slices between the loop (producer) and the releaser (consumer),
	// so steady-state rounds allocate no slice headers.
	envFree   chan []*envelope
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
	// batchBuf collects one round's envelopes; paBuf is the round's
	// pendingApply slab; posIdx maps a ReqID's dedup hash → its first
	// copy this round. All are reused across rounds.
	batchBuf []*envelope
	paBuf    []pendingApply
	posIdx   map[uint64]int
	// appliedIdx numbers applied commands 1,2,3… across the replica's
	// whole life (unlike gcs sequence numbers, which reset per view).
	// It is the WAL record index, the checkpoint position, and the
	// version a restarted head advertises when rejoining.
	appliedIdx uint64
	// sinceCkpt counts applies since the last checkpoint.
	sinceCkpt uint64

	// log is the durability layer; nil without Config.DataDir.
	log *wal.Log

	// mallocs0 is the process malloc count at Start, the baseline for
	// the Stats.AllocsPerCmd gauge.
	mallocs0 uint64

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
	r.envFree = make(chan []*envelope, 4)
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

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs0 = ms.Mallocs

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
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.HeapAllocBytes = ms.HeapAlloc
	st.GCPauseNs = ms.PauseTotalNs
	st.NumGC = ms.NumGC
	if st.Applied > 0 {
		st.AllocsPerCmd = float64(ms.Mallocs-r.mallocs0) / float64(st.Applied)
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

// maxEventsPerRound bounds one round's batch, and with it how long the
// round's first command waits for the batch to be collected.
const maxEventsPerRound = 256

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

// runRound is one event-loop round: deliveries are collected into a
// batch and executed through applyBatch (WAL fsync overlapping the
// apply stage), while control events (views, state transfer) act as
// ordering points — everything delivered before them is applied first.
func (r *Replica) runRound(first gcs.Event, events <-chan gcs.Event) {
	batch := r.batchBuf[:0]
	flush := func() {
		r.applyBatch(batch)
		// Every delivery in the batch is now reflected in local state;
		// credit them so parked leased reads can see their mark reached.
		r.delivHandled.Add(uint64(len(batch)))
		batch = batch[:0]
	}
	handle := func(e gcs.Event) {
		if ev, ok := e.(gcs.DeliverEvent); ok {
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, ev.Payload); err != nil {
				env.release()
				r.logf("dropping malformed replicated command: %v", err)
				r.delivHandled.Add(1)
				return
			}
			batch = append(batch, env)
			return
		}
		flush()
		r.handleGroupEvent(e)
	}
	handle(first)
	for i := 1; i < maxEventsPerRound; i++ {
		select {
		case e, ok := <-events:
			if ok {
				handle(e)
				continue
			}
		default:
		}
		break // the queue is drained (or closed): end the round
	}
	flush()
	r.batchBuf = batch[:0]
	// The round may have applied a parked read's mark, or (with a view
	// event) broken its lease epoch.
	r.resumeParked()
}

// takeReplySlice / takeEnvSlice pull a recycled per-round slice from
// the releaser, or report empty so append allocates one that will
// enter the cycle.
func (r *Replica) takeReplySlice() []reply {
	select {
	case s := <-r.replyFree:
		return s
	default:
		return nil
	}
}

func (r *Replica) takeEnvSlice() []*envelope {
	select {
	case s := <-r.envFree:
		return s
	default:
		return nil
	}
}

// applyBatch runs one collected round through the three pipeline
// stages. Stage 1 (in total order, on the loop): classify each
// delivery against the dedup table, assign applied indices, and append
// fresh commands the WAL does not already hold to it; then issue the
// round's group-commit fsync asynchronously. Stage 2 (concurrent with
// the fsync): apply the fresh commands one at a time in log order.
// Stage 3: hand the round's replies to the releaser, which holds them
// until the fsync lands. Dedup inserts and eviction happen on the loop
// in total order, so the table stays identical across replicas.
func (r *Replica) applyBatch(batch []*envelope) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	// The round's commands live in a reused value slab. It is sized up
	// front: later stages hold &cmds[i] pointers, so
	// append must never reallocate the backing array mid-round.
	cmds := r.paBuf
	if cap(cmds) < len(batch) {
		cmds = make([]pendingApply, 0, len(batch)+64)
	}
	cmds = cmds[:0]
	if r.posIdx == nil {
		r.posIdx = make(map[uint64]int, 256)
	}
	clear(r.posIdx)
	pos := r.posIdx // ReqID hash → first copy this round
	fresh := 0
	dirty := false // the round appended to the log
	// Records at or below the log's last index are already on disk:
	// local recovery replays them through here without logging them
	// twice, while live and transferred commands lie above it.
	var logged uint64
	if r.log != nil {
		logged = r.log.LastIndex()
	}
	for _, env := range batch {
		cmds = append(cmds, pendingApply{env: env, dupOf: -1})
		pa := &cmds[len(cmds)-1]
		h := dedupHash(env.ReqID)
		j, ok := pos[h]
		if !ok {
			pos[h] = len(cmds) - 1
		} else if !bytes.Equal(cmds[j].env.ReqID, env.ReqID) {
			j, ok = firstCopy(cmds[:len(cmds)-1], env.ReqID) // hash collision
		}
		if ok {
			pa.dupOf = int32(j)
		} else if _, _, seen := r.dedup.lookup(env.ReqID); seen {
			pa.seen = true
		} else {
			r.appliedIdx++
			pa.index = r.appliedIdx
			pa.cmd = Command{ReqID: env.ReqID, Payload: env.Payload, Origin: env.Origin, Client: env.Client}
			if r.log != nil && pa.index > logged {
				// Write-ahead: the record hits the log before Apply
				// runs. Recovery replays the log in index order, so a
				// record that outlives a crash mid-apply is simply
				// (re)applied at restart.
				// The staged frame shares the envelope's wire buffer
				// (no copy); the ref is dropped by the flush.
				env.ref()
				if err := r.log.AppendShared(pa.index, env.wire(), env); err != nil {
					env.release()
					r.logf("wal append at %d failed: %v", pa.index, err)
				} else {
					dirty = true
					r.sinceCkpt++
				}
			}
			fresh++
		}
	}
	r.paBuf = cmds

	// Publish the round's applied index before execution starts: the
	// leased-read durability gate must see the pre-apply value so it
	// cannot pass while this round's effects outrun the fsync.
	r.appliedPub.Store(r.appliedIdx)

	// Stage 1→2 handoff: start the group-commit fsync, then execute
	// the batch while it is in flight.
	var tk *wal.Ticket
	var maxIndex uint64
	if dirty {
		tk = r.log.CommitTicket()
		maxIndex = r.appliedIdx
	}

	r.applyFresh(cmds)
	applyEnd := time.Now()

	// Post-apply bookkeeping, in total order on the loop. The dedup
	// table copies each fresh reply into its ring, and the reply leaves
	// from the apply stage's encoder, which the releaser releases after
	// the send; a second reply of the same command (an in-round
	// duplicate) copies it first. Dedup-hit replies are copied out of
	// the table under its lock (fetch): an evicted record's bytes are
	// overwritten, so handing out a view would race with later rounds.
	replies := r.takeReplySlice()
	for i := range cmds {
		pa := &cmds[i]
		src := pa
		if pa.dupOf >= 0 {
			src = &cmds[pa.dupOf]
		} else if !pa.seen {
			r.dedupInsert(pa.env.ReqID, pa.resp(), pa.index)
		}
		// The output rule, and no output outside the primary
		// component: a minority fragment may keep its local state
		// self-consistent, but its results must never reach users.
		if pa.env.Client == "" || !r.view.Primary || !r.shouldReply(pa.env) {
			continue
		}
		if src.seen {
			if enc, _, ok := r.dedup.fetch(pa.env.ReqID); ok && enc != nil {
				replies = append(replies, reply{to: pa.env.Client, enc: enc})
			}
		} else if b := src.resp(); b != nil {
			enc := src.enc
			if src.replied {
				enc = codec.GetEncoder(len(b))
				enc.PutRaw(b)
			}
			src.replied = true
			replies = append(replies, reply{to: pa.env.Client, enc: enc})
		}
	}
	for i := range cmds {
		if pa := &cmds[i]; pa.enc != nil {
			if !pa.replied {
				pa.enc.Release()
			}
			pa.enc = nil
		}
	}
	if fresh > 0 {
		r.bump(func(st *Stats) {
			st.Applied += uint64(fresh)
			st.ApplyBarriers += uint64(fresh)
			st.AppliedIndex = r.appliedIdx
		})
	}
	envs := append(r.takeEnvSlice(), batch...)
	r.dispatch(releaseBatch{tk: tk, maxIndex: maxIndex, replies: replies, envs: envs, t0: t0, applyEnd: applyEnd})

	r.maybeCheckpoint()
}

// firstCopy finds the first copy of reqID among a round's commands,
// for the rare round in which two ReqIDs share a dedup hash.
func firstCopy(cmds []pendingApply, reqID []byte) (int, bool) {
	for j := range cmds {
		if cmds[j].dupOf < 0 && bytes.Equal(cmds[j].env.ReqID, reqID) {
			return j, true
		}
	}
	return 0, false
}

// applyFresh applies a round's fresh commands one at a time, in
// log order; in-round duplicates and dedup hits are skipped.
func (r *Replica) applyFresh(cmds []pendingApply) {
	for i := range cmds {
		pa := &cmds[i]
		if pa.dupOf >= 0 || pa.seen {
			continue
		}
		pa.enc = codec.GetEncoder(256)
		r.service.Apply(pa.cmd, pa.enc)
	}
}

// dispatch hands one round's output to the releaser, in round order.
// If the replica is shutting down the batch's envelope references are
// dropped here instead.
func (r *Replica) dispatch(b releaseBatch) {
	if b.tk == nil && len(b.replies) == 0 && len(b.envs) == 0 {
		return
	}
	select {
	case r.relQ <- b:
	case <-r.done:
		for _, env := range b.envs {
			env.release()
		}
	}
}

// releaser drains release batches strictly in round order: each
// batch's replies leave only after its durability epoch resolves, so
// no client is ever acknowledged for a command the log could still
// lose, and a later round's reply can never overtake an earlier
// round's (same-client FIFO holds by construction).
func (r *Replica) releaser() {
	labelStage("releaser")
	for {
		select {
		case <-r.done:
			return
		case b := <-r.relQ:
			if b.tk != nil {
				// Wait resolves even on Close: the log completes every
				// outstanding ticket with its final fsync's outcome.
				err := b.tk.Wait()
				at := time.Now()
				if err != nil {
					r.logf("wal commit failed: %v", err)
				}
				// Overlap: the interval both the fsync and the apply
				// stage were running; lag: how long the round's replies
				// waited on durability after apply finished.
				end := at
				if b.applyEnd.Before(end) {
					end = b.applyEnd
				}
				overlap := end.Sub(b.t0)
				if overlap < 0 {
					overlap = 0
				}
				lag := at.Sub(b.applyEnd)
				if lag < 0 {
					lag = 0
				}
				r.bump(func(st *Stats) {
					st.FsyncOverlapNs += uint64(overlap)
					if uint64(lag) > st.DurabilityLagMax {
						st.DurabilityLagMax = uint64(lag)
					}
				})
				if err == nil && b.maxIndex > 0 {
					r.durableIdx.Store(b.maxIndex)
					r.resumeParked()
				}
			}
			for _, rep := range b.replies {
				r.send(rep.to, rep.enc.Bytes())
				rep.enc.Release()
			}
			// The round is fully released: durability resolved and
			// replies sent. Drop the pipeline's envelope references
			// and hand the slices back to the loop for the next round.
			for i, env := range b.envs {
				env.release()
				b.envs[i] = nil
			}
			if b.envs != nil {
				select {
				case r.envFree <- b.envs[:0]:
				default:
				}
			}
			if b.replies != nil {
				clear(b.replies)
				select {
				case r.replyFree <- b.replies[:0]:
				default:
				}
			}
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

// readWorker receives client datagrams straight from the client
// endpoint (every worker of the pool ranges over the same channel) and
// serves each one off the event loop.
func (r *Replica) readWorker() {
	labelStage("read_worker")
	recv := r.clientEP.Recv()
	var ready []parkedRead // scratch for serveParked, reused
	for {
		select {
		case <-r.done:
			return
		case <-r.wake:
			ready = r.serveParked(ready)
		case dg, ok := <-recv:
			if !ok {
				return
			}
			r.serveRequest(dg.From, dg.Payload)
		}
	}
}

// serveRequest classifies and serves one client datagram. It runs on a
// read worker, so it may touch only concurrency-safe state: the dedup
// table, the group layer's view and lease, the parked reads, and
// whatever the Respond hook guards. With several workers, two of one
// client's outstanding commands may reach Broadcast in either order;
// their replies follow the total order they get, not the order they
// were sent (see Classifier).
func (r *Replica) serveRequest(from transport.Addr, payload []byte) {
	cls := r.cfg.Classify(payload)
	switch cls.Verdict {
	case Ignore:
		return
	case Reply:
		r.bump(func(st *Stats) { st.Intercepted++; st.LocalReads++ })
		r.respond(from, payload, cls.Respond)
		return
	}
	r.bump(func(st *Stats) { st.Intercepted++ })
	if cls.Verdict == OrderedRead && r.leasedRead(from, payload, &cls) {
		return
	}
	r.replicate(from, payload, cls.ReqID)
}

// respond builds a local read's response with fn and sends it.
func (r *Replica) respond(from transport.Addr, payload []byte, fn func([]byte) *codec.Encoder) {
	if fn != nil {
		if enc := fn(payload); enc != nil {
			r.send(from, enc.Bytes())
			enc.Release()
		}
	}
}

// replicate takes a request to the total order: a retry already
// applied is answered from the deduplication table, a replica outside
// the primary component refuses, and anything else is broadcast.
func (r *Replica) replicate(from transport.Addr, payload, reqID []byte) {
	// Retried request already applied? Answer from the table without
	// re-executing (exactly-once semantics across replica failures) —
	// but only once the command's index is covered by the durability
	// watermark: a retry must never be acknowledged ahead of the
	// fsync that makes the command crash-proof. A pre-durability
	// retry falls through to the broadcast path; the copy collapses
	// in the table and its reply is released by the normal
	// durability-gated path.
	if idx, hasResp, ok := r.dedup.lookup(reqID); ok {
		if r.log == nil || idx <= r.durableIdx.Load() {
			if hasResp {
				// fetch copies the recorded response under the table
				// lock into a pooled encoder. A concurrent eviction
				// between lookup and fetch just drops the answer; the
				// client's next retry recovers.
				if enc, _, ok2 := r.dedup.fetch(reqID); ok2 && enc != nil {
					r.bump(func(st *Stats) { st.DedupHits++ })
					r.send(from, enc.Bytes())
					enc.Release()
				}
			}
			return
		}
	}

	if !r.group.View().Primary {
		if r.cfg.RejectNotPrimary != nil {
			r.send(from, r.cfg.RejectNotPrimary(reqID))
		}
		return
	}

	enc := codec.GetEncoder(64 + len(reqID) + len(payload))
	encodeEnvelopeTo(enc, reqID, r.cfg.Self, from, payload)
	err := r.group.Broadcast(enc.Bytes())
	enc.Release() // Broadcast copies the payload before queueing
	if err != nil && r.cfg.RejectShutdown != nil {
		r.send(from, r.cfg.RejectShutdown(reqID))
	}
}

// parkedRead is an ordered read waiting, under a lease, for local
// state to cover its mark. payload is the datagram, which the
// transport hands over for good; reqID and respond come from its
// classification.
type parkedRead struct {
	from     transport.Addr
	payload  []byte
	reqID    []byte
	respond  func([]byte) *codec.Encoder
	epoch    uint64 // lease epoch when the read arrived
	mark     uint64 // deliveries to apply before serving it
	deadline int64  // UnixNano: fall back past this, lease or not
	serve    bool   // serveParked: serve locally (else fall back)
}

// leaseNow is one reading of what a leased read is checked against.
// The lease is read before local progress, and durableIdx before
// appliedPub, so every race resolves toward waiting.
type leaseNow struct {
	epoch   uint64
	live    bool
	handled uint64
	durable bool
}

func (r *Replica) leaseNow() leaseNow {
	n := leaseNow{epoch: r.group.LeaseEpoch(), live: r.group.LeaseValid()}
	n.handled = r.delivHandled.Load()
	n.durable = r.log == nil || r.durableIdx.Load() >= r.appliedPub.Load()
	return n
}

// broken reports that pr may no longer be served locally: the lease
// died or was revoked since pr took its mark.
func (n leaseNow) broken(pr *parkedRead) bool { return !n.live || n.epoch != pr.epoch }

// ready reports that local state holds pr's mark, applied and durable.
func (n leaseNow) ready(pr *parkedRead) bool { return n.handled >= pr.mark && n.durable }

// leasedRead serves an ordered read from local state under the read
// lease, parks it until local state catches up, or reports false when
// it must be broadcast instead: no live lease when it arrived.
//
// The read's mark (gcs.Process.ReadMark) counts every delivery this
// replica must apply before its state holds each command a client was
// answered for before the read arrived. A read whose mark is applied
// and durable is served at once. Otherwise it parks, and a read worker
// serves it once the loop (after a round's apply) or the releaser
// (after a durability step) resumes it — provided the lease is still
// live and its epoch unchanged, since a revocation may have cut the
// suffix the mark counted on. A read that cannot be served within one
// lease period, or whose lease breaks, falls back to the broadcast.
// The instant its checks pass is the read's linearization point, so
// the reply may be built after the lease is revoked.
func (r *Replica) leasedRead(from transport.Addr, payload []byte, cls *Classification) bool {
	epoch, mark := r.group.ReadMark()
	pr := parkedRead{from: from, payload: payload, reqID: cls.ReqID, respond: cls.Respond, epoch: epoch, mark: mark}
	now := r.leaseNow()
	if now.broken(&pr) {
		r.leaseNoLease.Add(1)
		return false
	}
	if now.ready(&pr) {
		r.serveLeased(&pr)
		return true
	}
	r.park(&pr)
	return true
}

// serveLeased answers a leased read from local state.
func (r *Replica) serveLeased(pr *parkedRead) {
	r.leaseReads.Add(1)
	r.bump(func(st *Stats) { st.LocalReads++ })
	r.respond(pr.from, pr.payload, pr.respond)
}

// park queues a leased read that must wait for its mark. Nothing here
// blocks or, once the parked slice has grown, allocates.
func (r *Replica) park(pr *parkedRead) {
	r.leaseWaits.Add(1)
	lease := r.group.LeaseDuration()
	pr.deadline = time.Now().Add(lease).UnixNano()
	r.parkMu.Lock()
	if len(r.parked) == 0 {
		r.parkTimer.Reset(lease)
	}
	r.parked = append(r.parked, *pr)
	r.nParked.Store(int64(len(r.parked)))
	r.parkMu.Unlock()
	// A round that completed after the check in leasedRead, but before
	// nParked rose, saw nothing to resume; look again so the read does
	// not wait for the next round.
	if now := r.leaseNow(); now.ready(pr) || now.broken(pr) {
		r.kick()
	}
}

// kick wakes one read worker to look at the parked reads. It never
// blocks: a wake already pending covers this one.
func (r *Replica) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// resumeParked wakes a read worker if any read is parked. The loop
// calls it after each round and the releaser after each durability
// step.
func (r *Replica) resumeParked() {
	if r.nParked.Load() > 0 {
		r.kick()
	}
}

// serveParked takes every parked read that has stopped waiting: it
// serves one whose mark is applied and durable under an unbroken
// lease, falls back to the broadcast for one whose lease broke or
// whose lease period is over, and re-arms the timer for the earliest
// read still waiting. buf is the calling
// worker's scratch slice, returned emptied for reuse.
func (r *Replica) serveParked(buf []parkedRead) []parkedRead {
	r.parkMu.Lock()
	now, at := r.leaseNow(), time.Now().UnixNano()
	keep := r.parked[:0]
	var next int64
	for i := range r.parked {
		pr := &r.parked[i]
		switch {
		case now.broken(pr):
			pr.serve = false
		case now.ready(pr):
			pr.serve = true
		case at >= pr.deadline:
			pr.serve = false
		default:
			keep = append(keep, *pr)
			if next == 0 || pr.deadline < next {
				next = pr.deadline
			}
			continue
		}
		buf = append(buf, *pr)
	}
	clear(r.parked[len(keep):])
	r.parked = keep
	r.nParked.Store(int64(len(keep)))
	if next != 0 {
		r.parkTimer.Reset(time.Duration(next - at))
	}
	r.parkMu.Unlock()

	for i := range buf {
		pr := &buf[i]
		if pr.serve {
			r.serveLeased(pr)
		} else {
			r.leaseWaitFallback.Add(1)
			r.replicate(pr.from, pr.payload, pr.reqID)
		}
	}
	clear(buf)
	return buf[:0]
}

// send hands one response to the client endpoint. Send never blocks:
// each transport queues per peer (tcpnet drops the oldest frame when a
// peer's queue is full), so a slow or dead client socket cannot stall
// command application, and the client's retry recovers a lost reply
// (reads re-execute, command responses replay from the deduplication
// table). The caller keeps the payload: Send does not retain it.
func (r *Replica) send(to transport.Addr, payload []byte) {
	if r.clientEP.Send(to, payload) != nil {
		r.bump(func(st *Stats) { st.ReplyQueueDrops++ })
		return
	}
	r.bump(func(st *Stats) { st.Replied++ })
}

// shouldReply is the output rule: the origin relays the output, as in
// the paper, and the view's sequencer sends the same bytes, which tells
// the client where to send its next write.
func (r *Replica) shouldReply(env *envelope) bool {
	return env.Origin == r.cfg.Self || r.view.Sequencer() == r.cfg.Self
}

// dedupInsert records a response (tagged with its applied index, the
// durability-gate watermark for retries); the table evicts FIFO past
// its limit internally. Because every replica applies the same
// commands in the same order, the table (and its eviction) is
// identical everywhere.
func (r *Replica) dedupInsert(reqID, resp []byte, index uint64) {
	if !r.dedup.put(reqID, resp, index) {
		return
	}
	r.bump(func(st *Stats) { st.DedupEntries = r.dedup.live() })
}

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
		r.applyBatch(batch) // the releaser drops the envelopes
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
