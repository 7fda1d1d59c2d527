// Package gcs implements the process group communication system that
// JOSHUA replicates over: reliable, totally ordered message delivery
// with fault-tolerant group membership, in the tradition of Transis.
//
// The paper's requirements (Section 3) are:
//
//   - total order: all state-change messages are delivered to all
//     active services in the same order;
//   - reliable delivery: no message delivered at one surviving member
//     is missing at another;
//   - virtual synchrony: membership changes (join, leave, failure) are
//     delivered as view events totally ordered with respect to the
//     message stream, and all members entering a new view have
//     delivered the same set of messages in the old view;
//   - state transfer: a joining member receives a snapshot of the
//     application state consistent with the delivery stream.
//
// The implementation is a per-view fixed-sequencer protocol: the
// lowest member ID of each view sequences messages, receivers deliver
// in sequence order with NACK-based retransmission, and an
// acknowledgment-driven stability watermark garbage-collects the
// retransmission buffer. Membership changes run a coordinator-driven
// flush that reconciles every survivor's unstable messages before the
// next view is installed (see flush.go).
//
// Failure model: fail-stop, as the paper assumes. Under network
// partitions, the PartitionPolicy selects between the paper's
// fail-stop behaviour (every surviving fragment continues — correct
// when failures really are crashes) and a majority rule that keeps at
// most one primary component (safe under real partitions, at the cost
// of availability in minority fragments).
package gcs

import (
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

// MemberID uniquely names a group member. The ordering of member IDs
// is load-bearing: the lowest ID in a view acts as sequencer and view-
// change coordinator.
type MemberID string

// View is one group membership epoch.
type View struct {
	// ID increases monotonically at each member. Views of different
	// partition components may reuse numbers; (ID, Members) is unique
	// in practice.
	ID uint64
	// Members is sorted ascending. It is shared by every copy of the
	// view the Process hands out (View, ViewEvent) and is read-only.
	Members []MemberID
	// Primary reports whether this component may make progress under
	// the configured PartitionPolicy. JOSHUA only executes commands
	// in a primary view.
	Primary bool
}

// Sequencer returns the member that orders messages in this view.
func (v View) Sequencer() MemberID {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Includes reports whether m is a member of the view.
func (v View) Includes(m MemberID) bool {
	for _, x := range v.Members {
		if x == m {
			return true
		}
	}
	return false
}

func (v View) String() string {
	return fmt.Sprintf("view %d %v primary=%v", v.ID, v.Members, v.Primary)
}

// PartitionPolicy selects which components stay primary after a
// membership change.
type PartitionPolicy int

const (
	// FailStop treats every membership loss as a crash: any surviving
	// fragment of a primary view remains primary. This matches the
	// paper's fail-stop assumption ("continuous availability as long
	// as one head node survives") but permits split-brain under real
	// network partitions.
	FailStop PartitionPolicy = iota
	// Majority keeps a component primary only while it retains a
	// strict majority of the previous primary view, so at most one
	// primary component exists at any time.
	Majority
)

// Event is the stream the application consumes: deliveries, view
// changes, snapshot requests, and state transfers arrive in a single
// totally ordered sequence per member.
type Event interface{ event() }

// Delivery is one totally ordered application message.
type Delivery struct {
	ViewID    uint64
	Seq       uint64 // global order within the view, starting at 1
	Sender    MemberID
	SenderSeq uint64 // the sender's FIFO counter
	Payload   []byte
}

// DeliverEvent carries one delivery. It is one pointer wide, so
// queueing it as an Event allocates nothing, and its fields read as
// the Delivery's (ev.Payload, ev.Seq). The Delivery is never written
// after the event is queued.
type DeliverEvent struct{ *Delivery }

// ViewEvent announces an installed view. The application observes it
// after every delivery of the previous view and before any delivery of
// the new one.
type ViewEvent struct {
	View View
}

// SnapshotRequestEvent asks the application for a state snapshot to
// transfer to a joining member. The application MUST call Reply
// exactly once (an empty snapshot is fine); the join is aborted after
// a timeout otherwise. The snapshot must reflect exactly the events
// delivered before this one.
type SnapshotRequestEvent struct {
	Reply func(state []byte)
	// Since is the minimum state version (Config.StateSince) advertised
	// by the joiners this snapshot is for. A nonzero value invites the
	// application to reply with an incremental transfer covering only
	// what came after; the value is opaque to this layer.
	Since uint64
}

// StateTransferEvent delivers the application snapshot to a joining
// member. It precedes the joiner's first ViewEvent.
type StateTransferEvent struct {
	State []byte
}

func (DeliverEvent) event()         {}
func (ViewEvent) event()            {}
func (SnapshotRequestEvent) event() {}
func (StateTransferEvent) event()   {}

// Config parameterizes a Process.
type Config struct {
	// Self is this process's member ID. Required.
	Self MemberID
	// Endpoint is the transport attachment. Required; the Process
	// owns it and closes it on Close.
	Endpoint transport.Endpoint
	// Peers maps every potential member (including Self) to its
	// transport address. Required.
	Peers map[MemberID]transport.Addr

	// InitialMembers, when non-empty, statically bootstraps the group:
	// the process installs a first primary view with exactly these
	// members. Every listed process must be configured identically.
	// When empty, Bootstrap selects between founding a singleton
	// group and joining an existing one via Peers.
	InitialMembers []MemberID
	// Bootstrap makes the process found a new singleton group instead
	// of joining. Exactly one process of a dynamically formed group
	// sets it.
	Bootstrap bool

	// PartitionPolicy defaults to FailStop (the paper's model).
	PartitionPolicy PartitionPolicy

	// StateSince is this process's locally recovered application state
	// version, advertised in join requests so the group can serve an
	// incremental state transfer. Zero (no local state) requests a full
	// transfer. Opaque to this layer.
	StateSince uint64

	// TransferChunk bounds the application-state bytes carried by one
	// state-transfer frame; larger snapshots are split and reassembled
	// at the joiner. Default 256 KiB.
	TransferChunk int

	// Heartbeat is the failure-detector probe interval.
	// Default 25ms. Each tick heartbeats the view members this process
	// has sent no DATA, BATCH, REQBATCH or ACK frame for half a
	// Heartbeat, so a live link is never quiet for longer than
	// 1.5×Heartbeat. It bounds detection only where no connection-loss
	// hint is corroborated (see FailTimeout): a crash that every
	// survivor's transport sees is detected within a hop or two, not a
	// heartbeat.
	Heartbeat time.Duration
	// FailTimeout is how long a member may be silent before it is
	// suspected. Default 8×Heartbeat. A member the transport reports a
	// lost connection to (transport.Message.Lost) is suspected sooner.
	// When every other unsuspected member of a view of three or more
	// reports a hint of its own for it, each newer than its last frame,
	// it is suspected at once: only a process exit resets every
	// survivor's connection together. A lone hint, as in a two-member
	// view or during a flush, gets it suspected once it has then been
	// silent for 2×Heartbeat. A cut cable raises no hint and still
	// waits out FailTimeout.
	FailTimeout time.Duration
	// ResendInterval is how long a sender waits for its own message
	// to come back sequenced before retransmitting the request, and
	// how long a receiver waits on a sequence gap before NACKing.
	// Default 4×Heartbeat.
	ResendInterval time.Duration
	// FlushTimeout bounds one view-change attempt. Default
	// 10×Heartbeat.
	FlushTimeout time.Duration
	// SnapshotTimeout bounds the application's snapshot reply during
	// a join. Default 5s.
	SnapshotTimeout time.Duration
	// JoinInterval is how often a joining process re-solicits
	// admission. Default 8×Heartbeat.
	JoinInterval time.Duration

	// Window bounds the sender's outstanding (not yet self-delivered)
	// broadcasts; Broadcast blocks when it is full. Default 256.
	Window int

	// SafeDelivery delays delivery of each message until every view
	// member has acknowledged receiving it — the "safe" delivery
	// guarantee of extended virtual synchrony (Transis/Totem SAFE
	// messages). It closes the amnesia window where one member
	// delivers (and acts on) a message that dies with it, at the cost
	// of an acknowledgment hop per message: members multicast their
	// receipt acks to the whole view and each decides safety itself
	// (see deliverLimit). Off by default (agreed delivery), matching
	// common Transis usage.
	SafeDelivery bool
	// LeaseDuration is the wall-clock length of the read leases the
	// sequencer grants to view members (piggybacked on every DATA,
	// BATCH and heartbeat frame it sends). A member holding a live
	// lease may serve linearizable reads locally without a broadcast;
	// see ReadMark.
	// Grants are issued only while SafeDelivery is on
	// (an acked message is then guaranteed received at every lease
	// holder) and only in a primary view; they cease the moment a
	// flush begins, and holders revoke synchronously when they enter
	// a flush or install a view. Zero selects the default,
	// FailTimeout/2; values above FailTimeout are clamped to it (a
	// member suspected by the timeout must not still hold a lease);
	// negative disables leasing. A member suspected on a connection-loss
	// hint may be excluded before its lease expires: under FailStop that
	// is safe only because exclusion means a crash, and under Majority
	// the coordinator waits the lease out (leaseBarrierWait).
	LeaseDuration time.Duration

	// Logger receives protocol diagnostics. Nil disables logging.
	Logger *log.Logger
}

func (c *Config) fillDefaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 25 * time.Millisecond
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 8 * c.Heartbeat
	}
	if c.ResendInterval <= 0 {
		c.ResendInterval = 4 * c.Heartbeat
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = 10 * c.Heartbeat
	}
	if c.SnapshotTimeout <= 0 {
		c.SnapshotTimeout = 5 * time.Second
	}
	if c.JoinInterval <= 0 {
		c.JoinInterval = 8 * c.Heartbeat
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.TransferChunk <= 0 {
		c.TransferChunk = 256 << 10
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = c.FailTimeout / 2
	}
	if c.LeaseDuration > c.FailTimeout {
		c.LeaseDuration = c.FailTimeout
	}
}

// Batching bounds (see flushRound). Messages available within the
// same event-loop round coalesce into one BATCH (sequenced data) or
// REQBATCH (ordering requests) frame of at most maxBatchMsgs messages
// and maxBatchBytes payload bytes, amortising the per-frame cost
// (encode, send, ack) across a burst; an isolated message still goes
// out at once in its own frame, so batching adds no latency. The byte
// cap keeps a batch of large messages well under the codec frame
// limit; a single oversized message still goes out alone. A round
// drains at most drainPerRound queued inputs, so the ticker (failure
// detector, retransmission) stays responsive under sustained load.
const (
	maxBatchMsgs  = 64
	maxBatchBytes = 1 << 20
	drainPerRound = 4 * maxBatchMsgs
)

// Process states.
type status int

const (
	statusJoining status = iota
	statusNormal
	statusFlushing
	statusClosed
)

// pendingMsg is one of our own broadcasts not yet delivered back to us.
type pendingMsg struct {
	senderSeq uint64
	payload   []byte
	lastSent  time.Time
}

// Errors returned by the public API.
var (
	ErrClosed = errors.New("gcs: process closed")
)

// Process is one group member. Create with Start; consume Events; send
// with Broadcast.
type Process struct {
	cfg Config
	ep  transport.Endpoint

	actions chan func() // API requests executed on the loop goroutine
	// bcast carries Broadcast's payload copies to the loop, buffered
	// like actions so a burst of broadcasts coalesces into one round.
	bcast   chan []byte
	done    chan struct{}
	stopped sync.Once
	events  *eventQueue
	window  chan struct{}

	viewMu   sync.Mutex
	viewSnap View  // latest installed view, for the View() accessor
	stats    Stats // guarded by viewMu

	// Read-lease state, written by the loop goroutine and read by
	// application read paths (LeaseValid, LeaseEpoch, ReadMark):
	// leaseExp is the UnixNano expiry of the current lease (0 = none);
	// leaseEpoch counts revocations; delivCount counts DeliverEvents
	// pushed; readMark is the delivCount at which every sequence this
	// member knows was assigned in the view will have been delivered
	// (see publishMark).
	leaseExp   atomic.Int64
	leaseEpoch atomic.Uint64
	delivCount atomic.Uint64
	readMark   atomic.Uint64

	// --- everything below is owned by the run loop goroutine ---

	st   status
	view View
	// now is read from the clock once per loop round; the sends of the
	// round and lease renewals use it.
	now time.Time
	// sentAt records when this process last sent each member a frame
	// carrying the steady-state header (headerKind); a tick heartbeats
	// only the members it has been quiet towards (sendHeartbeats).
	// hbTargets is the tick's reused target list.
	sentAt    map[MemberID]time.Time
	hbTargets []MemberID

	// failure detection. lostAt records when the transport last hinted
	// that a member's connection was lost; the hint stands until a
	// frame from the member moves lastHeard past it (see onTick).
	// lostBy[m][r] records when member r's report of its own hint for m
	// (kindLost) arrived, and stands the same way (see checkLost).
	lastHeard map[MemberID]time.Time
	lostAt    map[MemberID]time.Time
	lostBy    map[MemberID]map[MemberID]time.Time
	suspected map[MemberID]bool
	joiners   map[MemberID]bool
	leavers   map[MemberID]bool

	// rx is the message steady-state datagrams decode into; ids interns
	// the member IDs of cfg.Peers (see handleDatagram), and byAddr maps
	// their transport addresses back to them.
	rx     message
	ids    map[string]MemberID
	byAddr map[transport.Addr]MemberID

	// sender side
	senderSeq uint64
	pending   fifo[pendingMsg]

	// total order (per current view)
	nextSeq     uint64              // sequencer: next global seq to assign
	nextDeliver uint64              // next global seq to deliver
	stable      uint64              // GC watermark
	ordered     seqRing             // received sequenced messages > stable
	lastSeqd    map[MemberID]uint64 // sequencer: highest SenderSeq ordered per member
	acked       map[MemberID]uint64 // sequencer: cumulative acks
	delivered   map[MemberID]uint64 // highest SenderSeq delivered per member
	gapSince    time.Time           // when the current delivery gap appeared
	// Safe delivery (when enabled): every non-sequencer member
	// multicasts its highest contiguously received sequence to the
	// view; recvAcked holds the latest report from each peer, and
	// delivery never passes their minimum (see deliverLimit).
	recvAcked map[MemberID]uint64
	// tailSeq is the highest sequence known to have been assigned in
	// this view (from received DATA and heartbeat advertisements); it
	// lets a member that missed the tail of the stream NACK it, and
	// sets the read mark. Only advanceTail raises it.
	tailSeq uint64
	// delivBlock is the unused tail of the block deliverOne carves
	// Delivery records from, deliveryBlock at a time.
	delivBlock []Delivery

	// Batching (see flushRound): output accumulated during one
	// event-loop round and emitted as coalesced frames at its end.
	outData []dataMsg // sequencer: sequenced but not yet multicast
	reqOut  []dataMsg // sender: ordering requests not yet sent
	// Ack coalescing: ackPending marks a receipt ack owed to the view;
	// it is satisfied once per round by flushAck, the sequencer's copy
	// piggybacked on an outgoing REQBATCH when there is one.
	ackPending bool

	// flush state (see flush.go)
	fl flushState
	// leaseFence is when every read lease granted before this view
	// change provably expires (grants cease at flush entry); a
	// Majority-policy coordinator excluding members waits it out
	// before installing the new view (leaseBarrierWait).
	leaseFence time.Time
	// flushMiss counts consecutive flush attempts a member failed to
	// report a flush state for (coordinator bookkeeping); a member is
	// suspected only after two consecutive misses, so one slow round
	// does not get a healthy member excluded.
	flushMiss map[MemberID]int
	// lastNewView caches the most recent NEWVIEW this process
	// disseminated as coordinator, for retransmission to members
	// whose copy was lost.
	lastNewView *message

	// joiner state. The snapshot arrives as ChunkCnt chunks (possibly
	// out of order, possibly re-sent across flush attempts); snapGot
	// flips only once every chunk of one NewViewID is in.
	snapGot     bool
	snapViewID  uint64
	snapTable   map[MemberID]uint64
	snapApp     []byte
	snapChunks  [][]byte
	snapHave    int
	lastJoinReq time.Time

	// joinSince records each joiner's advertised recovered state
	// version (kindJoin.Since) until it is admitted.
	joinSince map[MemberID]uint64
}

// Start creates and runs a Process. It returns immediately; the first
// ViewEvent signals group formation (for bootstrap and static modes)
// or admission (for joiners).
func Start(cfg Config) (*Process, error) {
	if cfg.Self == "" {
		return nil, errors.New("gcs: Config.Self required")
	}
	if cfg.Endpoint == nil {
		return nil, errors.New("gcs: Config.Endpoint required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("gcs: Peers must include Self (%q)", cfg.Self)
	}
	cfg.fillDefaults()

	p := &Process{
		cfg:       cfg,
		ep:        cfg.Endpoint,
		actions:   make(chan func(), 64),
		bcast:     make(chan []byte, 64),
		done:      make(chan struct{}),
		events:    newEventQueue(),
		window:    make(chan struct{}, cfg.Window),
		lastHeard: make(map[MemberID]time.Time),
		sentAt:    make(map[MemberID]time.Time),
		lostAt:    make(map[MemberID]time.Time),
		lostBy:    make(map[MemberID]map[MemberID]time.Time),
		suspected: make(map[MemberID]bool),
		joiners:   make(map[MemberID]bool),
		joinSince: make(map[MemberID]uint64),
		leavers:   make(map[MemberID]bool),
		ids:       internIDs(cfg.Peers),
		byAddr:    make(map[transport.Addr]MemberID, len(cfg.Peers)),
		lastSeqd:  make(map[MemberID]uint64),
		acked:     make(map[MemberID]uint64),
		delivered: make(map[MemberID]uint64),
		recvAcked: make(map[MemberID]uint64),
		flushMiss: make(map[MemberID]int),
	}
	for m, addr := range cfg.Peers {
		p.byAddr[addr] = m
	}

	switch {
	case len(cfg.InitialMembers) > 0:
		members := append([]MemberID(nil), cfg.InitialMembers...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		if !(View{Members: members}).Includes(cfg.Self) {
			return nil, fmt.Errorf("gcs: InitialMembers must include Self (%q)", cfg.Self)
		}
		p.installView(View{ID: 1, Members: members, Primary: true})
		p.st = statusNormal
		p.events.push(ViewEvent{View: p.View()})
	case cfg.Bootstrap:
		p.installView(View{ID: 1, Members: []MemberID{cfg.Self}, Primary: true})
		p.st = statusNormal
		p.events.push(ViewEvent{View: p.View()})
	default:
		p.st = statusJoining
	}

	go p.run()
	return p, nil
}

// internIDs maps every peer's ID, as the string the wire carries, to
// the ID itself, so decoding a known sender allocates nothing.
func internIDs(peers map[MemberID]transport.Addr) map[string]MemberID {
	ids := make(map[string]MemberID, len(peers))
	for m := range peers {
		ids[string(m)] = m
	}
	return ids
}

// Events returns the ordered event stream. The channel is closed when
// the process stops. The internal queue is unbounded, so a slow
// consumer never stalls the protocol, but it must eventually drain.
func (p *Process) Events() <-chan Event { return p.events.ch }

// Self returns this process's member ID.
func (p *Process) Self() MemberID { return p.cfg.Self }

// View returns the most recently installed view. Its Members slice is
// shared and must not be written.
func (p *Process) View() View {
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	return p.viewSnap
}

// Stats counts protocol activity since the process started.
type Stats struct {
	Broadcasts       uint64 // application messages submitted
	Delivered        uint64 // application messages delivered
	Sequenced        uint64 // global sequence numbers assigned (sequencer role)
	Retransmits      uint64 // DATA retransmissions served (NACKs, duplicate requests)
	NacksSent        uint64 // retransmission requests issued
	Views            uint64 // views installed
	FlushAttempts    uint64 // view-change attempts coordinated
	BatchesSent      uint64 // multi-message BATCH/REQBATCH frames sent
	MsgsPerBatchMax  uint64 // most messages coalesced into a single frame
	AcksCoalesced    uint64 // receipt acks merged into another ack or frame
	SendQueueDrops   uint64 // datagrams the transport reported dropped on send
	LeaseGrants      uint64 // read-lease grant rounds issued (sequencer role)
	LeaseRevocations uint64 // read leases revoked (flush entry, view change)
	HintSuspicions   uint64 // members suspected on a connection-loss hint before FailTimeout
	// CorroboratedSuspicions counts the HintSuspicions made at once
	// because every other member reported a hint of its own.
	CorroboratedSuspicions uint64
}

// Stats returns a snapshot of the protocol counters.
func (p *Process) Stats() Stats {
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	return p.stats
}

// Buffered reports how many sequenced messages are currently held in
// the retransmission buffer (delivered-but-unstable plus undelivered).
// Bounded operation depends on the stability watermark draining it;
// tests assert that. Returns 0 after Close.
func (p *Process) Buffered() int {
	reply := make(chan int, 1)
	if err := p.do(func() { reply <- p.ordered.len() }); err != nil {
		return 0
	}
	select {
	case n := <-reply:
		return n
	case <-p.done:
		return 0
	}
}

// bump mutates the counters; called from the loop goroutine only.
func (p *Process) bumpStat(f func(*Stats)) {
	p.viewMu.Lock()
	f(&p.stats)
	p.viewMu.Unlock()
}

// leaseGrant returns the lease duration to piggyback on an outgoing
// header frame, or zero when no grant may be issued.
// Grants require safe delivery: it guarantees that any message acked
// to a client was received by every lease holder first, which is what
// makes a caught-up holder's local read linearizable. Grants stop the
// moment this process leaves normal status (flush entry), so the
// remaining lease window bounds how long any member may keep serving
// leased reads across a membership change. Loop goroutine only.
func (p *Process) leaseGrant() time.Duration {
	if p.st != statusNormal || !p.view.Primary || p.view.Sequencer() != p.cfg.Self {
		return 0
	}
	return p.LeaseDuration()
}

// LeaseDuration returns the length of the read leases this group
// grants, after defaults and clamping, or zero when it grants none
// (leasing disabled, or no safe delivery). Safe from any goroutine.
func (p *Process) LeaseDuration() time.Duration {
	if p.cfg.LeaseDuration <= 0 || !p.cfg.SafeDelivery {
		return 0
	}
	return p.cfg.LeaseDuration
}

// renewLease extends the local lease after receiving a grant. Only
// 3/4 of the granted window is honored locally — the margin absorbs
// frame transit delay and modest clock-rate drift between grantor and
// grantee — and it runs from the round's timestamp, which precedes the
// receipt. The expiry never moves backwards. Loop goroutine only.
func (p *Process) renewLease(dur time.Duration) {
	exp := p.now.Add(dur - dur/4).UnixNano()
	if exp > p.leaseExp.Load() {
		p.leaseExp.Store(exp)
	}
}

// revokeLease drops the local lease immediately and bumps the lease
// epoch, so a read that took its mark before the revocation is never
// served under a lease granted after it. Called on flush entry and
// view installation so no leased read is served once a membership
// change is underway. Loop goroutine only.
func (p *Process) revokeLease() {
	p.leaseEpoch.Add(1)
	if p.leaseExp.Swap(0) != 0 {
		p.bumpStat(func(st *Stats) { st.LeaseRevocations++ })
	}
}

// LeaseValid reports whether this member holds an unexpired read
// lease from the current sequencer. Safe from any goroutine.
func (p *Process) LeaseValid() bool {
	exp := p.leaseExp.Load()
	return exp != 0 && time.Now().UnixNano() < exp
}

// LeaseEpoch returns the number of lease revocations so far. Safe
// from any goroutine.
func (p *Process) LeaseEpoch() uint64 { return p.leaseEpoch.Load() }

// ReadMark returns the lease epoch and the read mark, loaded in that
// order. The mark counts DeliverEvents: once the application has
// consumed that many, its state holds every message this member had
// received (or seen advertised) when ReadMark was called. Under safe
// delivery a message is delivered anywhere only after every member
// received it, so the mark covers every message any member had
// delivered by then, and with it every reply a client had been sent.
// A linearizable read taken at ReadMark may therefore be served
// locally once the mark is consumed, provided the lease is still live
// and LeaseEpoch still returns epoch: a revocation in between (a
// flush, a new view) may have cut or reordered the suffix the mark
// counted on. Safe from any goroutine.
func (p *Process) ReadMark() (epoch, mark uint64) {
	epoch = p.leaseEpoch.Load()
	return epoch, p.readMark.Load()
}

// advanceTail raises tailSeq to seq if it is higher, and publishes the
// new read mark before anything else happens on the loop: a receipt
// ack that covers seq may leave later this round, and a peer may then
// deliver, and answer a client, on the strength of it. Loop goroutine
// only.
func (p *Process) advanceTail(seq uint64) {
	if seq > p.tailSeq {
		p.tailSeq = seq
		p.publishMark()
	}
}

// publishMark stores the read mark: the delivery count this member
// reaches once it has delivered every sequence up to tailSeq. Within a
// view each delivery advances delivCount and nextDeliver together, so
// the mark stays exact until the view changes. Loop goroutine only.
func (p *Process) publishMark() {
	mark := p.delivCount.Load()
	if p.tailSeq >= p.nextDeliver {
		mark += p.tailSeq - p.nextDeliver + 1
	}
	p.readMark.Store(mark)
}

// Broadcast submits a payload for totally ordered delivery to the
// group (including this member). It blocks while the send window is
// full and returns ErrClosed after Close. Delivery is guaranteed as
// long as this process stays alive and in the group: the message is
// retransmitted across view changes until self-delivered.
func (p *Process) Broadcast(payload []byte) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case p.window <- struct{}{}:
	case <-p.done:
		return ErrClosed
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	select {
	case p.bcast <- buf:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

// Leave announces a voluntary departure and stops the process. Per the
// paper, leaving "is actually handled as a forced failure": the member
// tells the group to exclude it immediately and shuts down without
// waiting for the resulting view.
func (p *Process) Leave() {
	sent := make(chan struct{})
	err := p.do(func() {
		m := &message{Kind: kindLeave, From: p.cfg.Self, ViewID: p.view.ID}
		p.sendToMembers(m)
		close(sent)
	})
	if err == nil {
		select {
		case <-sent:
		case <-p.done:
		case <-time.After(time.Second):
		}
	}
	p.Close()
}

// Close stops the process immediately (a local crash: no goodbye is
// sent; peers detect the failure). Safe to call multiple times.
func (p *Process) Close() {
	p.stopped.Do(func() { close(p.done) })
}

// do runs fn on the loop goroutine, returning ErrClosed if the process
// has stopped.
func (p *Process) do(fn func()) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case p.actions <- fn:
		return nil
	case <-p.done:
		return ErrClosed
	}
}

func (p *Process) logf(format string, args ...any) {
	if p.cfg.Logger != nil {
		p.cfg.Logger.Printf("[gcs %s] "+format, append([]any{p.cfg.Self}, args...)...)
	}
}

// run is the single event-loop goroutine that owns all protocol state.
func (p *Process) run() {
	defer func() {
		p.st = statusClosed
		p.leaseExp.Store(0)
		p.leaseEpoch.Add(1)
		p.ep.Close()
		p.events.close()
	}()

	tick := time.NewTicker(p.cfg.Heartbeat)
	defer tick.Stop()

	now := time.Now()
	for m := range p.cfg.Peers {
		p.lastHeard[m] = now // grace period at startup
	}

	for {
		select {
		case <-p.done:
			return
		case fn := <-p.actions:
			p.now = time.Now()
			fn()
		case buf := <-p.bcast:
			p.now = time.Now()
			p.startBroadcast(buf)
		case msg, ok := <-p.ep.Recv():
			if !ok {
				return
			}
			p.now = time.Now()
			p.handleDatagram(msg)
		case <-tick.C:
			p.now = time.Now()
			p.onTick()
		}
		p.drainInputs()
		p.flushRound()
	}
}

// drainInputs opportunistically processes whatever input is already
// queued before the round's output goes out, so a burst of commands
// or datagrams coalesces into batched frames instead of paying one
// frame each, up to drainPerRound inputs.
func (p *Process) drainInputs() {
	for i := 0; i < drainPerRound; i++ {
		select {
		case <-p.done:
			return
		case fn := <-p.actions:
			fn()
		case buf := <-p.bcast:
			p.startBroadcast(buf)
		case msg, ok := <-p.ep.Recv():
			if !ok {
				return
			}
			p.handleDatagram(msg)
		default:
			return
		}
	}
}

// flushRound emits the output accumulated during one event-loop
// round: sequenced DATA batches, queued ordering requests, and the
// receipt ack. Deferring the sends to this single
// point is what turns the opportunistic input drain into wire-level
// batching and ack coalescing.
func (p *Process) flushRound() {
	if p.st == statusClosed {
		return
	}
	p.flushOutData()
	p.flushReqOut()
	p.flushAck()
}

// batchLen returns how many of msgs (at least one) the next frame
// carries under the maxBatchMsgs and maxBatchBytes caps.
func batchLen(msgs []dataMsg) int {
	n, bytes := 0, 0
	for n < len(msgs) && n < maxBatchMsgs {
		sz := len(msgs[n].Payload)
		if n > 0 && bytes+sz > maxBatchBytes {
			break
		}
		bytes += sz
		n++
	}
	return n
}

// flushOutData multicasts the messages sequenced this round, packing
// them into BATCH frames. A lone message uses the plain DATA frame.
// Either carries the header, so holders under sustained write load
// renew their leases, and learn the stability watermark, from the data
// stream itself.
func (p *Process) flushOutData() {
	for out := p.outData; len(out) > 0; {
		n := batchLen(out)
		var m message
		if n == 1 {
			m = p.header(kindData)
			m.Data = out[0]
		} else {
			m = p.header(kindBatch)
			m.Msgs = out[:n]
			p.bumpStat(func(st *Stats) {
				st.BatchesSent++
				if uint64(n) > st.MsgsPerBatchMax {
					st.MsgsPerBatchMax = uint64(n)
				}
			})
		}
		p.sendToMembers(&m)
		out = out[n:]
	}
	p.outData = resetOut(p.outData)
}

// resetOut empties a round's output buffer for the next round, keeping
// its capacity and dropping its payload references.
func resetOut(out []dataMsg) []dataMsg {
	clear(out)
	return out[:0]
}

// flushReqOut sends the ordering requests queued this round to the
// sequencer, packing them into REQBATCH frames with the header
// piggybacked (which is the
// sequencer's copy of any pending receipt ack; the other members get
// theirs standalone). Requests queued by the time a
// view change interrupted the round are discarded: adoptView
// retransmits all pending messages once the new view is installed.
func (p *Process) flushReqOut() {
	if len(p.reqOut) == 0 {
		return
	}
	if p.st != statusNormal || p.view.Sequencer() == p.cfg.Self {
		p.reqOut = resetOut(p.reqOut)
		return
	}
	seqr := p.view.Sequencer()
	for out := p.reqOut; len(out) > 0; {
		n := batchLen(out)
		var m message
		if n == 1 && !p.ackPending {
			m = message{Kind: kindReq, From: p.cfg.Self, ViewID: p.view.ID, Data: out[0]}
		} else {
			m = p.header(kindReqBatch)
			m.Msgs = out[:n]
			if p.ackPending {
				p.sendAck(p.view.Members[1:]) // everyone but the sequencer
				p.bumpStat(func(st *Stats) { st.AcksCoalesced++ })
			}
			if n > 1 {
				p.bumpStat(func(st *Stats) {
					st.BatchesSent++
					if uint64(n) > st.MsgsPerBatchMax {
						st.MsgsPerBatchMax = uint64(n)
					}
				})
			}
		}
		p.sendTo(seqr, &m)
		out = out[n:]
	}
	p.reqOut = resetOut(p.reqOut)
}

// flushAck sends the coalesced receipt ack still owed to the view.
func (p *Process) flushAck() {
	if p.ackPending {
		p.sendAck(p.view.Members)
	}
}

// handleDatagram decodes and dispatches one incoming datagram. The
// steady-state kinds decode into p.rx, reused for every datagram, so no
// handler of theirs may keep the message or its slices past its
// return; the membership kinds get a fresh message, which their
// handlers may keep (flush states, the cached NEWVIEW). Payloads alias
// the datagram, which the transport hands over (transport.Message). A
// connection-loss hint goes to onHint.
func (p *Process) handleDatagram(dg transport.Message) {
	if dg.Lost {
		if m, ok := p.byAddr[dg.From]; ok && m != p.cfg.Self {
			p.onHint(m)
		}
		return
	}
	m := &p.rx
	if len(dg.Payload) > 0 && membershipKind(dg.Payload[0]) {
		m = new(message)
	}
	if err := m.decode(dg.Payload, p.ids); err != nil {
		p.logf("dropping datagram from %s: %v", dg.From, err)
		return
	}
	if m.From == p.cfg.Self {
		return // our own echo
	}
	p.lastHeard[m.From] = time.Now()

	switch m.Kind {
	case kindHeartbeat, kindAck:
		p.onHeader(m)
	case kindData:
		p.onData(m)
	case kindReq:
		p.onReq(m)
	case kindNack:
		p.onNack(m)
	case kindJoin:
		p.onJoin(m)
	case kindLeave:
		p.onLeave(m)
	case kindSuspect:
		p.onSuspect(m)
	case kindPropose:
		p.onPropose(m)
	case kindFlushState:
		p.onFlushState(m)
	case kindNewView:
		p.onNewView(m)
	case kindStateSnap:
		p.onStateSnap(m)
	case kindBatch:
		p.onBatch(m)
	case kindReqBatch:
		p.onReqBatch(m)
	case kindLost:
		p.onLost(m)
	}
}

// onHint records a connection-loss hint for m, which onTick weighs
// against m's silence. In normal operation a hint about another member
// of the view is also reported to the view, so that the members can
// corroborate it (checkLost); a further hint while one stands (a
// transport may lose two connections to m) is not reported again.
func (p *Process) onHint(m MemberID) {
	standing := p.lostAt[m].After(p.lastHeard[m])
	p.lostAt[m] = time.Now()
	if standing || p.st != statusNormal || !p.view.Includes(m) {
		return
	}
	p.sendToMembers(&message{Kind: kindLost, From: p.cfg.Self, ViewID: p.view.ID, Suspects: []MemberID{m}})
	p.checkLost(m)
}

// onLost records a member's report of its own hint. Reports from
// another view or from a non-member are void, so an old view's report
// or an old incarnation's can never corroborate. A report naming this
// member is answered with a heartbeat at once: a live member's frame
// reaches the others before they can corroborate the hint.
func (p *Process) onLost(m *message) {
	if m.ViewID != p.view.ID || p.st == statusJoining || !p.view.Includes(m.From) {
		return
	}
	for _, s := range m.Suspects {
		switch {
		case s == p.cfg.Self:
			hb := p.header(kindHeartbeat)
			p.sendToMembers(&hb)
		case p.view.Includes(s):
			by := p.lostBy[s]
			if by == nil {
				by = make(map[MemberID]time.Time)
				p.lostBy[s] = by
			}
			by[m.From] = time.Now()
			p.checkLost(s)
		}
	}
}

// checkLost suspects m at once when its loss hint is corroborated:
// this member holds a hint for m, and so does every other unsuspected
// member of the view, each newer than m's last frame here. A dead
// process's kernel resets all of its connections at the same moment;
// a live member that redials breaks one, and a partition raises no
// hint at all. At least one other member must corroborate, so a
// two-member view, like a lone hint or a flush in progress, keeps
// onTick's rules.
func (p *Process) checkLost(m MemberID) {
	if p.st != statusNormal || p.suspected[m] {
		return
	}
	last := p.lastHeard[m]
	if !p.lostAt[m].After(last) {
		return
	}
	others := 0
	for _, r := range p.view.Members {
		if r == p.cfg.Self || r == m || p.suspected[r] {
			continue
		}
		if !p.lostBy[m][r].After(last) {
			return
		}
		others++
	}
	if others == 0 {
		return
	}
	p.suspected[m] = true
	p.logf("suspecting [%s] (a connection-loss hint every member corroborated)", m)
	p.bumpStat(func(st *Stats) {
		st.HintSuspicions++
		st.CorroboratedSuspicions++
	})
	p.shareSuspicions()
}

// header returns a frame of a headerKind kind carrying this process's
// steady-state header. It advertises the highest sequence we know was
// assigned, so peers can detect a missed tail, and repeats our
// cumulative ack, so a lost ACK frame costs at most 1.5 heartbeats, not
// a stalled delivery. The ack rides only in normal operation: what
// arrives during a flush is buffered after our flush state was
// reported, and a peer must not deliver on a receipt the flush may
// never hear of. The stability watermark and, at the sequencer of a
// primary view, the lease grant ride only then too.
//
// Each role fills only the fields its receivers read (onHeader) and
// sends 0, one byte, for the rest: a member's delivery and receipt
// (the sequencer's acks and every member's safe-delivery rule, which
// skips the sequencer's receipt), and the sequencer's watermark and
// grant (which members take from the sequencer only).
func (p *Process) header(kind byte) message {
	m := message{Kind: kind, From: p.cfg.Self, ViewID: p.view.ID, Tail: p.tailSeq}
	if p.st != statusNormal {
		return m
	}
	if p.view.Sequencer() == p.cfg.Self {
		m.Stable = p.stable
		m.LeaseDur = p.leaseGrant()
	} else {
		m.Delivered, m.Received = p.nextDeliver-1, p.contiguousReceived()
	}
	return m
}

// sendHeartbeats sends the tick's HEARTBEAT. In normal operation it
// goes only to the view members this process has sent no header frame
// for Heartbeat/2 or longer: a header frame told them everything the
// heartbeat would, and a live link stays quiet for at most 1.5 ×
// Heartbeat, under the lone-hint rule's two. While flushing it goes to
// every member.
func (p *Process) sendHeartbeats(now time.Time) {
	targets := p.view.Members
	if p.st == statusNormal {
		targets = p.hbTargets[:0]
		for _, m := range p.view.Members {
			if now.Sub(p.sentAt[m]) >= p.cfg.Heartbeat/2 {
				targets = append(targets, m)
			}
		}
		p.hbTargets = targets
	}
	hb := p.header(kindHeartbeat)
	p.multicast(targets, &hb)
}

// onTick drives heartbeats, the failure detector, retransmission, and
// flush/join timeouts.
func (p *Process) onTick() {
	now := p.now
	switch p.st {
	case statusJoining:
		if now.Sub(p.lastJoinReq) >= p.cfg.JoinInterval {
			p.lastJoinReq = now
			p.multicast(sortedKeys(p.cfg.Peers), &message{Kind: kindJoin, From: p.cfg.Self, Since: p.cfg.StateSince})
		}
		return
	case statusClosed:
		return
	}

	if p.st == statusNormal && p.view.Sequencer() == p.cfg.Self {
		p.advanceStability() // our own delivery may have been the last
	}
	if dur := p.leaseGrant(); dur > 0 {
		p.renewLease(dur) // the sequencer's own lease rides its grant
		p.bumpStat(func(st *Stats) { st.LeaseGrants++ })
	}
	p.sendHeartbeats(now)

	// Failure detection: silence beyond FailTimeout, or beyond two
	// heartbeats once the transport hinted that the connection was lost
	// and nothing has been heard since. A corroborated hint needs no
	// tick: checkLost acts on it as the reports arrive.
	var newlySuspected []MemberID
	hinted := 0
	for _, m := range p.view.Members {
		if m == p.cfg.Self || p.suspected[m] {
			continue
		}
		silent := now.Sub(p.lastHeard[m])
		switch {
		case silent > p.cfg.FailTimeout:
		case silent > 2*p.cfg.Heartbeat && p.lostAt[m].After(p.lastHeard[m]):
			hinted++
		default:
			continue
		}
		p.suspected[m] = true
		newlySuspected = append(newlySuspected, m)
	}
	if len(newlySuspected) > 0 {
		p.logf("suspecting %v (%d on a connection-loss hint)", newlySuspected, hinted)
		if hinted > 0 {
			p.bumpStat(func(st *Stats) { st.HintSuspicions += uint64(hinted) })
		}
		p.shareSuspicions()
	}

	switch p.st {
	case statusNormal:
		p.resendPending(now)
		p.nackGaps(now)
		p.maybeStartFlush()
	case statusFlushing:
		p.flushTick(now)
	}
}

// startBroadcast assigns the next sender sequence number and transmits.
// Runs on the loop goroutine.
func (p *Process) startBroadcast(payload []byte) {
	p.bumpStat(func(st *Stats) { st.Broadcasts++ })
	p.senderSeq++
	p.pending.push(pendingMsg{senderSeq: p.senderSeq, payload: payload})
	if p.st == statusNormal {
		p.transmitPending(p.pending.at(p.pending.len() - 1))
	}
	// While flushing or joining, the message stays queued; it is
	// (re)transmitted when a view is installed.
}

// transmitPending sends one of our queued messages: self-sequence when
// we are the sequencer, otherwise request ordering from it.
func (p *Process) transmitPending(pm *pendingMsg) {
	pm.lastSent = p.now
	if p.view.Sequencer() == p.cfg.Self {
		p.sequence(dataMsg{Sender: p.cfg.Self, SenderSeq: pm.senderSeq, Payload: pm.payload})
		return
	}
	// Queue for the round's REQBATCH; flushReqOut sends it.
	p.reqOut = append(p.reqOut, dataMsg{Sender: p.cfg.Self, SenderSeq: pm.senderSeq, Payload: pm.payload})
}

// sequence assigns the next global sequence number (sequencer only)
// and broadcasts the resulting DATA message to the whole view.
func (p *Process) sequence(d dataMsg) {
	last := p.lastSeqd[d.Sender]
	if d.SenderSeq <= last {
		// Duplicate request: the DATA we sent may have been lost on
		// the way back to the sender. Retransmit it if still buffered.
		if dm := p.ordered.find(d.Sender, d.SenderSeq); dm != nil {
			p.retransmit(d.Sender, dm)
		}
		return
	}
	if d.SenderSeq != last+1 {
		// A hole in the sender's FIFO stream: with per-flow FIFO
		// transports this only happens across view changes, where the
		// sender retries in order; drop and let retransmission fix it.
		return
	}
	p.nextSeq++
	d.Seq = p.nextSeq
	p.bumpStat(func(st *Stats) { st.Sequenced++ })
	p.lastSeqd[d.Sender] = d.SenderSeq

	// Local receipt is immediate, and precedes the send: the members'
	// safe-delivery rule takes the sequencer's copy for granted.
	p.acceptData(&d)
	p.deliverReady()
	// Defer the multicast to flushOutData so messages sequenced in the
	// same round share a frame.
	p.outData = append(p.outData, d)
}

// onBatch handles a coalesced frame of sequenced messages.
func (p *Process) onBatch(m *message) {
	if m.ViewID != p.view.ID || p.st == statusJoining {
		return
	}
	for i := range m.Msgs {
		p.acceptData(&m.Msgs[i])
	}
	p.deliverReady()
	p.onHeader(m)
}

// onReqBatch handles a coalesced frame of ordering requests
// (sequencer only). Its header is applied exactly like a standalone
// ACK's.
func (p *Process) onReqBatch(m *message) {
	if m.ViewID != p.view.ID || p.st != statusNormal {
		return
	}
	if p.view.Sequencer() != p.cfg.Self || !p.view.Includes(m.From) {
		return
	}
	p.onHeader(m)
	for i := range m.Msgs {
		p.sequence(m.Msgs[i])
	}
}

// onData handles a sequenced message from the sequencer.
func (p *Process) onData(m *message) {
	if m.ViewID != p.view.ID || p.st == statusJoining {
		return
	}
	p.acceptData(&m.Data)
	p.deliverReady()
	p.onHeader(m)
}

// acceptData buffers a copy of a sequenced message and owes the view a
// receipt ack for it. Delivery is the caller's next step: deliverReady in
// normal operation (once per frame, however many messages it carried),
// while during a flush messages are only buffered and the coordinator's
// agreed final sequence (deliverTo) decides what gets delivered,
// preserving virtual synchrony.
func (p *Process) acceptData(d *dataMsg) {
	if d.Seq <= p.stable {
		return // already delivered everywhere and garbage-collected
	}
	if d.Seq-p.stable > maxRingSpan && p.view.Sequencer() != p.cfg.Self {
		return // too far past a gap (or corrupt); NACKed once the gap closes
	}
	p.advanceTail(d.Seq)
	if p.ordered.put(d) {
		if p.cfg.SafeDelivery && p.st == statusNormal && p.view.Sequencer() != p.cfg.Self {
			p.scheduleAck()
		}
	}
}

// contiguousReceived returns the highest sequence up to which this
// member holds (or has delivered) every message.
func (p *Process) contiguousReceived() uint64 {
	r := p.nextDeliver - 1
	for p.ordered.get(r+1) != nil {
		r++
	}
	return r
}

// scheduleAck marks a receipt ack owed to the view; flushRound
// satisfies it once per round, the sequencer's copy piggybacked on an
// outgoing REQBATCH if there is one.
func (p *Process) scheduleAck() {
	if p.ackPending {
		p.bumpStat(func(st *Stats) { st.AcksCoalesced++ })
		return
	}
	p.ackPending = true
}

// sendAck multicasts this member's cumulative receipt and delivery
// progress. Under safe delivery every member decides safety itself
// from these (deliverLimit), so they go to the whole view, not just
// the sequencer. It satisfies any coalesced ack still pending.
func (p *Process) sendAck(targets []MemberID) {
	p.ackPending = false
	ack := p.header(kindAck)
	p.multicast(targets, &ack)
}

// deliverLimit returns the highest sequence this member may deliver
// now: its own contiguous receipt, capped under safe delivery by the
// receipt ack of every other non-sequencer member. The sequencer's own
// receipt needs no ack — it buffered the message when it assigned the
// sequence — so nobody waits for a watermark relayed through it.
func (p *Process) deliverLimit() uint64 {
	w := p.contiguousReceived()
	if !p.cfg.SafeDelivery {
		return w
	}
	seqr := p.view.Sequencer()
	for _, m := range p.view.Members {
		if m != p.cfg.Self && m != seqr && p.recvAcked[m] < w {
			w = p.recvAcked[m]
		}
	}
	return w
}

// deliverReady delivers, in normal operation, the buffered prefix from
// nextDeliver up to deliverLimit. It runs on every DATA and every ACK
// arrival, whichever completes the condition.
func (p *Process) deliverReady() {
	if p.st != statusNormal {
		return
	}
	for limit := p.deliverLimit(); p.nextDeliver <= limit; p.nextDeliver++ {
		p.deliverOne(p.ordered.get(p.nextDeliver))
	}
}

// deliveryBlock is how many Delivery records deliverOne allocates at
// once. A block is written once, record by record, and freed when the
// application has dropped every record in it.
const deliveryBlock = 64

// deliverOne emits one DeliverEvent and updates sender bookkeeping.
func (p *Process) deliverOne(d *dataMsg) {
	if d.SenderSeq > p.delivered[d.Sender] {
		p.delivered[d.Sender] = d.SenderSeq
	}
	if d.Sender == p.cfg.Self {
		// Drop from pending and release the window slot.
		for p.pending.len() > 0 && p.pending.at(0).senderSeq <= d.SenderSeq {
			p.pending.pop()
			select {
			case <-p.window:
			default:
			}
		}
	}
	p.bumpStat(func(st *Stats) { st.Delivered++ })
	p.delivCount.Add(1)
	if len(p.delivBlock) == 0 {
		p.delivBlock = make([]Delivery, deliveryBlock)
	}
	dv := &p.delivBlock[0]
	p.delivBlock = p.delivBlock[1:]
	*dv = Delivery{
		ViewID:    p.view.ID,
		Seq:       d.Seq,
		Sender:    d.Sender,
		SenderSeq: d.SenderSeq,
		Payload:   d.Payload,
	}
	p.events.push(DeliverEvent{dv})
}

// onReq handles an ordering request (sequencer only).
func (p *Process) onReq(m *message) {
	if m.ViewID != p.view.ID || p.st != statusNormal {
		return
	}
	if p.view.Sequencer() != p.cfg.Self {
		return // misdirected; sender will retry after the view change
	}
	if !p.view.Includes(m.From) {
		return
	}
	p.sequence(m.Data)
}

// resendPending retransmits our not-yet-delivered messages.
func (p *Process) resendPending(now time.Time) {
	for i := 0; i < p.pending.len(); i++ {
		pm := p.pending.at(i)
		if now.Sub(pm.lastSent) >= p.cfg.ResendInterval {
			p.transmitPending(pm)
		}
	}
}

// nackGaps requests retransmission when a delivery gap persists: some
// sequence up to the known tail is missing from the buffer.
func (p *Process) nackGaps(now time.Time) {
	var missing []uint64
	for s := p.nextDeliver; s <= p.tailSeq && len(missing) < 64; s++ {
		if p.ordered.get(s) == nil {
			missing = append(missing, s)
		}
	}
	if len(missing) == 0 {
		p.gapSince = time.Time{}
		return
	}
	if p.gapSince.IsZero() {
		p.gapSince = now // grace period before the first NACK
		return
	}
	if now.Sub(p.gapSince) < p.cfg.ResendInterval {
		return
	}
	p.gapSince = now // rate-limit
	p.bumpStat(func(st *Stats) { st.NacksSent++ })
	m := &message{Kind: kindNack, From: p.cfg.Self, ViewID: p.view.ID, Missing: missing}
	p.sendTo(p.view.Sequencer(), m)
}

// onNack retransmits requested messages (sequencer only).
func (p *Process) onNack(m *message) {
	if m.ViewID != p.view.ID || p.view.Sequencer() != p.cfg.Self {
		return
	}
	for _, seq := range m.Missing {
		if d := p.ordered.get(seq); d != nil {
			p.retransmit(m.From, d)
		}
	}
}

// retransmit resends one buffered sequenced message to a member, as a
// DATA frame with the current header (sequencer only).
func (p *Process) retransmit(to MemberID, d *dataMsg) {
	p.bumpStat(func(st *Stats) { st.Retransmits++ })
	m := p.header(kindData)
	m.Data = *d
	p.sendTo(to, &m)
}

// onHeader takes the steady-state header of a DATA, BATCH, REQBATCH,
// ACK or HEARTBEAT frame: the sender's tail advertisement, its receipt
// (this member's safe-delivery rule) and its delivery (stability GC at
// the sequencer). From the view's sequencer, in normal status only, it
// also takes the stability watermark and the lease grant. Headers are
// per-view; foreign-view, non-member and joining-state ones are void.
func (p *Process) onHeader(m *message) {
	if m.ViewID != p.view.ID || p.st == statusJoining || !p.view.Includes(m.From) {
		return
	}
	p.advanceTail(m.Tail)
	if m.Received > p.recvAcked[m.From] {
		p.recvAcked[m.From] = m.Received
		p.deliverReady()
	}
	seqr := p.view.Sequencer()
	if seqr == p.cfg.Self {
		if m.Delivered > p.acked[m.From] {
			p.acked[m.From] = m.Delivered
		}
		p.advanceStability()
		return
	}
	if m.From == seqr && p.st == statusNormal {
		p.applyStable(m.Stable)
		if m.LeaseDur > 0 {
			p.renewLease(m.LeaseDur)
		}
	}
}

// advanceStability raises the stability watermark when every member has
// delivered further than the current one, and garbage-collects up to it
// (sequencer only). The watermark reaches the members in the header of
// the next frame this process sends each of them.
func (p *Process) advanceStability() {
	min := p.nextDeliver - 1
	for _, m := range p.view.Members {
		if m == p.cfg.Self {
			continue
		}
		if p.acked[m] < min {
			min = p.acked[m]
		}
	}
	if min > p.stable {
		p.applyStable(min)
	}
}

func (p *Process) applyStable(w uint64) {
	if w <= p.stable {
		return
	}
	// Never GC beyond what we have delivered ourselves: the buffer
	// from nextDeliver up is still needed locally.
	if w > p.nextDeliver-1 {
		w = p.nextDeliver - 1
	}
	p.ordered.gc(w)
	p.stable = w
}

// installView replaces the order state for a newly installed view and
// publishes the snapshot used by the View accessor. Callers emit the
// ViewEvent themselves (ordering relative to other events matters).
func (p *Process) installView(v View) {
	p.revokeLease() // any old-view lease dies with the view
	p.view = v
	p.nextSeq = 0
	p.nextDeliver = 1
	p.stable = 0
	p.ordered.reset()
	p.lastSeqd = make(map[MemberID]uint64)
	for m, s := range p.delivered {
		p.lastSeqd[m] = s
	}
	p.acked = make(map[MemberID]uint64)
	p.recvAcked = make(map[MemberID]uint64)
	p.gapSince = time.Time{}
	p.tailSeq = 0
	p.publishMark()
	// Unflushed round output belongs to the old view: sequenced
	// messages were reconciled by the flush and queued requests are
	// retransmitted by adoptView.
	p.outData = resetOut(p.outData)
	p.reqOut = resetOut(p.reqOut)
	p.ackPending = false
	// No header frame of the new view has been sent yet.
	clear(p.sentAt)

	now := time.Now()
	for _, m := range v.Members {
		p.lastHeard[m] = now
	}
	// Loss hints and reports about members that left, or reported by
	// them, are dropped: the maps stay bounded by the view, and a
	// departed member's rejoined incarnation starts clean.
	for m := range p.lostAt {
		if !v.Includes(m) {
			delete(p.lostAt, m)
		}
	}
	for m, by := range p.lostBy {
		if !v.Includes(m) {
			delete(p.lostBy, m)
			continue
		}
		for r := range by {
			if !v.Includes(r) {
				delete(by, r)
			}
		}
	}

	// The snapshot gets its own Members slice: View hands it out as is,
	// and v.Members may be a decoded NEWVIEW's or a flush's candidates.
	p.viewMu.Lock()
	p.viewSnap = View{ID: v.ID, Members: append([]MemberID(nil), v.Members...), Primary: v.Primary}
	p.stats.Views++
	p.viewMu.Unlock()
}

// sendTo transmits one message to a peer by member ID.
func (p *Process) sendTo(to MemberID, m *message) {
	addr, ok := p.cfg.Peers[to]
	if !ok {
		return
	}
	e := m.encodeTo()
	p.sendRaw(addr, e.Bytes())
	e.Release()
	if headerKind(m.Kind) {
		p.sentAt[to] = p.now
	}
}

// sendRaw hands one encoded datagram to the transport, counting
// locally reported drops (e.g. an overflowing peer send queue).
func (p *Process) sendRaw(addr transport.Addr, buf []byte) {
	if err := p.ep.Send(addr, buf); err != nil {
		p.bumpStat(func(st *Stats) { st.SendQueueDrops++ })
	}
}

// multicast transmits one message to every listed member except self,
// encoding it exactly once, and stamps sentAt for each recipient of a
// header frame. The transport contract (payloads are not
// aliased after Send returns) lets all recipients share the buffer
// and the buffer return to the pool afterwards.
func (p *Process) multicast(targets []MemberID, m *message) {
	var e *codec.Encoder
	header := headerKind(m.Kind)
	for _, t := range targets {
		if t == p.cfg.Self {
			continue
		}
		addr, ok := p.cfg.Peers[t]
		if !ok {
			continue
		}
		if e == nil {
			e = m.encodeTo()
		}
		p.sendRaw(addr, e.Bytes())
		if header {
			p.sentAt[t] = p.now
		}
	}
	if e != nil {
		e.Release()
	}
}

// sendToMembers transmits to every other member of the current view.
func (p *Process) sendToMembers(m *message) {
	p.multicast(p.view.Members, m)
}

func sortedKeys[V any](m map[MemberID]V) []MemberID {
	ks := make([]MemberID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
