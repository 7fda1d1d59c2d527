package pbs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"joshua/internal/codec"
)

// Config parameterizes a Server.
type Config struct {
	// ServerName suffixes job IDs. Replicated head nodes must agree
	// on it so replica-generated IDs coincide.
	ServerName string
	// Nodes lists the compute nodes this server schedules onto, in a
	// fixed order (allocation is deterministic first-fit over this
	// order).
	Nodes []string
	// Exclusive grants each job exclusive access to the whole
	// cluster — the Maui configuration of the paper's prototype. When
	// false, jobs are packed first-fit by their resource requests.
	Exclusive bool
	// Policy selects the ordering and placement stages of the
	// scheduling pipeline (see sched.go). The zero value, PolicyFIFO,
	// is the paper's configuration.
	Policy SchedPolicy
	// Weights parameterizes the priority score under non-FIFO
	// policies; all-zero selects DefaultSchedWeights.
	Weights SchedWeights
	// FairshareHalfLife is the decay half-life of per-user fairshare
	// usage, in logical ticks (nanoseconds of virtual time; the clock
	// jumps by a job's walltime at its completion, so e.g. 3600e9
	// halves usage every virtual hour). Zero disables decay (usage
	// only accumulates).
	FairshareHalfLife uint64
	// NodeCPUs is each node's CPU capacity (defaults to 1, under which
	// non-exclusive packing reduces to the historical one-job-per-node
	// behavior).
	NodeCPUs int
	// NodeMem is each node's memory capacity in bytes; zero means
	// memory is not tracked and mem requests are accepted unchecked.
	NodeMem int64
	// KeepCompleted bounds the completed-job history (0 keeps
	// everything, which suits tests; the daemons set a limit).
	KeepCompleted int
	// Clock supplies the wall-clock timestamps printed on accounting
	// records; nil uses time.Now. It is display-only: job lifecycle
	// stamps and every scheduling decision use the replicated logical
	// event clock instead, so replicas may disagree on Clock without
	// diverging.
	Clock func() time.Time
	// Accounting, when non-nil, receives one record per job event
	// (the PBS accounting log). See AccountingSink.
	Accounting AccountingSink
	// IDFilter, when non-nil, restricts which job IDs this server may
	// assign: Submit advances the sequence past any candidate ID the
	// filter rejects. Sharded deployments install shard.IDFilter so
	// every ID a shard mints hashes back to that shard, making IDs
	// globally unique and client-routable with no directory. Replicas
	// of one shard share the filter, so assignment stays
	// deterministic. The ID a filter is passed is valid only for the
	// call: a filter that keeps it must copy it.
	IDFilter func(JobID) bool
}

// Server is the deterministic TORQUE-equivalent state machine. All
// methods are safe for concurrent use; determinism is with respect to
// the serialized order of mutating calls. Status-class reads never
// copy the job table: Status, StatusView and NodesStatus look up the
// live table under the read lock, and the two whole-table listings
// (StatusAll's []Job and Listing's encoding) are each built at most
// once per mutation, so a qstat-polling storm costs O(1) amortized per
// poll and never blocks the mutation path for longer than one build.
type Server struct {
	mu sync.RWMutex

	// version counts mutations (bumped under mu). Each listing cache
	// holds an immutable value stamped with the version it was built
	// at; a reader whose loaded entry matches version serves straight
	// from it — no lock, no copy.
	version   atomic.Uint64
	jobsCache atomic.Pointer[versioned[[]Job]]
	listing   atomic.Pointer[versioned[[]byte]]
	cacheHits atomic.Uint64
	cacheMiss atomic.Uint64

	cfg     Config
	nextSeq uint64
	// ltick is the logical event clock: one tick per applied mutating
	// operation. Job timestamps and every scheduling computation read
	// it, never a wall clock, so the clock — and everything derived
	// from it — is byte-identical across replicas.
	ltick uint64
	jobs  map[JobID]*Job
	// queue holds non-completed jobs in submission order, which is
	// ascending Seq.
	queue []JobID
	// eligible indexes exactly the StateQueued jobs of queue, in the
	// same order: the scheduler's input. It is derived state, kept by
	// every transition into or out of StateQueued (enqueueJob, Hold,
	// Release, Delete, and schedule for the jobs it starts) and rebuilt
	// by Restore; snapshots do not carry it.
	eligible []*Job
	// completed holds finished jobs in completion order.
	completed []JobID
	// alloc maps node name -> the jobs and resources committed on it.
	alloc map[string]*nodeAlloc
	// running counts Running/Exiting jobs (the exclusive-mode gate).
	running int
	// fairUsage and fairTick are the replicated fairshare
	// accumulators; see accounting.go.
	fairUsage map[string]uint64
	fairTick  uint64
	// resv is the backfill stage's current reservation (nil when no
	// job is blocked).
	resv *reservation
	// actions is the outbox drained by TakeActions; spareActions is a
	// drained outbox handed back (recycleActions) for the next one.
	actions      []Action
	spareActions []Action
	// freeAllocs holds the nodeAllocs of drained nodes for reuse, and
	// capsBuf and pickBuf are one scheduling pass's scratch (freeCaps,
	// fitJob). None of them is replicated state.
	freeAllocs []*nodeAlloc
	capsBuf    []nodeCap
	pickBuf    []int
	// idBuf and encBuf are scratch for a new job: its rendered ID and
	// its encoding, which the job then keeps as one string
	// (enqueueJob).
	idBuf  []byte
	encBuf codec.Encoder
	// oneNode maps each configured node to a one-element node list,
	// shared by every one-node job placed there: the server never
	// writes into a job's Nodes (see Job.Nodes), and each list has
	// capacity 1, so an append cannot reach a neighbour's.
	oneNode map[string][]string
	// sigCount counts qsig deliveries per job (the paper notes qsig
	// does not change service state; we track it only for tests).
	sigCount map[JobID]int
	// offline holds nodes excluded from new allocations (pbsnodes -o).
	offline map[string]bool
}

// versioned is one immutable listing built at a mutation version.
// Nothing in it is mutated after Store; readers may hold it
// indefinitely (they see a consistent, possibly slightly stale, state
// — the paper's jstat semantics).
type versioned[T any] struct {
	version uint64
	val     T
}

// cachedListing returns c's value if it was built at the current
// version, and otherwise builds it with build under the read lock
// (concurrent with other readers, excluded only by mutators), stamped
// with the version read under that same lock. The fast path is two
// atomic loads, the version first: Restore empties the caches before
// it stores the restored version, which may equal an old entry's.
func cachedListing[T any](s *Server, c *atomic.Pointer[versioned[T]], build func(*Server) T) (T, uint64) {
	ver := s.version.Load()
	if v := c.Load(); v != nil && v.version == ver {
		s.cacheHits.Add(1)
		return v.val, v.version
	}
	s.cacheMiss.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := &versioned[T]{version: s.version.Load(), val: build(s)}
	c.Store(v)
	return v.val, v.version
}

// statusCountLocked is the number of jobs StatusAll lists. Must be
// called with s.mu held.
func (s *Server) statusCountLocked() int {
	n := len(s.queue)
	for _, id := range s.completed {
		if _, ok := s.jobs[id]; ok {
			n++
		}
	}
	return n
}

// eachStatusLocked calls fn on every known job in StatusAll order:
// submission order, then completed jobs in completion order. Must be
// called with s.mu held.
func (s *Server) eachStatusLocked(fn func(*Job)) {
	for _, id := range s.queue {
		fn(s.jobs[id])
	}
	for _, id := range s.completed {
		if j, ok := s.jobs[id]; ok {
			fn(j)
		}
	}
}

// dirty bumps the mutation epoch, invalidating both listings. Must be
// called with s.mu held for writing.
func (s *Server) dirty() { s.version.Add(1) }

// Version returns the mutation epoch. It changes exactly when a
// status-class read could observe new state, so callers may key their
// own caches on it.
func (s *Server) Version() uint64 { return s.version.Load() }

// ReadCacheStats reports hits and misses of the two per-version
// listing caches (StatusAll and Listing). Single-job and node reads
// use the live table and are never cache events.
func (s *Server) ReadCacheStats() (hits, misses uint64) {
	return s.cacheHits.Load(), s.cacheMiss.Load()
}

// NewServer creates a server with no queued jobs.
func NewServer(cfg Config) *Server {
	if cfg.ServerName == "" {
		cfg.ServerName = "pbs"
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.NodeCPUs <= 0 {
		cfg.NodeCPUs = 1
	}
	if cfg.Policy != PolicyFIFO && cfg.Weights.isZero() {
		cfg.Weights = DefaultSchedWeights
	}
	names := slices.Clone(cfg.Nodes)
	oneNode := make(map[string][]string, len(names))
	for i, n := range names {
		oneNode[n] = names[i : i+1 : i+1]
	}
	return &Server{
		cfg:       cfg,
		jobs:      make(map[JobID]*Job),
		alloc:     make(map[string]*nodeAlloc),
		fairUsage: make(map[string]uint64),
		oneNode:   oneNode,
		sigCount:  make(map[JobID]int),
	}
}

// Name returns the configured server name.
func (s *Server) Name() string { return s.cfg.ServerName }

// renderID renders into s.idBuf the ID of sequence number seq,
// "seq.server", or of sub-job idx of the array based at seq,
// "seq[idx].server", when idx is not negative. Must be called with s.mu
// held.
func (s *Server) renderID(seq uint64, idx int) []byte {
	b := strconv.AppendUint(s.idBuf[:0], seq, 10)
	if idx >= 0 {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(idx), 10)
		b = append(b, ']')
	}
	b = append(b, '.')
	b = append(b, s.cfg.ServerName...)
	s.idBuf = b
	return b
}

// nextID advances the sequence to the next number whose ID the
// IDFilter accepts. A candidate is rendered into scratch and shown to
// the filter in place, so candidates allocate nothing. Must be called
// with s.mu held.
func (s *Server) nextID() {
	for {
		s.nextSeq++
		if s.cfg.IDFilter == nil {
			return
		}
		id := s.renderID(s.nextSeq, -1)
		if s.cfg.IDFilter(JobID(unsafe.String(unsafe.SliceData(id), len(id)))) {
			return
		}
	}
}

// NodeNames returns the configured compute nodes.
func (s *Server) NodeNames() []string {
	return append([]string(nil), s.cfg.Nodes...)
}

// validateSubmit normalizes a request and rejects jobs the cluster
// can never satisfy. Must be called with s.mu held.
func (s *Server) validateSubmit(req *SubmitRequest) error {
	if req.NodeCount <= 0 {
		req.NodeCount = 1
	}
	req.Resources = req.Resources.withDefaults()
	if req.NodeCount > len(s.cfg.Nodes) {
		return &Error{Op: "qsub", Msg: fmt.Sprintf("cannot satisfy %d nodes (cluster has %d)", req.NodeCount, len(s.cfg.Nodes))}
	}
	if req.Resources.NCPUs > s.cfg.NodeCPUs {
		return &Error{Op: "qsub", Msg: fmt.Sprintf("cannot satisfy ncpus=%d (nodes have %d)", req.Resources.NCPUs, s.cfg.NodeCPUs)}
	}
	if s.cfg.NodeMem > 0 && req.Resources.Mem > s.cfg.NodeMem {
		return &Error{Op: "qsub", Msg: fmt.Sprintf("cannot satisfy mem=%s (nodes have %s)", FormatMem(req.Resources.Mem), FormatMem(s.cfg.NodeMem))}
	}
	return nil
}

// maxScratch bounds the encoding scratch a server keeps between jobs.
const maxScratch = 64 << 10

// enqueueJob creates one job from a validated request and queues it:
// job seq, named by idSeq and arrayIdx (see renderID). The job and its
// encoding, one string that also holds its ID, Name, Owner and Script,
// are the only allocations, and the request's strings are copied, so a
// caller may pass views into a buffer it reuses. Must be called with
// s.mu held.
func (s *Server) enqueueJob(req SubmitRequest, idSeq, seq uint64, arrayIdx int) *Job {
	j := &Job{
		Seq:         seq,
		Name:        req.Name,
		Owner:       req.Owner,
		Script:      req.Script,
		NodeCount:   req.NodeCount,
		WallTime:    req.WallTime,
		Res:         req.Resources,
		Priority:    req.Priority,
		ArrayIdx:    arrayIdx,
		State:       StateQueued,
		SubmittedAt: s.logicalNow(),
	}
	if j.Name == "" {
		j.Name = "STDIN"
	}
	if req.Hold {
		j.State = StateHeld
	}
	id := s.renderID(idSeq, arrayIdx)
	s.encBuf.Reset()
	s.encBuf.PutBytes(id)
	putJobFields(&s.encBuf, j)
	enc := string(s.encBuf.Bytes())
	j.ID = JobID(enc[codec.SizeUint(uint64(len(id))):][:len(id)])
	j.useText(enc)
	if s.encBuf.Len() > maxScratch {
		s.encBuf = codec.Encoder{} // keep no giant script's buffer
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j.ID)
	if j.State == StateQueued {
		// The newest Seq: the index's tail.
		s.eligible = append(s.eligible, j)
	}
	s.account(AcctQueued, j)
	if j.State == StateHeld {
		s.account(AcctHeld, j)
	}
	return j
}

// Submit enqueues a job (qsub). It returns the assigned job, whose
// Nodes, if the submission started it, aliases the live job's (see
// Job.Nodes) and must be treated as read-only.
func (s *Server) Submit(req SubmitRequest) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.dirty()
	s.tick()

	if err := s.validateSubmit(&req); err != nil {
		return Job{}, err
	}
	s.nextID()
	j := s.enqueueJob(req, s.nextSeq, s.nextSeq, -1)
	s.schedule()
	return j.view(), nil
}

// SubmitArray expands a job-array submission (qsub -t start-end) into
// its sub-jobs, named "seq[idx].server" in PBS style. The array is one
// mutation: one logical tick, one base sequence number — so sharded
// routing (which canonicalizes "seq[idx]" to "seq") keeps the whole
// array on one scheduler. A request without an array spec degrades to
// a plain Submit.
func (s *Server) SubmitArray(req SubmitRequest) ([]Job, error) {
	if !req.Array.Set {
		j, err := s.Submit(req)
		if err != nil {
			return nil, err
		}
		return []Job{j}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.dirty()
	s.tick()

	n := req.Array.Count()
	if req.Array.Start < 0 || n <= 0 {
		return nil, &Error{Op: "qsub", Msg: fmt.Sprintf("invalid array range %d-%d", req.Array.Start, req.Array.End)}
	}
	if n > maxArraySize {
		return nil, &Error{Op: "qsub", Msg: fmt.Sprintf("array range exceeds %d sub-jobs", maxArraySize)}
	}
	if err := s.validateSubmit(&req); err != nil {
		return nil, err
	}
	s.nextID() // the filter judges the array by its base ID
	base := s.nextSeq
	out := make([]Job, 0, n)
	for k := 0; k < n; k++ {
		idx := req.Array.Start + k
		j := s.enqueueJob(req, base, base+uint64(k), idx)
		out = append(out, j.clone())
	}
	s.nextSeq = base + uint64(n) - 1
	s.schedule()
	return out, nil
}

// Delete removes a job (qdel). Queued and held jobs vanish
// immediately; running jobs transition to Exiting and a KillAction is
// emitted for the daemon to relay to the moms. Like Hold and Release,
// it reads the ID in place from a request buffer, as StatusView does:
// only an unknown ID is copied, into its error.
func (s *Server) Delete(id []byte) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.dirty()
	s.tick()

	j, ok := s.jobs[JobID(id)]
	if !ok {
		return Job{}, errUnknownJob("qdel", JobID(id))
	}
	switch j.State {
	case StateQueued, StateHeld:
		s.dropEligible(j)
		s.removeFromQueue(j)
		delete(s.jobs, j.ID)
		delete(s.sigCount, j.ID)
		s.account(AcctDeleted, j)
		s.schedule()
		return j.clone(), nil
	case StateRunning:
		j.setState(StateExiting)
		s.account(AcctDeleted, j)
		s.actions = append(s.actions, KillAction{Job: j})
		return j.clone(), nil
	case StateExiting:
		return j.clone(), nil // kill already in flight
	default:
		return Job{}, &Error{Op: "qdel", ID: j.ID, Msg: "Request invalid for state of job"}
	}
}

// Hold places a queued job on hold (qhold). The paper's prototype
// could not support holds because its command-replay state transfer
// corrupted held queues; our snapshot-based transfer lifts that
// limitation (see DESIGN.md).
func (s *Server) Hold(id []byte) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.dirty()
	s.tick()
	j, ok := s.jobs[JobID(id)]
	if !ok {
		return Job{}, errUnknownJob("qhold", JobID(id))
	}
	switch j.State {
	case StateQueued, StateHeld:
		if j.State != StateHeld {
			s.account(AcctHeld, j)
			s.dropEligible(j)
			j.setState(StateHeld)
		}
		// A held job no longer competes: jobs behind it may now be
		// runnable (it might have been the blocked reservation holder).
		s.schedule()
		return j.clone(), nil
	default:
		return Job{}, &Error{Op: "qhold", ID: j.ID, Msg: "Request invalid for state of job"}
	}
}

// Release releases a held job (qrls).
func (s *Server) Release(id []byte) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.dirty()
	s.tick()
	j, ok := s.jobs[JobID(id)]
	if !ok {
		return Job{}, errUnknownJob("qrls", JobID(id))
	}
	if j.State != StateHeld {
		return Job{}, &Error{Op: "qrls", ID: j.ID, Msg: "Request invalid for state of job"}
	}
	j.setState(StateQueued)
	s.addEligible(j)
	s.account(AcctReleased, j)
	s.schedule()
	return j.clone(), nil
}

// Signal records a qsig delivery. As the paper observes, signalling
// "does not appear to change the state of the HPC job and resource
// management service", so this neither reorders nor perturbs
// scheduling; it exists so the full PBS command set is exercised.
func (s *Server) Signal(id JobID, sig string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, errUnknownJob("qsig", id)
	}
	if j.State != StateRunning {
		return Job{}, &Error{Op: "qsig", ID: id, Msg: "Request invalid for state of job"}
	}
	s.sigCount[id]++
	return j.clone(), nil
}

// SignalCount reports how many signals a job has received.
func (s *Server) SignalCount(id JobID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sigCount[id]
}

// Status returns a copy of one job (qstat <id>), read from the live
// table under the read lock: O(1), whatever the table size.
func (s *Server) Status(id JobID) (Job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, errUnknownJob("qstat", id)
	}
	return j.clone(), nil
}

// StatusView is Status without the defensive Nodes copy, for callers
// that only read or encode the job: the returned value's Nodes aliases
// the live job's slice, which the server never writes into (see
// Job.Nodes), and must be treated as read-only. The ID is read in
// place from a request buffer: the lookup converts nothing, and only a
// miss copies the ID, into its error.
func (s *Server) StatusView(id []byte) (Job, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[JobID(id)]
	if !ok {
		return Job{}, errUnknownJob("qstat", JobID(id))
	}
	return j.view(), nil
}

// StatusAll returns every known job in submission order, completed
// jobs last in completion order (qstat). The returned slice is shared
// by every caller at the same version — callers must treat it (and
// the jobs in it) as read-only. An unchanged server answers repeated
// polls with the same slice: O(1) per poll, no copying, no lock.
func (s *Server) StatusAll() []Job {
	jobs, _ := cachedListing(s, &s.jobsCache, (*Server).cloneStatusLocked)
	return jobs
}

// cloneStatusLocked deep-copies the StatusAll listing. Must be called
// with s.mu held.
func (s *Server) cloneStatusLocked() []Job {
	jobs := make([]Job, 0, s.statusCountLocked())
	s.eachStatusLocked(func(j *Job) { jobs = append(jobs, j.clone()) })
	return jobs
}

// Listing returns the StatusAll listing encoded for the wire — the job
// count, then each job exactly as EncodeJob writes it — and the
// version it was built at. It is built straight from the live table at
// most once per version, splicing each job's cached encoding where it
// has one, and the bytes are shared by every caller at that version,
// so they must not be modified.
func (s *Server) Listing() (body []byte, version uint64) {
	return cachedListing(s, &s.listing, (*Server).encodeListingLocked)
}

// encodeListingLocked builds Listing's body in a buffer of its exact
// size. Must be called with s.mu held.
func (s *Server) encodeListingLocked() []byte {
	n := s.statusCountLocked()
	size := codec.SizeUint(uint64(n))
	s.eachStatusLocked(func(j *Job) { size += j.encodedSize() })
	e := codec.NewEncoder(size)
	e.PutUint(uint64(n))
	s.eachStatusLocked(func(j *Job) { j.appendTo(e) })
	return e.Bytes()
}

// ErrNotFirstNode refuses a completion reported by a node other than
// the job's first. Only the first node, PBS's mother superior, runs a
// job, so any other report means the replicas placed it differently.
var ErrNotFirstNode = errors.New("pbs: completion from a node other than the job's first")

// jobDoneOn applies the completion that node reports for job id, both
// read in place from a request buffer: they are only looked up and
// compared. A known job refuses the report with ErrNotFirstNode unless
// node is the job's first node, and otherwise it is JobDone. known is
// the job table's own copy of the ID, empty for an unknown job.
func (s *Server) jobDoneOn(id, node []byte, exitCode int, output string) (known JobID, ended bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[JobID(id)]
	if j != nil {
		if len(j.Nodes) == 0 || j.Nodes[0] != string(node) {
			return "", false, fmt.Errorf("%w: %s reported job %s", ErrNotFirstNode, node, id)
		}
		known = j.ID
	}
	return known, s.jobDoneLocked(j, exitCode, output), nil
}

// JobDone applies a completion report from a mom. Duplicate reports
// (a mom retries until its report is answered) are idempotent. output
// is the job's captured standard output. JobDone reports whether this
// report ended the job: false for an unknown job and for a duplicate
// or stale report.
func (s *Server) JobDone(id JobID, exitCode int, output string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobDoneLocked(s.jobs[id], exitCode, output)
}

// jobDoneLocked is JobDone for the job j (nil if unknown) with s.mu
// held.
func (s *Server) jobDoneLocked(j *Job, exitCode int, output string) bool {
	defer s.dirty()
	s.tick()
	if j == nil {
		return false
	}
	if j.State != StateRunning && j.State != StateExiting {
		return false // duplicate or stale report
	}
	// Advance the logical clock to the job's declared end, never
	// backwards. A completion carries the virtual duration of the work
	// it finishes, so job ages, fairshare decay, and backfill
	// arithmetic all observe a walltime-scaled axis instead of one
	// that creeps a nanosecond per command — and the jump is a pure
	// function of replicated state, so replicas stay in lockstep.
	if end := j.StartedAt.UnixNano() + int64(j.WallTime); end > int64(s.ltick) {
		s.ltick = uint64(end)
	}
	j.setState(StateCompleted)
	j.ExitCode = exitCode
	j.Output = output
	j.CompletedAt = s.logicalNow()
	s.account(AcctEnded, j)
	s.releaseAlloc(j)
	s.removeFromQueue(j)
	s.completed = append(s.completed, j.ID)
	if s.cfg.KeepCompleted > 0 {
		for len(s.completed) > s.cfg.KeepCompleted {
			victim := s.completed[0]
			s.completed = s.completed[1:]
			delete(s.jobs, victim)
			delete(s.sigCount, victim)
		}
	}
	s.schedule()
	return true
}

// TakeActions drains the action outbox. The host daemon performs the
// returned actions (starting and killing jobs on moms) in order. Each
// action's Job points at the live record, whose ID, Name, Owner,
// Script, WallTime and Nodes never change once the action is emitted.
func (s *Server) TakeActions() []Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.actions
	if len(a) == 0 {
		return nil
	}
	s.actions, s.spareActions = s.spareActions, nil
	return a
}

// eachLaunched calls fn, under the read lock, on every job that holds
// nodes: the Running and Exiting jobs, a multi-node job once per node.
// It walks the allocation table in node order, so the waiting jobs of
// a long queue cost nothing.
func (s *Server) eachLaunched(fn func(*Job)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range s.cfg.Nodes {
		if a := s.alloc[n]; a != nil {
			for _, id := range a.jobs {
				if j := s.jobs[id]; j != nil {
					fn(j)
				}
			}
		}
	}
}

// recycleActions hands a drained outbox back for a later one to reuse.
func (s *Server) recycleActions(a []Action) {
	clear(a)
	s.mu.Lock()
	if s.spareActions == nil {
		s.spareActions = a[:0]
	}
	s.mu.Unlock()
}

// removeFromQueue drops j from the queue, finding it by binary search
// on Seq (the queue's order). Must be called with s.mu held.
func (s *Server) removeFromQueue(j *Job) {
	i := sort.Search(len(s.queue), func(k int) bool { return s.jobs[s.queue[k]].Seq >= j.Seq })
	if i < len(s.queue) && s.queue[i] == j.ID {
		s.queue = slices.Delete(s.queue, i, i+1)
	}
}

// QueueLengths reports (queued+held, running+exiting, completed)
// counts, handy for tests and status lines. Every queued job that is
// not counted in running is waiting, so this is O(1).
func (s *Server) QueueLengths() (waiting, running, completed int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.queue) - s.running, s.running, len(s.completed)
}

// StatusText renders qstat-style output:
//
//	Job id            Name             User   S Queue
//	----------------  ---------------- ------ - -----
//	0.cluster         job1             alice  R batch
func StatusText(jobs []Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-16s %-10s %s %s\n", "Job id", "Name", "User", "S", "Queue")
	fmt.Fprintf(&b, "%-18s %-16s %-10s %s %s\n",
		strings.Repeat("-", 18), strings.Repeat("-", 16), strings.Repeat("-", 10), "-", "-----")
	for _, j := range jobs {
		fmt.Fprintf(&b, "%-18s %-16s %-10s %s %s\n", j.ID, truncate(j.Name, 16), truncate(j.Owner, 10), j.State, "batch")
	}
	return b.String()
}

// FullStatusText renders qstat -f style per-job attribute output.
func FullStatusText(j Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Job Id: %s\n", j.ID)
	fmt.Fprintf(&b, "    Job_Name = %s\n", j.Name)
	fmt.Fprintf(&b, "    Job_Owner = %s\n", j.Owner)
	fmt.Fprintf(&b, "    job_state = %s (%s)\n", j.State, j.State.longState())
	if j.ArrayIdx >= 0 {
		fmt.Fprintf(&b, "    job_array_index = %d\n", j.ArrayIdx)
	}
	fmt.Fprintf(&b, "    Priority = %d\n", j.Priority)
	fmt.Fprintf(&b, "    Resource_List.nodect = %d\n", j.NodeCount)
	fmt.Fprintf(&b, "    Resource_List.ncpus = %d\n", j.Res.withDefaults().NCPUs)
	if j.Res.Mem > 0 {
		fmt.Fprintf(&b, "    Resource_List.mem = %s\n", FormatMem(j.Res.Mem))
	}
	fmt.Fprintf(&b, "    Resource_List.walltime = %s\n", FormatWalltime(j.WallTime))
	if len(j.Nodes) > 0 {
		fmt.Fprintf(&b, "    exec_host = %s\n", strings.Join(j.Nodes, "+"))
	}
	if j.State == StateCompleted {
		fmt.Fprintf(&b, "    exit_status = %d\n", j.ExitCode)
		if j.Output != "" {
			fmt.Fprintf(&b, "    output = %q\n", j.Output)
		}
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// sortJobsBySeq orders jobs by submission sequence; used by snapshot
// encoding for deterministic output.
func sortJobsBySeq(jobs []*Job) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Seq < jobs[j].Seq })
}
