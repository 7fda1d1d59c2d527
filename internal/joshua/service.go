package joshua

import (
	"sort"
	"sync"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// Sub-service names under the head node's rsm.Mux. Part of the
// replicated contract: every head registers the same names in the
// same order.
const (
	svcPBS   = "pbs"
	svcLocks = "locks"
)

// requestOp peeks at the operation of an encoded rpcRequest without a
// full decode (the Mux route runs on every delivered command).
func requestOp(payload []byte) (Op, bool) {
	d := codec.NewDecoder(payload)
	if d.Byte() != rpcKindRequest {
		return 0, false
	}
	_ = d.String() // skip ReqID
	op := Op(d.Byte())
	if d.Err() != nil {
		return 0, false
	}
	return op, true
}

// routeRequest maps each totally ordered command to the sub-service
// that applies it: the launch mutual exclusion is its own replicated
// service, everything else is the batch system.
func routeRequest(cmd rsm.Command) string {
	if op, ok := requestOp(cmd.Payload); ok && (op == OpJMutex || op == OpJDone) {
		return svcLocks
	}
	return svcPBS
}

// pbsService adapts the local batch daemon (the TORQUE+Maui
// equivalent) to the engine's Service interface: one deterministic
// state machine behind the PBS command interface, exactly the
// paper's "service replicated externally, unmodified".
type pbsService struct {
	daemon *pbs.Daemon
}

func (s *pbsService) Apply(cmd rsm.Command) []byte {
	req, _, err := decodeRPC(cmd.Payload)
	if err != nil || req == nil {
		return nil
	}
	if req.Op == OpJobDone {
		// Internally originated (ordered completions): apply the mom
		// report at this point in the command stream.
		s.daemon.ApplyDone(req.Args.JobID, req.Args.ExitCode, req.Args.Output)
		return (&rpcResponse{ReqID: req.ReqID, OK: true}).encode()
	}
	return executeOn(s.daemon, req.Op, &req.Args, req.ReqID).encode()
}

// ConflictKey classifies the batch-system conflict domains for the
// engine's parallel apply stage. Only operations that touch a single
// job's record and never enter the scheduler are job-local: qsig
// bumps one running job's signal count and an ordered qstat reads one
// job. Every resource-consuming operation — submit, delete, hold,
// release, completions, node state — runs the scheduling pipeline
// over the shared node pool and advances its logical clock, so it
// stays on the global scheduler barrier. (qhold moved there when the
// pipeline landed: holding a queued job now frees the jobs behind it
// immediately, which is a scheduler pass.) Accounting-sink line order
// across distinct jobs is unspecified under parallel apply; the sink
// is local observability, not replicated state.
func (s *pbsService) ConflictKey(cmd rsm.Command) string { return s.PrefixedConflictKey("", cmd) }

// PrefixedConflictKey implements rsm.PrefixedKeyer: the Mux's service
// prefix and "job/<id>" in one string.
func (s *pbsService) PrefixedConflictKey(prefix string, cmd rsm.Command) string {
	op, id, ok := requestJobID(cmd.Payload)
	if !ok || len(id) == 0 {
		return ""
	}
	switch op {
	case OpSignal, OpStat:
		return prefix + "job/" + string(id)
	default:
		return ""
	}
}

func (s *pbsService) Snapshot() []byte { return s.daemon.Server().Snapshot() }

// Fork delegates to the batch server's copy-on-write image capture so
// the engine can serialize checkpoints off the event loop.
func (s *pbsService) Fork() func() []byte { return s.daemon.Server().Fork() }

func (s *pbsService) Restore(state []byte) error { return s.daemon.Restore(state) }

// lockService is the jmutex/jdone distributed mutual exclusion the
// paper runs in the PBS mom job prologue — a second replicated
// service composed with the batch system behind the same engine. The
// first acquire in the total order wins; release clears the entry.
// Apply/Snapshot/Restore run on the replica's event loop goroutine;
// Len is also called from read workers (the jadmin report), so the
// table is guarded by an RWMutex.
type lockService struct {
	mu    sync.RWMutex
	locks map[pbs.JobID]string // job ID -> winning attempt
}

func newLockService() *lockService {
	return &lockService{locks: make(map[pbs.JobID]string)}
}

func (s *lockService) Apply(cmd rsm.Command) []byte {
	req, _, err := decodeRPC(cmd.Payload)
	if err != nil || req == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case OpJMutex:
		owner, held := s.locks[req.Args.JobID]
		if !held {
			s.locks[req.Args.JobID] = req.Args.AttemptID
			owner = req.Args.AttemptID
		}
		return (&rpcResponse{ReqID: req.ReqID, OK: true, Granted: owner == req.Args.AttemptID}).encode()
	case OpJDone:
		delete(s.locks, req.Args.JobID)
		return (&rpcResponse{ReqID: req.ReqID, OK: true}).encode()
	}
	return nil
}

// ConflictKey partitions the lock table by job: jmutex/jdone commands
// for distinct jobs touch distinct entries and commute, so prologue
// races for different jobs may resolve in parallel. Within one job the
// log order decides the winner, exactly as before.
func (s *lockService) ConflictKey(cmd rsm.Command) string { return s.PrefixedConflictKey("", cmd) }

// PrefixedConflictKey implements rsm.PrefixedKeyer: the Mux's service
// prefix and "job/<id>" in one string.
func (s *lockService) PrefixedConflictKey(prefix string, cmd rsm.Command) string {
	_, id, ok := requestJobID(cmd.Payload)
	if !ok || len(id) == 0 {
		return ""
	}
	return prefix + "job/" + string(id)
}

func (s *lockService) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.locks))
	for id := range s.locks {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	e := codec.NewEncoder(32)
	e.PutUint(uint64(len(ids)))
	for _, id := range ids {
		e.PutString(id)
		e.PutString(s.locks[pbs.JobID(id)])
	}
	return e.Bytes()
}

// Fork copies the lock table under the read lock and defers the
// sorted encode, producing the same bytes Snapshot would have at
// capture time.
func (s *lockService) Fork() func() []byte {
	s.mu.RLock()
	locks := make(map[pbs.JobID]string, len(s.locks))
	for id, owner := range s.locks {
		locks[id] = owner
	}
	s.mu.RUnlock()
	return func() []byte {
		ids := make([]string, 0, len(locks))
		for id := range locks {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		e := codec.NewEncoder(32)
		e.PutUint(uint64(len(ids)))
		for _, id := range ids {
			e.PutString(id)
			e.PutString(locks[pbs.JobID(id)])
		}
		return e.Bytes()
	}
}

func (s *lockService) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	n := d.Uint()
	locks := make(map[pbs.JobID]string, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		id := pbs.JobID(d.String())
		locks[id] = d.String()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	s.mu.Lock()
	s.locks = locks
	s.mu.Unlock()
	return nil
}

// Len reports the held-lock count; safe from any goroutine.
func (s *lockService) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.locks)
}
