package joshua

import (
	"bytes"
	"fmt"
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

// routeRequest maps each totally ordered command to the sub-service
// that applies it: the launch mutual exclusion is its own replicated
// service, everything else is the batch system. It reads the header
// only; the sub-service parses the rest.
func routeRequest(cmd rsm.Command) string {
	var v view
	if v.header(codec.NewDecoder(cmd.Payload)) && (v.op == OpJMutex || v.op == OpJDone) {
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

// Apply parses the command in place and encodes the reply straight
// from the result into a pooled encoder; the one copy returned is what
// the engine keeps in its deduplication table.
func (s *pbsService) Apply(cmd rsm.Command) []byte {
	var v view
	if !v.parse(cmd.Payload) {
		return nil
	}
	e := codec.GetEncoder(256)
	defer e.Release()
	if v.op == OpJobDone {
		// Internally originated (ordered completions): apply the mom
		// report at this point in the command stream.
		s.daemon.ApplyDone(pbs.JobID(v.jobID), v.exitCode, string(v.output))
		putAck(e, v.reqID, false)
	} else {
		execute(e, s.daemon, &v)
	}
	return bytes.Clone(e.Bytes())
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
	var v view
	if !v.parse(cmd.Payload) || len(v.jobID) == 0 {
		return ""
	}
	switch v.op {
	case OpSignal, OpStat:
		return prefix + "job/" + string(v.jobID)
	default:
		return ""
	}
}

func (s *pbsService) Snapshot() []byte { return s.daemon.Server().Snapshot() }

// Fork delegates to the batch server's copy-on-write image capture so
// the engine can serialize checkpoints off the event loop.
func (s *pbsService) Fork() func() []byte { return s.daemon.Server().Fork() }

func (s *pbsService) Restore(state []byte) error { return s.daemon.Restore(state) }

// execute applies one PBS interface operation to a batch service and
// writes its reply into e, the bytes of the rpcResponse it stands for.
// Every reply carries the batch-state version so a sharded client can
// use its own acked mutations as an epoch floor for later local reads
// (read-your-writes per shard): mutations the version after they
// applied, reads the version they were served at. Version counts
// applied mutations under the state lock, so the stamp is
// deterministic across replicas — safe to record in the replicated
// dedup table. Reads answer exactly as the local read path does, so
// ordered listings frame the cached Listing like local ones.
func execute(e *codec.Encoder, d *pbs.Daemon, v *view) {
	srv, reqID := d.Server(), v.reqID
	id := pbs.JobID(v.jobID)
	var (
		j   pbs.Job
		err error
	)
	switch v.op {
	case OpSubmit:
		submit(e, d, v)
		return
	case OpStatAll, OpStatLocal:
		if v.op == OpStatAll || id == "" {
			body, epoch := srv.Listing()
			putListing(e, reqID, body, epoch)
			return
		}
		fallthrough
	case OpStat:
		// The epoch is read before the job, so it never claims a
		// version newer than the state it stamps.
		epoch := srv.Version()
		j, err = d.StatusView(id)
		putJobReply(e, reqID, j, err, epoch)
		return
	case OpNodesLocal:
		putResponse(e, reqID, &rpcResponse{OK: true, Nodes: srv.NodesStatus(), Epoch: srv.Version()})
		return
	case OpNodeOffline:
		err = srv.SetNodeOffline(string(v.node), true)
		putReply(e, reqID, err, srv.Version())
		return
	case OpNodeOnline:
		if err = srv.SetNodeOffline(string(v.node), false); err == nil {
			d.FlushActions()
		}
		putReply(e, reqID, err, srv.Version())
		return
	case OpDelete:
		j, err = d.Delete(id)
	case OpHold:
		j, err = d.Hold(id)
	case OpRelease:
		j, err = d.Release(id)
	case OpSignal:
		j, err = d.Signal(id, string(v.signal))
	default:
		putReply(e, reqID, fmt.Errorf("joshua: unknown operation %v", v.op), srv.Version())
		return
	}
	putJobReply(e, reqID, j, err, srv.Version())
}

// submit runs qsub for one OpSubmit and writes its reply. A submission
// may carry several jobs in one command — the batching remedy for
// total-order throughput overhead that the paper points to ("a command
// line job submission to contain a number of individual jobs") — or a
// job array (jsub -t), one command and one scheduler pass whose
// sub-jobs are named "seq[idx].server". A failure part-way reports the
// jobs submitted before it.
func submit(e *codec.Encoder, d *pbs.Daemon, v *view) {
	req, reqID := v.submitRequest(), v.reqID
	if req.Array.Set {
		jobs, err := d.SubmitArray(req)
		putReply(e, reqID, err, d.Server().Version(), jobs...)
		return
	}
	var one [1]pbs.Job
	jobs := one[:0]
	var err error
	for i := 0; i < max(v.count, 1); i++ {
		var j pbs.Job
		if j, err = d.Submit(req); err != nil {
			break
		}
		jobs = append(jobs, j)
	}
	putReply(e, reqID, err, d.Server().Version(), jobs...)
}

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
	var v view
	if !v.parse(cmd.Payload) || (v.op != OpJMutex && v.op != OpJDone) {
		return nil
	}
	e := codec.GetEncoder(64)
	defer e.Release()
	s.apply(e, &v)
	return bytes.Clone(e.Bytes())
}

// apply runs one jmutex or jdone and writes its reply. The lookups
// convert nothing; only a newly won lock copies its job ID and
// attempt ID out of the payload.
func (s *lockService) apply(e *codec.Encoder, v *view) {
	s.mu.Lock()
	granted := false
	switch v.op {
	case OpJMutex:
		owner, held := s.locks[pbs.JobID(v.jobID)]
		if !held {
			owner = string(v.attemptID)
			s.locks[pbs.JobID(v.jobID)] = owner
		}
		granted = owner == string(v.attemptID)
	case OpJDone:
		delete(s.locks, pbs.JobID(v.jobID))
	}
	s.mu.Unlock()
	putAck(e, v.reqID, granted)
}

// ConflictKey partitions the lock table by job: jmutex/jdone commands
// for distinct jobs touch distinct entries and commute, so prologue
// races for different jobs may resolve in parallel. Within one job the
// log order decides the winner, exactly as before.
func (s *lockService) ConflictKey(cmd rsm.Command) string { return s.PrefixedConflictKey("", cmd) }

// PrefixedConflictKey implements rsm.PrefixedKeyer: the Mux's service
// prefix and "job/<id>" in one string.
func (s *lockService) PrefixedConflictKey(prefix string, cmd rsm.Command) string {
	var v view
	if !v.parse(cmd.Payload) || len(v.jobID) == 0 {
		return ""
	}
	return prefix + "job/" + string(v.jobID)
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
