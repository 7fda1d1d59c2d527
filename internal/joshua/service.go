package joshua

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// headService is a head node's one replicated state machine: the local
// batch daemon (the TORQUE+Maui equivalent, "replicated externally,
// unmodified") and the jmutex/jdone lock table the paper runs in the
// mom job prologue, both driven by the same total order.
type headService struct {
	daemon *pbs.Daemon
	locks  *lockTable
}

func newHeadService(d *pbs.Daemon) *headService {
	return &headService{daemon: d, locks: newLockTable()}
}

// Apply parses the command in place, applies it to the lock table or
// the batch daemon, and encodes the reply straight from the result
// into a pooled encoder; the one copy returned is what the engine
// keeps in its deduplication table.
func (s *headService) Apply(cmd rsm.Command) []byte {
	var v view
	if !v.parse(cmd.Payload) {
		return nil
	}
	e := codec.GetEncoder(256)
	defer e.Release()
	switch v.op {
	case OpJMutex, OpJDone:
		s.locks.apply(e, &v)
	case OpJobDone:
		// Internally originated (ordered completions): apply the mom
		// report at this point in the command stream.
		s.daemon.ApplyDone(pbs.JobID(v.jobID), v.exitCode, string(v.output))
		putAck(e, v.reqID, false)
	default:
		execute(e, s.daemon, &v)
	}
	return bytes.Clone(e.Bytes())
}

// ConflictKey classifies the conflict domains for the engine's
// parallel apply stage. Only operations that touch a single job's
// record and never enter the scheduler are job-local: qsig bumps one
// running job's signal count and an ordered qstat reads one job
// ("job/<id>"). jmutex/jdone for distinct jobs touch distinct lock
// entries and commute, so prologue races for different jobs resolve
// in parallel; within one job the log order decides the winner. Lock
// keys live in their own space ("lock/<id>"), so a lock command never
// serializes behind a qsig or qstat of the same job. Every resource-
// consuming operation — submit, delete, hold, release, completions,
// node state — runs the scheduling pipeline over the shared node pool
// and advances its logical clock, so it stays on the global barrier
// (""). Accounting-sink line order across distinct jobs is unspecified
// under parallel apply; the sink is local observability, not
// replicated state.
func (s *headService) ConflictKey(cmd rsm.Command) string {
	var v view
	if !v.parse(cmd.Payload) || len(v.jobID) == 0 {
		return ""
	}
	switch v.op {
	case OpSignal, OpStat:
		return "job/" + string(v.jobID)
	case OpJMutex, OpJDone:
		return "lock/" + string(v.jobID)
	default:
		return ""
	}
}

// headSnapshotFormat opens every head snapshot. The layout is
//
//	[format byte] [len-prefixed pbs snapshot] [uvarint n] n × ([job ID] [attempt])
//
// with the lock entries in job-ID order. It carries no checksum of its
// own: the engine hands Restore only bytes that already passed the
// state-transfer frame CRC or the checkpoint chunk CRCs. The earlier
// sectioned layout opened with its section count, 2, so it fails the
// format check.
const headSnapshotFormat = 1

// Snapshot encodes the state exactly as a Fork taken now would.
func (s *headService) Snapshot() []byte { return s.Fork()() }

// Fork captures the batch server's copy-on-write image and a copy of
// the lock table, and defers the encode.
func (s *headService) Fork() func() []byte {
	image := s.daemon.Server().Fork()
	locks := s.locks.clone()
	return func() []byte {
		pbsState := image()
		e := codec.NewEncoder(len(pbsState) + 32*len(locks) + 16)
		e.PutByte(headSnapshotFormat)
		e.PutBytes(pbsState)
		putLocks(e, locks)
		return e.Bytes()
	}
}

// Restore decodes the whole snapshot before touching any state, so a
// malformed lock table leaves the daemon as it was.
func (s *headService) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	if f := d.Byte(); d.Err() == nil && f != headSnapshotFormat {
		return fmt.Errorf("joshua: head snapshot format %d, want %d", f, headSnapshotFormat)
	}
	pbsState := d.Bytes()
	n := d.Uint()
	if d.Err() != nil || n > uint64(d.Remaining()) {
		return fmt.Errorf("joshua: corrupt head snapshot: %v", d.Err())
	}
	locks := make(map[pbs.JobID]string, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		id := pbs.JobID(d.String())
		locks[id] = d.String()
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("joshua: corrupt head snapshot: %w", err)
	}
	if err := s.daemon.Restore(pbsState); err != nil {
		return err
	}
	s.locks.mu.Lock()
	s.locks.held = locks
	s.locks.mu.Unlock()
	return nil
}

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
	case OpStatAll:
		body, epoch := srv.Listing()
		putListing(e, reqID, body, epoch)
		return
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

// lockTable is the jmutex/jdone distributed mutual exclusion: the
// first acquire in the total order wins, and release clears the entry.
// Apply and Restore run on the engine's goroutines; Len is also called
// from read workers (the jadmin report), so the table is guarded by an
// RWMutex.
type lockTable struct {
	mu   sync.RWMutex
	held map[pbs.JobID]string // job ID -> winning attempt (a mom's name)
}

func newLockTable() *lockTable {
	return &lockTable{held: make(map[pbs.JobID]string)}
}

// apply runs one jmutex or jdone and writes its reply. The lookups
// convert nothing; only a newly won lock copies its job ID and
// attempt ID out of the payload.
func (t *lockTable) apply(e *codec.Encoder, v *view) {
	t.mu.Lock()
	granted := false
	switch v.op {
	case OpJMutex:
		owner, held := t.held[pbs.JobID(v.jobID)]
		if !held {
			owner = string(v.attemptID)
			t.held[pbs.JobID(v.jobID)] = owner
		}
		granted = owner == string(v.attemptID)
	case OpJDone:
		delete(t.held, pbs.JobID(v.jobID))
	}
	t.mu.Unlock()
	putAck(e, v.reqID, granted)
}

func (t *lockTable) clone() map[pbs.JobID]string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return maps.Clone(t.held)
}

// Len reports the held-lock count; safe from any goroutine.
func (t *lockTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.held)
}

// putLocks writes a lock table in job-ID order, so equal tables encode
// to equal bytes.
func putLocks(e *codec.Encoder, locks map[pbs.JobID]string) {
	ids := slices.Sorted(maps.Keys(locks))
	e.PutUint(uint64(len(ids)))
	for _, id := range ids {
		e.PutString(string(id))
		e.PutString(locks[id])
	}
}
