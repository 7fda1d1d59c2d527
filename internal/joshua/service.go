package joshua

import (
	"fmt"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// headService is a head node's one replicated state machine: the
// local batch daemon (the TORQUE+Maui equivalent, "replicated
// externally, unmodified"), driven by the total order. Completions are
// part of that order (jdone), so placement is a pure function of it and
// every head starts each job on the same first node: the launch needs
// no lock round.
type headService struct {
	daemon *pbs.Daemon
}

func newHeadService(d *pbs.Daemon) *headService {
	return &headService{daemon: d}
}

// Apply parses the command in place, applies it to the batch daemon,
// and encodes the reply straight from the result into the engine's
// encoder, which the engine copies into its deduplication table and
// sends from.
func (s *headService) Apply(cmd rsm.Command, reply *codec.Encoder) {
	var v view
	if v.parse(cmd.Payload) {
		execute(reply, s.daemon, &v)
	}
}

// headSnapshotFormat opens every head snapshot. The layout is
//
//	[format byte] [pbs snapshot]
//
// It carries no checksum of its own: the engine hands Restore only
// bytes that already passed the state-transfer frame CRC or the
// checkpoint chunk CRCs. Format 1 also carried the jmutex lock table.
const headSnapshotFormat = 2

// Snapshot encodes the state exactly as a Fork taken now would.
func (s *headService) Snapshot() []byte { return s.Fork()() }

// Fork captures the batch server's copy-on-write image and defers the
// encode.
func (s *headService) Fork() func() []byte {
	image := s.daemon.Server().Fork()
	return func() []byte {
		pbsState := image()
		out := make([]byte, 1+len(pbsState))
		out[0] = headSnapshotFormat
		copy(out[1:], pbsState)
		return out
	}
}

// Restore checks the format byte and restores the batch server from
// the rest.
func (s *headService) Restore(state []byte) error {
	if len(state) == 0 || state[0] != headSnapshotFormat {
		return fmt.Errorf("joshua: head snapshot is not format %d", headSnapshotFormat)
	}
	return s.daemon.Restore(state[1:])
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
		j, err = d.StatusView(v.jobID)
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
		j, err = d.Delete(pbs.JobID(v.jobID))
	case OpHold:
		j, err = d.Hold(pbs.JobID(v.jobID))
	case OpRelease:
		j, err = d.Release(pbs.JobID(v.jobID))
	case OpSignal:
		j, err = d.Signal(pbs.JobID(v.jobID), string(v.signal))
	case OpJDone:
		err = d.ApplyDone(v.jobID, v.node, v.exitCode, v.output)
		putReply(e, reqID, err, srv.Version())
		return
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
