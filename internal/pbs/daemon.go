package pbs

import (
	"sync"
	"time"

	"joshua/internal/transport"
)

// Daemon binds a Server state machine to the network: it relays the
// server's scheduling decisions (start/kill) to the compute-node moms
// and applies the completions its head hands it (ApplyDone). It is
// the piece of a TORQUE head node that talks RPP to the moms.
//
// A standalone Daemon is a complete single-head batch system — the
// baseline of the paper's evaluation. The JOSHUA server wraps a
// Daemon per head node and routes the command interface through the
// group communication system.
type Daemon struct {
	srv *Server
	cfg DaemonConfig

	mu sync.Mutex
	// outstanding holds the start or kill of every job not yet
	// resolved by a completion, for retransmission over the lossy
	// datagram transport. Each is encoded once, and a resend sends the
	// same frame.
	outstanding map[JobID]outstanding
	// resends is the resend tick's scratch list (run goroutine only).
	resends []outstanding
	done    chan struct{}
	once    sync.Once
}

// outstanding is one unresolved start or kill: the frame and the nodes
// it goes to (the job's Nodes, never written in place).
type outstanding struct {
	frame    []byte
	nodes    []string
	lastSent time.Time
}

// ApplyDone applies the completion that node reports for job id: a
// known job refuses it with ErrNotFirstNode unless node is the job's
// first node. OnJobDone fires only for the report that actually ended
// the job. The report is read in place from a request buffer, the form
// JOSHUA's heads apply each jdone in total order: the job ID and node
// are only looked up and compared, so the output, which the job keeps,
// is the one copy it makes.
func (d *Daemon) ApplyDone(id, node []byte, exitCode int, output []byte) error {
	known, ended, err := d.srv.jobDoneOn(id, node, exitCode, string(output))
	if err != nil {
		return err
	}
	if known != "" {
		d.mu.Lock()
		delete(d.outstanding, known)
		d.mu.Unlock()
	}
	if ended && d.cfg.OnJobDone != nil {
		d.cfg.OnJobDone(known, exitCode)
	}
	d.flush()
	return nil
}

// DaemonConfig parameterizes a Daemon.
type DaemonConfig struct {
	// Endpoint sends starts and kills to the moms, which answer
	// nothing on it; the daemon owns and closes it.
	Endpoint transport.Endpoint
	// Moms maps compute-node names (Server Config.Nodes) to mom
	// transport addresses.
	Moms map[string]transport.Addr
	// ResendInterval is the retransmission period for unresolved
	// start/kill requests. Default 200ms.
	ResendInterval time.Duration
	// OnJobDone, when non-nil, is invoked after a completion report
	// is applied (JOSHUA uses it to track job turnaround).
	OnJobDone func(id JobID, exitCode int)
}

// NewDaemon creates and runs a daemon for srv.
func NewDaemon(srv *Server, cfg DaemonConfig) *Daemon {
	if cfg.ResendInterval <= 0 {
		cfg.ResendInterval = 200 * time.Millisecond
	}
	d := &Daemon{
		srv:         srv,
		cfg:         cfg,
		outstanding: make(map[JobID]outstanding),
		done:        make(chan struct{}),
	}
	go d.run()
	return d
}

// Server exposes the underlying state machine (status queries,
// snapshots).
func (d *Daemon) Server() *Server { return d.srv }

// Close stops the daemon.
func (d *Daemon) Close() {
	d.once.Do(func() {
		close(d.done)
		d.cfg.Endpoint.Close()
	})
}

// Submit runs qsub and dispatches any resulting job starts.
func (d *Daemon) Submit(req SubmitRequest) (Job, error) {
	j, err := d.srv.Submit(req)
	d.flush()
	return j, err
}

// SubmitArray runs an array qsub (qsub -t) and dispatches any
// resulting job starts.
func (d *Daemon) SubmitArray(req SubmitRequest) ([]Job, error) {
	jobs, err := d.srv.SubmitArray(req)
	d.flush()
	return jobs, err
}

// Delete runs qdel and dispatches any resulting kills/starts.
func (d *Daemon) Delete(id JobID) (Job, error) {
	j, err := d.srv.Delete(id)
	d.flush()
	return j, err
}

// Hold runs qhold.
func (d *Daemon) Hold(id JobID) (Job, error) {
	j, err := d.srv.Hold(id)
	d.flush()
	return j, err
}

// Release runs qrls and dispatches any resulting starts.
func (d *Daemon) Release(id JobID) (Job, error) {
	j, err := d.srv.Release(id)
	d.flush()
	return j, err
}

// Signal runs qsig.
func (d *Daemon) Signal(id JobID, sig string) (Job, error) {
	return d.srv.Signal(id, sig)
}

// FlushActions dispatches any pending scheduling actions. Callers that
// mutate the Server directly (e.g. bringing a node back online) use it
// to relay the resulting job starts to the moms.
func (d *Daemon) FlushActions() { d.flush() }

// Status runs qstat for one job.
func (d *Daemon) Status(id JobID) (Job, error) { return d.srv.Status(id) }

// StatusView is the clone-free variant of Status (see
// Server.StatusView): the returned job's Nodes aliases the live job
// and must be treated as read-only.
func (d *Daemon) StatusView(id []byte) (Job, error) { return d.srv.StatusView(id) }

// StatusAll runs qstat for all jobs.
func (d *Daemon) StatusAll() []Job { return d.srv.StatusAll() }

// Restore replaces server state from a snapshot (JOSHUA state
// transfer for a joining head node). Outstanding requests are
// dropped: running jobs were started by the established head nodes,
// whose daemons keep retransmitting if needed; their completions reach
// this daemon through ApplyDone like everyone else's.
func (d *Daemon) Restore(snapshot []byte) error {
	if err := d.srv.Restore(snapshot); err != nil {
		return err
	}
	d.mu.Lock()
	d.outstanding = make(map[JobID]outstanding)
	d.mu.Unlock()
	return nil
}

func (d *Daemon) run() {
	tick := time.NewTicker(d.cfg.ResendInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-tick.C:
			d.resend()
		}
	}
}

// flush drains the server's action outbox onto the wire: each start
// or kill is encoded once into the frame its resends reuse.
func (d *Daemon) flush() {
	acts := d.srv.TakeActions()
	if acts == nil {
		return
	}
	now := time.Now()
	for _, a := range acts {
		var (
			j     *Job
			frame []byte
		)
		switch act := a.(type) {
		case StartAction:
			j, frame = act.Job, encodeStart(act.Job)
		case KillAction:
			j, frame = act.Job, encodeKill(act.Job.ID)
		}
		o := outstanding{frame: frame, nodes: j.Nodes, lastSent: now}
		d.mu.Lock()
		d.outstanding[j.ID] = o
		d.mu.Unlock()
		d.send(o)
	}
	d.srv.recycleActions(acts)
}

// send transmits one frame to each of its nodes' moms.
func (d *Daemon) send(o outstanding) {
	for _, node := range o.nodes {
		if addr, ok := d.cfg.Moms[node]; ok {
			_ = d.cfg.Endpoint.Send(addr, o.frame)
		}
	}
}

// resend retransmits unresolved start/kill requests.
func (d *Daemon) resend() {
	now := time.Now()
	due := d.resends[:0]
	d.mu.Lock()
	for id, o := range d.outstanding {
		if now.Sub(o.lastSent) < d.cfg.ResendInterval {
			continue
		}
		o.lastSent = now
		d.outstanding[id] = o
		due = append(due, o)
	}
	d.mu.Unlock()
	for _, o := range due {
		d.send(o)
	}
	clear(due)
	d.resends = due
}
