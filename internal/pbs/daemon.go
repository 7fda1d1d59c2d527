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
	// outstanding start/kill requests not yet resolved by a
	// completion, for retransmission over the lossy datagram
	// transport.
	outstanding map[JobID]*outstandingJob
	done        chan struct{}
	once        sync.Once
}

// ApplyDone applies the completion that node reports for job id (see
// Server.JobDoneOn, whose refusal it returns): JOSHUA's heads call it
// in total order for each jdone, the plain server directly. OnJobDone
// fires only for the report that actually ended the job.
func (d *Daemon) ApplyDone(id JobID, node string, exitCode int, output string) error {
	ended, err := d.srv.JobDoneOn(id, node, exitCode, output)
	if err != nil {
		return err
	}
	d.mu.Lock()
	delete(d.outstanding, id)
	d.mu.Unlock()
	if ended && d.cfg.OnJobDone != nil {
		d.cfg.OnJobDone(id, exitCode)
	}
	d.flush()
	return nil
}

type outstandingJob struct {
	job      Job
	kill     bool
	lastSent time.Time
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
		outstanding: make(map[JobID]*outstandingJob),
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
func (d *Daemon) StatusView(id JobID) (Job, error) { return d.srv.StatusView(id) }

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
	d.outstanding = make(map[JobID]*outstandingJob)
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

// flush drains the server's action outbox onto the wire.
func (d *Daemon) flush() {
	for _, a := range d.srv.TakeActions() {
		switch act := a.(type) {
		case StartAction:
			d.mu.Lock()
			d.outstanding[act.Job.ID] = &outstandingJob{job: act.Job, lastSent: time.Now()}
			d.mu.Unlock()
			d.sendStart(act.Job)
		case KillAction:
			d.mu.Lock()
			d.outstanding[act.Job.ID] = &outstandingJob{job: act.Job, kill: true, lastSent: time.Now()}
			d.mu.Unlock()
			d.sendKill(act.Job)
		}
	}
}

func (d *Daemon) sendStart(j Job) {
	msg := &momMsg{
		Kind:     momKindStart,
		JobID:    j.ID,
		Name:     j.Name,
		Owner:    j.Owner,
		Script:   j.Script,
		WallTime: j.WallTime,
		Nodes:    j.Nodes,
	}
	b := msg.encode()
	for _, node := range j.Nodes {
		if addr, ok := d.cfg.Moms[node]; ok {
			_ = d.cfg.Endpoint.Send(addr, b)
		}
	}
}

func (d *Daemon) sendKill(j Job) {
	msg := &momMsg{Kind: momKindKill, JobID: j.ID}
	b := msg.encode()
	for _, node := range j.Nodes {
		if addr, ok := d.cfg.Moms[node]; ok {
			_ = d.cfg.Endpoint.Send(addr, b)
		}
	}
}

// resend retransmits unresolved start/kill requests.
func (d *Daemon) resend() {
	now := time.Now()
	var starts, kills []Job
	d.mu.Lock()
	for _, o := range d.outstanding {
		if now.Sub(o.lastSent) < d.cfg.ResendInterval {
			continue
		}
		o.lastSent = now
		if o.kill {
			kills = append(kills, o.job)
		} else {
			starts = append(starts, o.job)
		}
	}
	d.mu.Unlock()
	for _, j := range starts {
		d.sendStart(j)
	}
	for _, j := range kills {
		d.sendKill(j)
	}
}
