package pbs

import (
	"slices"
	"sync"
	"sync/atomic"
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
// group communication system. Every head applies the same placements,
// but only the one its sender rule names (SetSender: the view's
// sequencer) relays them; the others drain their outbox unsent.
type Daemon struct {
	srv *Server
	cfg DaemonConfig
	// nodeOf maps each mom's address back to its node, to attribute
	// the acks that arrive on the endpoint.
	nodeOf map[transport.Addr]string
	// sender is the rule installed by SetSender; nil always sends.
	sender atomic.Pointer[func() bool]

	mu sync.Mutex
	// outstanding holds, on the sender only, the start of every job
	// some node has not acknowledged and the kill of every job not yet
	// resolved by a completion, for retransmission over the lossy
	// datagram transport. Each is encoded once, and a resend sends the
	// same frame.
	outstanding map[JobID]outstanding
	// adopted reports that outstanding covers every launched job: the
	// resend tick derived it from the server's state since this daemon
	// last was not the sender, or last restored a snapshot.
	adopted bool
	// resends is the resend tick's scratch list (run goroutine only).
	resends []outstanding
	stats   daemonCounters
	done    chan struct{}
	once    sync.Once
}

// outstanding is one unresolved start or kill: the frame and the nodes
// it goes to. A start's nodes are those that have not acknowledged it,
// a kill's are all the job's; the slice is never written in place.
type outstanding struct {
	frame    []byte
	nodes    []string
	lastSent time.Time
}

// DaemonStats counts a daemon's traffic with the moms.
type DaemonStats struct {
	Sent    uint64 // start and kill datagrams relayed once, adoptions included
	Resent  uint64 // datagrams the resend tick sent again
	Acks    uint64 // repeated starts the moms acknowledged
	Adopted uint64 // launched jobs taken over on becoming the sender
}

type daemonCounters struct {
	sent, resent, acks, adopted atomic.Uint64
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
	// Endpoint sends starts and kills to the moms and receives their
	// acks of repeated starts; the daemon owns and closes it.
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
		nodeOf:      make(map[transport.Addr]string, len(cfg.Moms)),
		outstanding: make(map[JobID]outstanding),
		done:        make(chan struct{}),
	}
	for node, addr := range cfg.Moms {
		d.nodeOf[addr] = node
	}
	go d.run()
	return d
}

// SetSender installs the rule that decides whether this daemon talks
// to the moms. A daemon the rule refuses drains its server's actions
// without sending them and keeps nothing to resend; one the rule
// accepts relays them, and on the first resend tick after it became
// the sender it adopts every launched job: it sends each Running job's
// start and each Exiting job's kill once, then resends them like its
// own. Nil, the default, always sends.
func (d *Daemon) SetSender(rule func() bool) { d.sender.Store(&rule) }

// isSender applies the sender rule.
func (d *Daemon) isSender() bool {
	rule := d.sender.Load()
	return rule == nil || *rule == nil || (*rule)()
}

// Stats returns a snapshot of the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	return DaemonStats{
		Sent:    d.stats.sent.Load(),
		Resent:  d.stats.resent.Load(),
		Acks:    d.stats.acks.Load(),
		Adopted: d.stats.adopted.Load(),
	}
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
func (d *Daemon) Delete(id []byte) (Job, error) {
	j, err := d.srv.Delete(id)
	d.flush()
	return j, err
}

// Hold runs qhold.
func (d *Daemon) Hold(id []byte) (Job, error) {
	j, err := d.srv.Hold(id)
	d.flush()
	return j, err
}

// Release runs qrls and dispatches any resulting starts.
func (d *Daemon) Release(id []byte) (Job, error) {
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
// transfer for a joining head node, or a restarted one's recovery).
// The outstanding requests go with the old state; if this daemon is
// the sender, its next resend tick adopts the restored launched jobs.
func (d *Daemon) Restore(snapshot []byte) error {
	if err := d.srv.Restore(snapshot); err != nil {
		return err
	}
	d.mu.Lock()
	clear(d.outstanding)
	d.adopted = false
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
			d.tick()
		case dg, ok := <-d.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			d.onAck(dg)
		}
	}
}

// flush drains the server's action outbox. The sender puts it on the
// wire, encoding each start or kill once into the frame its resends
// reuse; any other daemon only drops it.
func (d *Daemon) flush() {
	acts := d.srv.TakeActions()
	if acts == nil {
		return
	}
	if d.isSender() {
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
			d.stats.sent.Add(d.send(o))
		}
	}
	d.srv.recycleActions(acts)
}

// send transmits one frame to each of its nodes' moms and returns how
// many datagrams it sent.
func (d *Daemon) send(o outstanding) uint64 {
	var n uint64
	for _, node := range o.nodes {
		if addr, ok := d.cfg.Moms[node]; ok {
			_ = d.cfg.Endpoint.Send(addr, o.frame)
			n++
		}
	}
	return n
}

// tick re-reads the sender rule. A daemon that is not the sender
// forgets its outstanding requests; one that has just become it adopts
// the launched jobs; the sender then resends what is due.
func (d *Daemon) tick() {
	if !d.isSender() {
		d.mu.Lock()
		clear(d.outstanding)
		d.adopted = false
		d.mu.Unlock()
		return
	}
	d.adopt()
	d.resend()
}

// adopt derives the outstanding set from the server's state, once per
// spell as the sender: a start for every Running job and a kill for
// every Exiting one, each sent once. A job this daemon relayed itself
// since it became the sender is already outstanding and is left as it
// is. The server's read lock is held while the set is filled, so a
// completion applied concurrently either precedes the job's adoption
// or removes it afterwards.
func (d *Daemon) adopt() {
	d.mu.Lock()
	if d.adopted {
		d.mu.Unlock()
		return
	}
	d.adopted = true
	now := time.Now()
	due := d.resends[:0]
	d.srv.eachLaunched(func(j *Job) {
		if _, ok := d.outstanding[j.ID]; ok {
			return
		}
		frame := encodeKill(j.ID)
		if j.State == StateRunning {
			frame = encodeStart(j)
		}
		o := outstanding{frame: frame, nodes: j.Nodes, lastSent: now}
		d.outstanding[j.ID] = o
		due = append(due, o)
	})
	d.mu.Unlock()
	d.stats.adopted.Add(uint64(len(due)))
	for _, o := range due {
		d.stats.sent.Add(d.send(o))
	}
	clear(due)
	d.resends = due
}

// resend retransmits the outstanding requests that are due.
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
		d.stats.resent.Add(d.send(o))
	}
	clear(due)
	d.resends = due
}

// onAck takes one mom's acknowledgement of a repeated start: that node
// need not hear the start again, and once every node of the job has
// acked, the start is no longer outstanding. A kill is never acked; it
// is resent until the job's completion.
func (d *Daemon) onAck(dg transport.Message) {
	id, ok := decodeStarted(dg.Payload)
	node, known := d.nodeOf[dg.From]
	if !ok || !known {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.outstanding[JobID(id)]
	if !ok || o.frame[0] != momKindStart {
		return
	}
	i := slices.Index(o.nodes, node)
	if i < 0 {
		return
	}
	d.stats.acks.Add(1)
	if len(o.nodes) == 1 {
		delete(d.outstanding, JobID(id))
		return
	}
	o.nodes = slices.Concat(o.nodes[:i:i], o.nodes[i+1:])
	d.outstanding[JobID(id)] = o
}
