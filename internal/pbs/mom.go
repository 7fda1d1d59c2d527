package pbs

import (
	"errors"
	"strings"
	"sync"
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

// Mom is the compute-node daemon: it starts jobs on behalf of the head
// nodes, simulates their execution, and hands each completion to its
// Complete hook.
//
// One head of a replicated group, the view's sequencer, sends a job's
// start, and resends it until this node acknowledges it; after a view
// change the new sequencer sends it again, and two heads may briefly
// both send. The first start this node receives decides the job, and
// every later start for it, from any head, folds onto that decision:
// the job's first node — PBS's mother superior — executes it, and
// every other node of a multi-node job emulates the start. So a job
// replicated on N heads executes exactly once with no lock round: the
// placement the heads agree on is the launch grant. A repeated start
// for a job still executing or emulated here is acked to its sender,
// which then stops resending; the first start is not, so a job that
// ends within one resend interval costs one datagram.
type Mom struct {
	cfg MomConfig
	// ackBuf is the receive loop's scratch for encoding acks (the
	// transport does not keep a payload after Send returns).
	ackBuf []byte

	mu         sync.Mutex
	jobs       map[JobID]*momJob
	executions int // jobs actually executed (not emulated) on this node
	done       chan struct{}
	once       sync.Once
}

// MomConfig parameterizes a Mom.
type MomConfig struct {
	// Name is the compute node's name (matches Server Config.Nodes).
	Name string
	// Endpoint is the transport attachment; the Mom owns and closes
	// it.
	Endpoint transport.Endpoint
	// Complete is the job epilogue: it hands the heads the end of a job
	// this node executed (JOSHUA orders it as a jdone). The job holds
	// the fields its start carried except the node list, which is nil.
	// It runs once per executed job, off the receive loop, and may
	// block. An error is retried at doubling gaps from completeRetry up
	// to maxCompleteGap until the mom closes, except one wrapping
	// ErrNotFirstNode: the heads refused the completion, finally. Nil
	// drops completions.
	Complete func(job Job, exitCode int, output string) error
	// TimeScale multiplies job WallTime to get real execution time;
	// 0 means 1.0. Benchmarks use small scales.
	TimeScale float64
}

// momState is where a job stands on this node:
//
//	executing → finished, or emulated
//
// A kill interrupts an executing job, which then completes as killed;
// a sister node ignores kills.
type momState uint8

const (
	momExecuting momState = iota // this node runs the job
	momEmulated                  // the job's first node runs it
	momFinished                  // the run ended and went to Complete
)

// momJob tracks one job's lifecycle on this node. Only an executing
// job has its own: every emulated job shares sisterJob and every
// finished one finishedJob, which the mom never writes, so a job this
// node does not run, or no longer runs, keeps nothing but its table
// key.
type momJob struct {
	job   Job
	state momState
	// end ends an executing job's run when its wall time is up; a kill
	// that stops it first ends the run as killed. Nil if shared.
	end *time.Timer
}

var (
	sisterJob   = &momJob{state: momEmulated}
	finishedJob = &momJob{state: momFinished}
)

// Complete's retry schedule after an error: the first retry comes
// completeRetry later, and each later gap doubles up to maxCompleteGap.
const (
	completeRetry  = 200 * time.Millisecond
	maxCompleteGap = 16 * completeRetry
)

// StartMom creates and runs a Mom.
func StartMom(cfg MomConfig) *Mom {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	m := &Mom{
		cfg:  cfg,
		jobs: make(map[JobID]*momJob),
		done: make(chan struct{}),
	}
	go m.run()
	return m
}

// Close stops the mom. Running simulated jobs are abandoned, and so
// are completions still being retried.
func (m *Mom) Close() {
	m.once.Do(func() {
		close(m.done)
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.state == momExecuting {
				j.end.Stop()
			}
		}
		m.mu.Unlock()
		m.cfg.Endpoint.Close()
	})
}

// Name returns the compute node name.
func (m *Mom) Name() string { return m.cfg.Name }

// Executions reports how many jobs actually executed (rather than
// being emulated) on this node — the observable that verifies JOSHUA's
// exactly-once launch: a replicated job must execute exactly once
// across all heads' start requests.
func (m *Mom) Executions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.executions
}

// RunningJobs reports the jobs currently executing on this node.
func (m *Mom) RunningJobs() []JobID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []JobID
	for id, j := range m.jobs {
		if j.state == momExecuting {
			ids = append(ids, id)
		}
	}
	return ids
}

func (m *Mom) run() {
	for {
		select {
		case <-m.done:
			return
		case dg, ok := <-m.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			m.handle(dg)
		}
	}
}

// handle dispatches one datagram from a head. Both kinds lead with
// their kind byte and job ID, and a start for a job this node already
// knows needs nothing else, so only the first start for a job decodes
// (and copies) the rest; the ack of a repeat is encoded into ackBuf.
func (m *Mom) handle(dg transport.Message) {
	d := codec.NewDecoder(dg.Payload)
	kind := d.Byte()
	id := d.Bytes()
	if d.Err() != nil {
		return
	}
	switch kind {
	case momKindStart:
		m.onStart(id, dg)
	case momKindKill:
		m.onKill(id)
	}
}

// onStart handles one head node's request to start a job. It runs only
// on the receive loop, which is the only goroutine that adds keys to
// m.jobs; execute replaces a finished job's entry under m.mu, but only
// for a key already present, so the unlocked check-then-insert below
// for an unknown ID cannot race it. A start for a known job, in any
// state, folds onto the first. It is acked to its sender while the job
// executes or is emulated here; a finished job's repeat gets nothing,
// as its completion is already on its way to every head through the
// total order. The first start decodes the job in place over the
// datagram without allocating; a sister node then keeps only a copy of
// the job ID, and the first node a timer that ends the run.
func (m *Mom) onStart(id []byte, dg transport.Message) {
	m.mu.Lock()
	prev, known := m.jobs[JobID(id)]
	finished := known && prev.state == momFinished
	m.mu.Unlock()
	if known {
		if !finished {
			m.ackBuf = appendStarted(m.ackBuf[:0], id)
			_ = m.cfg.Endpoint.Send(dg.From, m.ackBuf)
		}
		return
	}
	job, first, ok := decodeStart(dg.Payload)
	if !ok {
		return
	}
	if first != m.cfg.Name {
		key := JobID(id)
		m.mu.Lock()
		m.jobs[key] = sisterJob
		m.mu.Unlock()
		return
	}
	// The job runs for its (scaled) wall time on a timer alone: no
	// goroutine waits for it, and one starts only to end it.
	run := time.Duration(float64(job.WallTime) * m.cfg.TimeScale)
	j := &momJob{job: job, state: momExecuting}
	m.mu.Lock()
	m.jobs[job.ID] = j
	m.executions++
	j.end = time.AfterFunc(run, func() { m.finish(j, 0) })
	m.mu.Unlock()
}

// finish ends j's run with exit and hands its completion to the
// Complete hook. It runs once per executed job: on the timer's
// goroutine when the wall time is up, or on one a kill starts after
// stopping the timer. j.job is immutable, so it is read without m.mu.
func (m *Mom) finish(j *momJob, exit int) {
	select {
	case <-m.done:
		return // mom crashed: job evaporates, heads never hear back
	default:
	}
	job := j.job
	var output string
	if exit == 0 {
		output = runScript(job, m.cfg.Name)
	}
	// The finished entry is the shared tombstone under a key of its
	// own, so the table keeps neither the job nor the datagram copy
	// its ID is a substring of.
	key := JobID(strings.Clone(string(job.ID)))
	m.mu.Lock()
	delete(m.jobs, job.ID)
	m.jobs[key] = finishedJob
	m.mu.Unlock()
	m.complete(job, exit, output)
}

// complete calls the Complete hook until it succeeds, refuses, or the
// mom closes.
func (m *Mom) complete(job Job, exitCode int, output string) {
	if m.cfg.Complete == nil {
		return
	}
	for gap := completeRetry; ; gap = min(2*gap, maxCompleteGap) {
		err := m.cfg.Complete(job, exitCode, output)
		if err == nil || errors.Is(err, ErrNotFirstNode) {
			return
		}
		t := time.NewTimer(gap)
		select {
		case <-t.C:
		case <-m.done:
			t.Stop()
			return
		}
	}
}

// onKill interrupts an executing job (qdel relayed by a head node): if
// it stops the job's timer before the wall time is up, the job
// completes as killed. Other states, and a job whose run is already
// ending, have nothing to stop.
func (m *Mom) onKill(id []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[JobID(id)]
	if j == nil || j.state != momExecuting || !j.end.Stop() {
		return
	}
	go m.finish(j, ExitCodeKilled)
}

// runScript "executes" the job script: the simulated mom interprets
// "echo ..." lines (what PBS would capture into the job's .o file)
// and ignores everything else. Enough to carry observable output
// through the replication path without running real code.
func runScript(job Job, node string) string {
	var out strings.Builder
	for rest := job.Script; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if echo, ok := strings.CutPrefix(strings.TrimSpace(line), "echo "); ok {
			out.WriteString(strings.Trim(echo, `"'`))
			out.WriteByte('\n')
		}
	}
	if out.Len() == 0 && job.Script != "" {
		out.WriteByte('[')
		out.WriteString(string(job.ID))
		out.WriteString(" completed on ")
		out.WriteString(node)
		out.WriteString("]\n")
	}
	return out.String()
}
