package pbs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

// Mom is the compute-node daemon: it starts jobs on behalf of the head
// nodes, simulates their execution, and reports completion to every
// configured head-node server — the TORQUE v2.0p1 multi-server feature
// the paper's prototype relies on so one set of moms can serve all
// active head nodes.
//
// Every head of a replicated group sends its own start request for a
// job. The first one this node receives runs the Prologue hook once,
// and every later start for that job, from any head, folds onto it.
// JOSHUA installs its jmutex there under this node's name, so a job
// replicated on N heads costs one lock acquire per node it reaches,
// exactly one node executes it and the rest emulate the start — the
// paper's job-launch mechanism.
type Mom struct {
	cfg MomConfig
	// allServers has bit i set for every cfg.Servers[i]: the heads a
	// fresh completion report is owed to.
	allServers uint64
	// resend is resendReports' output buffer, kept between ticks; only
	// the receive loop touches it.
	resend []pendingReport

	mu   sync.Mutex
	jobs map[JobID]*momJob
	// owed holds the finished jobs whose report some head has not
	// acknowledged yet; the report resend tick walks only these.
	owed       map[JobID]*momJob
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
	// Servers are the head-node daemon addresses that receive
	// completion reports; at most 64.
	Servers []transport.Addr
	// Prologue runs once per job on this node, for the first start
	// request any head sends; later starts fold onto it. It reports
	// whether this node executes the job. (true, nil) executes;
	// (false, nil) emulates the start, finally — the job executes
	// elsewhere; an error (JOSHUA's lock service unreachable) leaves
	// the job as if no start had arrived, so the heads' next start
	// retransmission runs the prologue again. Nil always executes. It
	// may block (JOSHUA's jmutex performs group communication); it
	// runs outside the Mom's lock.
	Prologue func(job Job) (bool, error)
	// Epilogue runs after a job finishes executing, once the completion
	// report has been sent to every head (JOSHUA's jdone releases the
	// mutex here, so the lock outlives the announced completion). Nil
	// is a no-op. It runs once per job, on a node that reported it: the
	// executing node, or one a kill reached before it executed.
	Epilogue func(job Job)
	// TimeScale multiplies job WallTime to get real execution time;
	// 0 means 1.0. Benchmarks use small scales.
	TimeScale float64
	// ReportInterval is the base of the retransmission schedule for
	// unacknowledged completion reports: the first resend comes one
	// interval after the job finished, each later gap doubles up to 16
	// intervals, and the report is abandoned 100 intervals after the
	// job finished. It is also the period of the tick that checks the
	// schedule. Default 200ms.
	ReportInterval time.Duration
}

// momState is where a job stands on this node:
//
//	none → acquiring → executing | emulated → finished
//
// A failed prologue goes from acquiring back to none; a kill finishes
// the job from any state but executing, whose run reports the kill.
type momState uint8

const (
	momNone      momState = iota // no prologue running or decided
	momAcquiring                 // the prologue is running
	momExecuting                 // this node runs the job
	momEmulated                  // another node runs the job
	momFinished                  // the completion report exists
)

// momJob tracks one job's lifecycle on this node.
type momJob struct {
	job    Job
	state  momState
	killed chan struct{} // closed to interrupt execution
	// report is the encoded completion report, set when the job
	// finishes and sent as is: every transport copies a payload before
	// Send returns.
	report []byte
	// unacked has bit i set while cfg.Servers[i] is still owed the
	// completion report.
	unacked uint64
	// The retransmission schedule: the next resend is due at resendAt,
	// resendGap after the previous one, and nothing is resent after
	// abandonAt, so reports to permanently dead heads stop.
	resendAt  time.Time
	resendGap time.Duration
	abandonAt time.Time
}

// The completion-report retransmission schedule, in ReportIntervals:
// gaps double up to maxReportGap, and retransmission stops
// reportHorizon after the job finished.
const (
	maxReportGap  = 16
	reportHorizon = 100
)

// StartMom creates and runs a Mom. It panics if cfg lists more than 64
// servers, as the JOSHUA client refuses more than 64 heads per group.
func StartMom(cfg MomConfig) *Mom {
	if len(cfg.Servers) > 64 {
		panic(fmt.Sprintf("pbs: mom %s lists %d servers, at most 64", cfg.Name, len(cfg.Servers)))
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	if cfg.ReportInterval <= 0 {
		cfg.ReportInterval = 200 * time.Millisecond
	}
	m := &Mom{
		cfg:        cfg,
		allServers: 1<<len(cfg.Servers) - 1, // all ones at 64: 1<<64 is 0
		jobs:       make(map[JobID]*momJob),
		owed:       make(map[JobID]*momJob),
		done:       make(chan struct{}),
	}
	go m.run()
	return m
}

// Close stops the mom. Running simulated jobs are abandoned.
func (m *Mom) Close() {
	m.once.Do(func() {
		close(m.done)
		m.cfg.Endpoint.Close()
	})
}

// Name returns the compute node name.
func (m *Mom) Name() string { return m.cfg.Name }

// Executions reports how many jobs actually executed (rather than
// being emulated) on this node — the observable that verifies JOSHUA's
// launch mutual exclusion: a replicated job must execute exactly once
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
	tick := time.NewTicker(m.cfg.ReportInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.done:
			return
		case dg, ok := <-m.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			m.handle(dg)
		case now := <-tick.C:
			m.resendReports(now)
		}
	}
}

// handle dispatches one datagram from a head. Every kind leads with its
// kind byte and job ID, and a done-ack or a start for a job this node
// already knows needs nothing else, so only the first start for a job
// decodes (and copies) the rest.
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
	case momKindDoneAck:
		if d.Finish() == nil {
			m.onDoneAck(id, dg.From)
		}
	}
}

// onStart handles one head node's request to start a job. It runs only
// on the receive loop, which is also the only writer of m.jobs.
func (m *Mom) onStart(id []byte, dg transport.Message) {
	m.mu.Lock()
	j := m.jobs[JobID(id)]
	if j == nil {
		m.mu.Unlock()
		msg, err := decodeMomMsg(dg.Payload)
		if err != nil {
			return
		}
		j = &momJob{
			job: Job{
				ID:       msg.JobID,
				Name:     msg.Name,
				Owner:    msg.Owner,
				Script:   msg.Script,
				WallTime: msg.WallTime,
				Nodes:    msg.Nodes,
			},
			killed: make(chan struct{}),
		}
		m.mu.Lock()
		m.jobs[j.job.ID] = j
	}
	switch j.state {
	case momNone:
		// The first start, or the first since a prologue failed: run
		// it (again, under the same identity) off the receive loop,
		// as JOSHUA's jmutex performs group communication in there.
		j.state = momAcquiring
		m.mu.Unlock()
		go m.attempt(j)
	case momFinished:
		// Late or retransmitted start for a finished job: the head
		// may have missed the report; resend it directly.
		report := j.report
		m.mu.Unlock()
		_ = m.cfg.Endpoint.Send(dg.From, report)
	default:
		// Acquiring, executing or emulated: this start folds onto the
		// one already under way.
		m.mu.Unlock()
	}
}

// attempt runs the prologue for j and executes the job if the prologue
// elects this node. j.job is immutable, so it is read without m.mu.
func (m *Mom) attempt(j *momJob) {
	execute, err := true, error(nil)
	if m.cfg.Prologue != nil {
		execute, err = m.cfg.Prologue(j.job)
	}

	m.mu.Lock()
	if j.state != momAcquiring {
		m.mu.Unlock()
		return // killed while the prologue ran; the kill reported
	}
	switch {
	case err != nil:
		j.state = momNone // the next start retransmission retries
	case execute:
		j.state = momExecuting
		m.executions++
	default:
		j.state = momEmulated // the electing node will report
	}
	m.mu.Unlock()

	if err == nil && execute {
		m.execute(j)
	}
}

// execute simulates running j's job for its (scaled) wall time,
// reports completion to every head node, then runs the epilogue.
func (m *Mom) execute(j *momJob) {
	job := j.job
	d := time.Duration(float64(job.WallTime) * m.cfg.TimeScale)
	exit := 0
	if d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-j.killed:
			t.Stop()
			exit = ExitCodeKilled
		case <-m.done:
			t.Stop()
			return // mom crashed: job evaporates, heads never hear back
		}
	} else {
		select {
		case <-j.killed:
			exit = ExitCodeKilled
		default:
		}
	}

	var output string
	if exit == 0 {
		output = runScript(job, m.cfg.Name)
	}
	m.mu.Lock()
	report := m.finishLocked(j, exit, output)
	m.mu.Unlock()

	m.sendReport(report)
	// The epilogue (JOSHUA's jdone, one ordered write) only releases
	// the launch lock, so it follows the report instead of delaying it.
	if m.cfg.Epilogue != nil {
		m.cfg.Epilogue(job)
	}
}

// onKill terminates a running job (qdel relayed by a head node).
func (m *Mom) onKill(id []byte) {
	m.mu.Lock()
	j := m.jobs[JobID(id)]
	if j == nil || j.state == momFinished {
		m.mu.Unlock()
		return
	}
	select {
	case <-j.killed:
	default:
		close(j.killed)
	}
	if j.state == momExecuting {
		m.mu.Unlock()
		return // the executing run reports the kill
	}
	// Killed before this node executed it: report the kill directly so
	// the heads converge, then run the epilogue as execute does.
	report := m.finishLocked(j, ExitCodeKilled, "")
	m.mu.Unlock()

	m.sendReport(report)
	if m.cfg.Epilogue != nil {
		m.cfg.Epilogue(j.job)
	}
}

// finishLocked marks j finished, encodes its completion report once,
// owes it to every head and starts its retransmission schedule. It
// returns the report. m.mu is held, and j is not finished yet.
func (m *Mom) finishLocked(j *momJob, exitCode int, output string) []byte {
	j.state = momFinished
	j.report = (&momMsg{Kind: momKindDone, JobID: j.job.ID, ExitCode: exitCode, Output: output}).encode()
	j.unacked = m.allServers
	if j.unacked != 0 {
		m.owed[j.job.ID] = j
	}
	now := time.Now()
	j.resendGap = m.cfg.ReportInterval
	j.resendAt = now.Add(j.resendGap)
	j.abandonAt = now.Add(reportHorizon * m.cfg.ReportInterval)
	return j.report
}

// sendReport transmits an encoded completion report to every head.
func (m *Mom) sendReport(report []byte) {
	for _, s := range m.cfg.Servers {
		_ = m.cfg.Endpoint.Send(s, report)
	}
}

// runScript "executes" the job script: the simulated mom interprets
// "echo ..." lines (what PBS would capture into the job's .o file)
// and ignores everything else. Enough to carry observable output
// through the replication path without running real code.
func runScript(job Job, node string) string {
	var out strings.Builder
	for _, line := range strings.Split(job.Script, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "echo "); ok {
			out.WriteString(strings.Trim(rest, `"'`))
			out.WriteByte('\n')
		}
	}
	if out.Len() == 0 && job.Script != "" {
		fmt.Fprintf(&out, "[%s completed on %s]\n", job.ID, node)
	}
	return out.String()
}

// onDoneAck stops retransmission to one head.
func (m *Mom) onDoneAck(id []byte, from transport.Addr) {
	var bit uint64
	for i, s := range m.cfg.Servers {
		if s == from {
			bit |= 1 << i
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.owed[JobID(id)]
	if j == nil {
		return
	}
	j.unacked &^= bit
	if j.unacked == 0 {
		delete(m.owed, j.job.ID)
	}
}

// pendingReport is one completion report resend.
type pendingReport struct {
	report []byte
	to     transport.Addr
}

// resendReports retransmits completion reports that heads have not
// acknowledged — the fix for the behaviour the paper observed where
// "PBS mom servers did not simply ignore a failed head node, but
// rather kept the current job in running status until it returned".
// Resends back off (see MomConfig.ReportInterval), so a head that is
// down, or listed but never started, costs a job about ten resends
// rather than one per tick. A resend is due relative to the previous
// deadline, not to when the tick noticed it, so the gaps a head sees
// keep their doubling shape whatever the tick's phase.
//
// It walks only the jobs still owing a report. The job table itself is
// never pruned: a start that arrives after its job was pruned would
// run the job again, and the heads' launch lock forgets a job at jdone,
// so nothing could refuse it until that lock keeps a tombstone of
// finished jobs.
func (m *Mom) resendReports(now time.Time) {
	out := m.resend[:0]
	maxGap := maxReportGap * m.cfg.ReportInterval
	m.mu.Lock()
	for id, j := range m.owed {
		if now.Before(j.resendAt) {
			continue
		}
		if !now.Before(j.abandonAt) {
			j.unacked = 0
			delete(m.owed, id)
			continue
		}
		for u := j.unacked; u != 0; u &= u - 1 {
			out = append(out, pendingReport{j.report, m.cfg.Servers[bits.TrailingZeros64(u)]})
		}
		j.resendGap = min(2*j.resendGap, maxGap)
		j.resendAt = j.resendAt.Add(j.resendGap)
	}
	m.mu.Unlock()
	for _, p := range out {
		_ = m.cfg.Endpoint.Send(p.to, p.report)
	}
	clear(out)
	m.resend = out[:0]
}
