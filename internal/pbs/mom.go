package pbs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"joshua/internal/transport"
)

// Mom is the compute-node daemon: it starts jobs on behalf of the head
// nodes, simulates their execution, and reports completion to every
// configured head-node server — the TORQUE v2.0p1 multi-server feature
// the paper's prototype relies on so one set of moms can serve all
// active head nodes.
//
// Every start request runs the Prologue hook; JOSHUA installs its
// jmutex distributed mutual exclusion there, so when several head
// nodes each try to launch the same replicated job, exactly one
// attempt actually executes and the rest are emulated — precisely the
// paper's job-launch mechanism.
type Mom struct {
	cfg MomConfig

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
	// Servers are the head-node daemon addresses that receive
	// completion reports.
	Servers []transport.Addr
	// Prologue runs before a job executes; head is the head-node
	// daemon whose start request triggered this attempt, so distinct
	// heads' attempts are distinguishable (JOSHUA keys its jmutex on
	// job and attempt). Returning false emulates the start instead of
	// executing — the job is executed via another attempt. Nil always
	// executes, with duplicate suppression per job. It may block
	// (JOSHUA's jmutex performs group communication); it runs outside
	// the Mom's lock.
	Prologue func(job Job, head transport.Addr) bool
	// Epilogue runs after a job finishes executing, once the completion
	// report has been sent to every head (JOSHUA's jdone releases the
	// mutex here, so the lock outlives the announced completion). Nil
	// is a no-op. Only the executing attempt runs it.
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

// momJob tracks one job's lifecycle on this node.
type momJob struct {
	job       Job
	attempts  map[transport.Addr]bool // head daemons that requested a start
	executing bool
	finished  bool
	killed    chan struct{} // closed to interrupt execution
	// report is the encoded completion report, set when the job
	// finishes and sent as is: every transport copies a payload before
	// Send returns.
	report []byte
	// unacked head daemons still owed a completion report.
	unacked map[transport.Addr]bool
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

// StartMom creates and runs a Mom.
func StartMom(cfg MomConfig) *Mom {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1.0
	}
	if cfg.ReportInterval <= 0 {
		cfg.ReportInterval = 200 * time.Millisecond
	}
	m := &Mom{
		cfg:  cfg,
		jobs: make(map[JobID]*momJob),
		done: make(chan struct{}),
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
// across all heads' start attempts.
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
		if j.executing && !j.finished {
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
			msg, err := decodeMomMsg(dg.Payload)
			if err != nil {
				continue
			}
			switch msg.Kind {
			case momKindStart:
				m.onStart(msg, dg.From)
			case momKindKill:
				m.onKill(msg.JobID)
			case momKindDoneAck:
				m.onDoneAck(msg.JobID, dg.From)
			}
		case now := <-tick.C:
			m.resendReports(now)
		}
	}
}

// onStart handles one head node's request to start a job.
func (m *Mom) onStart(msg *momMsg, from transport.Addr) {
	m.mu.Lock()
	j, ok := m.jobs[msg.JobID]
	if !ok {
		j = &momJob{
			job: Job{
				ID:       msg.JobID,
				Name:     msg.Name,
				Owner:    msg.Owner,
				Script:   msg.Script,
				WallTime: msg.WallTime,
				Nodes:    msg.Nodes,
			},
			attempts: make(map[transport.Addr]bool),
			killed:   make(chan struct{}),
			unacked:  make(map[transport.Addr]bool),
		}
		m.jobs[msg.JobID] = j
	}
	if j.finished {
		// Late or retransmitted start for a finished job: the head
		// may have missed the report; resend it directly.
		report := j.report
		m.mu.Unlock()
		_ = m.cfg.Endpoint.Send(from, report)
		return
	}
	if j.attempts[from] {
		m.mu.Unlock()
		return // duplicate start retransmission from the same head
	}
	j.attempts[from] = true
	job := j.job
	m.mu.Unlock()

	// Run the prologue (and possibly the job) off the receive loop:
	// JOSHUA's jmutex performs group communication in here.
	go m.attempt(job, from)
}

// attempt runs the prologue for one head's start request and executes
// the job if the prologue elects this attempt.
func (m *Mom) attempt(job Job, from transport.Addr) {
	execute := true
	if m.cfg.Prologue != nil {
		execute = m.cfg.Prologue(job, from)
	}

	m.mu.Lock()
	j, ok := m.jobs[job.ID]
	if !ok || j.finished {
		m.mu.Unlock()
		return
	}
	if execute && m.cfg.Prologue == nil && j.executing {
		execute = false // built-in duplicate suppression without a prologue
	}
	if execute && j.executing {
		// A prologue elected two attempts; tolerate by suppressing
		// the second. (JOSHUA's jmutex makes this unreachable.)
		execute = false
	}
	if execute {
		j.executing = true
		m.executions++
	}
	m.mu.Unlock()

	if !execute {
		return // emulated start: the electing attempt will report
	}
	m.execute(job)
}

// execute simulates running the job for its (scaled) wall time,
// reports completion to every head node, then runs the epilogue.
func (m *Mom) execute(job Job) {
	d := time.Duration(float64(job.WallTime) * m.cfg.TimeScale)
	exit := 0

	m.mu.Lock()
	j := m.jobs[job.ID]
	killed := j.killed
	m.mu.Unlock()

	if d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-killed:
			t.Stop()
			exit = ExitCodeKilled
		case <-m.done:
			t.Stop()
			return // mom crashed: job evaporates, heads never hear back
		}
	} else {
		select {
		case <-killed:
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

	if report != nil {
		m.sendReport(report)
	}
	// The epilogue (JOSHUA's jdone, one ordered write) only releases
	// the launch lock, so it follows the report instead of delaying it.
	if m.cfg.Epilogue != nil {
		m.cfg.Epilogue(job)
	}
}

// onKill terminates a running job (qdel relayed by a head node).
func (m *Mom) onKill(id JobID) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.finished {
		m.mu.Unlock()
		return
	}
	select {
	case <-j.killed:
	default:
		close(j.killed)
	}
	if j.executing {
		m.mu.Unlock()
		return // the executing attempt reports the kill
	}
	// Killed before any attempt executed: report the kill directly so
	// the heads converge, then run the epilogue as execute does.
	report := m.finishLocked(j, ExitCodeKilled, "")
	job := j.job
	m.mu.Unlock()

	m.sendReport(report)
	if m.cfg.Epilogue != nil {
		m.cfg.Epilogue(job)
	}
}

// finishLocked marks j finished, encodes its completion report once
// and starts the report's retransmission schedule to every head. It
// returns the report, or nil if j had already finished. m.mu is held.
func (m *Mom) finishLocked(j *momJob, exitCode int, output string) []byte {
	if j.finished {
		return nil
	}
	j.finished = true
	j.report = (&momMsg{Kind: momKindDone, JobID: j.job.ID, ExitCode: exitCode, Output: output}).encode()
	for _, s := range m.cfg.Servers {
		j.unacked[s] = true
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
func (m *Mom) onDoneAck(id JobID, from transport.Addr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		delete(j.unacked, from)
	}
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
func (m *Mom) resendReports(now time.Time) {
	type pending struct {
		report []byte
		to     transport.Addr
	}
	var out []pending
	maxGap := maxReportGap * m.cfg.ReportInterval
	m.mu.Lock()
	for _, j := range m.jobs {
		if !j.finished || len(j.unacked) == 0 || now.Before(j.resendAt) {
			continue
		}
		if !now.Before(j.abandonAt) {
			clear(j.unacked)
			continue
		}
		for s := range j.unacked {
			out = append(out, pending{j.report, s})
		}
		j.resendGap = min(2*j.resendGap, maxGap)
		j.resendAt = j.resendAt.Add(j.resendGap)
	}
	m.mu.Unlock()
	for _, p := range out {
		_ = m.cfg.Endpoint.Send(p.to, p.report)
	}
}
