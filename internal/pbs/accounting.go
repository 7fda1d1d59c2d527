package pbs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Accounting records. PBS servers append one line per job event to an
// accounting log (TORQUE's server_priv/accounting); site billing and
// utilization reporting are built on it. The record types mirror the
// PBS conventions:
//
//	Q  job entered the queue
//	S  job execution started
//	E  job ended (exit status and resources in the attributes)
//	D  job was deleted
//	H  job was placed on hold
//	R  job was released from hold
//
// Each replicated head writes its own log; because the heads apply the
// same totally ordered command stream, the logs agree on everything
// but local timestamps.
const (
	AcctQueued   = 'Q'
	AcctStarted  = 'S'
	AcctEnded    = 'E'
	AcctDeleted  = 'D'
	AcctHeld     = 'H'
	AcctReleased = 'R'
)

// AccountingRecord is one job event. The server fills the typed
// fields, which is all a sink is handed; Attrs is the PBS attribute
// view of them, rendered by MemoryAccounting's readers.
type AccountingRecord struct {
	Time time.Time
	Type byte
	Job  JobID
	// User, JobName, NodeCount and WallTime describe the job on every
	// record.
	User      string
	JobName   string
	NodeCount int
	WallTime  time.Duration
	// ExecHost is the job's nodes on S and E records. It aliases the
	// job's Nodes, which the server never writes into (see Job.Nodes):
	// treat it as read-only.
	ExecHost []string
	// ExitStatus is the job's exit code on E records.
	ExitStatus int
	// Attrs holds the attributes Line prints, as strings: user,
	// jobname, nodect and walltime, plus exec_host on S and E records
	// and exit_status on E records. Records and ForJob fill it; it is
	// nil on the records the server emits.
	Attrs map[string]string
}

// hasExecHost reports whether the record type carries exec_host.
func (r *AccountingRecord) hasExecHost() bool {
	return r.Type == AcctStarted || r.Type == AcctEnded
}

// attrs renders the typed fields as Attrs.
func (r *AccountingRecord) attrs() map[string]string {
	m := map[string]string{
		"user":     r.User,
		"jobname":  r.JobName,
		"nodect":   strconv.Itoa(r.NodeCount),
		"walltime": FormatWalltime(r.WallTime),
	}
	if r.hasExecHost() {
		m["exec_host"] = strings.Join(r.ExecHost, "+")
	}
	if r.Type == AcctEnded {
		m["exit_status"] = strconv.Itoa(r.ExitStatus)
	}
	return m
}

// Line renders the record in the PBS accounting format, attributes in
// key order:
//
//	06/06/2026 12:34:56;E;17.cluster;exec_host=c0 exit_status=0 jobname=x nodect=1 user=alice walltime=00:01:00
func (r AccountingRecord) Line() string {
	return string(r.appendLine(make([]byte, 0, 128)))
}

// appendLine appends Line's text to b, straight from the typed fields.
func (r *AccountingRecord) appendLine(b []byte) []byte {
	b = r.Time.AppendFormat(b, "01/02/2006 15:04:05")
	b = append(b, ';', r.Type, ';')
	b = append(b, r.Job...)
	b = append(b, ';')
	if r.hasExecHost() {
		b = append(b, "exec_host="...)
		for i, n := range r.ExecHost {
			if i > 0 {
				b = append(b, '+')
			}
			b = append(b, n...)
		}
		b = append(b, ' ')
	}
	if r.Type == AcctEnded {
		b = append(b, "exit_status="...)
		b = strconv.AppendInt(b, int64(r.ExitStatus), 10)
		b = append(b, ' ')
	}
	b = append(b, "jobname="...)
	b = append(b, r.JobName...)
	b = append(b, " nodect="...)
	b = strconv.AppendInt(b, int64(r.NodeCount), 10)
	b = append(b, " user="...)
	b = append(b, r.User...)
	b = append(b, " walltime="...)
	return appendWalltime(b, r.WallTime)
}

// AccountingSink receives job events. Implementations must be fast
// and must not call back into the Server (records are emitted while
// its lock is held).
type AccountingSink interface {
	Record(AccountingRecord)
}

// MemoryAccounting collects records in memory (tests, status tools).
// It keeps each record as the server emitted it, typed fields only,
// and renders Attrs when the records are read.
type MemoryAccounting struct {
	mu      sync.Mutex
	records []AccountingRecord
}

// Record implements AccountingSink.
func (m *MemoryAccounting) Record(r AccountingRecord) {
	m.mu.Lock()
	m.records = append(m.records, r)
	m.mu.Unlock()
}

// Records returns a copy of everything recorded so far, Attrs
// rendered.
func (m *MemoryAccounting) Records() []AccountingRecord {
	m.mu.Lock()
	out := append([]AccountingRecord(nil), m.records...)
	m.mu.Unlock()
	return withAttrs(out)
}

// ForJob returns the records of one job, in order, Attrs rendered.
func (m *MemoryAccounting) ForJob(id JobID) []AccountingRecord {
	var out []AccountingRecord
	m.mu.Lock()
	for _, r := range m.records {
		if r.Job == id {
			out = append(out, r)
		}
	}
	m.mu.Unlock()
	return withAttrs(out)
}

// withAttrs renders Attrs on every record of rs.
func withAttrs(rs []AccountingRecord) []AccountingRecord {
	for i := range rs {
		rs[i].Attrs = rs[i].attrs()
	}
	return rs
}

// WriterAccounting appends formatted accounting lines to an io.Writer
// (the accounting file of a real deployment).
type WriterAccounting struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // the line being written, reused from record to record
}

// NewWriterAccounting wraps w as a sink.
func NewWriterAccounting(w io.Writer) *WriterAccounting {
	return &WriterAccounting{w: w}
}

// Record implements AccountingSink. A failed write loses the line: the
// log is this head's local record, not replicated state, and the sink
// has no way to report the error.
func (w *WriterAccounting) Record(r AccountingRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(r.appendLine(w.buf[:0]), '\n')
	_, _ = w.w.Write(w.buf)
}

// Fairshare state. Alongside the externally visible accounting log,
// the server keeps a replicated per-user usage accumulator that the
// ordering stage of the scheduling pipeline reads: heavy recent users
// sink in priority. Usage is charged at job start (requested capacity
// × declared walltime — the only runtime bound known at decision
// time) and decays by halving every FairshareHalfLife logical ticks.
// Everything is integral, driven by the logical clock, and carried in
// snapshots, so every replica ranks users identically.

// fairshareDecay applies the halvings accrued since the last charge
// or decay. Must be called with s.mu held.
func (s *Server) fairshareDecay() {
	if s.cfg.FairshareHalfLife == 0 {
		s.fairTick = s.ltick
		return
	}
	steps := (s.ltick - s.fairTick) / s.cfg.FairshareHalfLife
	if steps == 0 {
		return
	}
	s.fairTick += steps * s.cfg.FairshareHalfLife
	if steps > 63 {
		steps = 63
	}
	for user, usage := range s.fairUsage {
		if usage >>= steps; usage == 0 {
			delete(s.fairUsage, user)
		} else {
			s.fairUsage[user] = usage
		}
	}
}

// fairshareCharge bills a job's owner for the capacity the job takes.
// Must be called with s.mu held.
func (s *Server) fairshareCharge(j *Job) {
	secs := int64(j.WallTime / time.Second)
	if secs < 1 {
		secs = 1
	}
	cost := uint64(j.NodeCount) * uint64(j.Res.withDefaults().NCPUs) * uint64(secs)
	s.fairshareDecay()
	s.fairUsage[j.Owner] += cost
}

// FairshareUsage reports a user's current decayed usage (tests and
// operator tooling).
func (s *Server) FairshareUsage(user string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fairUsage[user]
}

// account emits one record if a sink is configured. Must be called
// with s.mu held (records are therefore totally ordered with respect
// to state changes), after the event has updated j.
func (s *Server) account(typ byte, j *Job) {
	if s.cfg.Accounting == nil {
		return
	}
	r := AccountingRecord{
		Time:      s.cfg.Clock(),
		Type:      typ,
		Job:       j.ID,
		User:      j.Owner,
		JobName:   j.Name,
		NodeCount: j.NodeCount,
		WallTime:  j.WallTime,
	}
	if r.hasExecHost() {
		r.ExecHost = j.Nodes
	}
	if typ == AcctEnded {
		r.ExitStatus = j.ExitCode
	}
	s.cfg.Accounting.Record(r)
}
