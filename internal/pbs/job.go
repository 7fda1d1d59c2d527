// Package pbs implements the batch-system substrate that JOSHUA
// replicates: a PBS-compliant job and resource management service
// modeled on the TORQUE server with a Maui-style FIFO scheduler, and
// the PBS mom compute-node daemon.
//
// The paper treats TORQUE/Maui as a deterministic black box behind the
// PBS service interface (qsub, qdel, qstat, qsig); JOSHUA replicates
// the interface calls, not the implementation. Accordingly the Server
// here is a strictly deterministic state machine: the same sequence of
// interface calls produces byte-identical state on every replica,
// which is the property symmetric active/active replication rests on.
//
// Scheduling is a layered pipeline (see sched.go): a per-node resource
// model, a priority/fairshare ordering stage, and a placement stage
// that is either the paper's strict FIFO walk or conservative
// backfill. The default configuration — FIFO with exclusive access —
// is exactly the one the paper uses "to produce deterministic
// scheduling behavior on all active head nodes"; the richer policies
// are the extension the paper anticipates ("this restriction may be
// lifted in the future"), kept deterministic by computing every
// scheduling input from replicated state on a logical event clock.
package pbs

import (
	"fmt"
	"time"
)

// JobID identifies a job, in PBS style: "<sequence>.<servername>".
// Replicated JOSHUA head nodes configure the same server name so that
// replica-generated IDs coincide.
type JobID string

// JobState is the PBS job lifecycle.
type JobState int

// Job states, following the PBS single-letter conventions
// (Q, H, R, E, C).
const (
	StateQueued JobState = iota
	StateHeld
	StateRunning
	StateExiting
	StateCompleted
)

// String returns the PBS single-letter state code.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "Q"
	case StateHeld:
		return "H"
	case StateRunning:
		return "R"
	case StateExiting:
		return "E"
	case StateCompleted:
		return "C"
	}
	return "?"
}

// longState returns the human-readable state name for qstat -f style
// output.
func (s JobState) longState() string {
	switch s {
	case StateQueued:
		return "Queued"
	case StateHeld:
		return "Held"
	case StateRunning:
		return "Running"
	case StateExiting:
		return "Exiting"
	case StateCompleted:
		return "Completed"
	}
	return "Unknown"
}

// Job is one batch job. Every field — including the timestamps, which
// are stamped from the server's logical event clock — is part of the
// replicated state, so snapshots are byte-identical across replicas.
type Job struct {
	ID    JobID
	Seq   uint64
	Name  string
	Owner string
	// Script is the job payload. The simulated mom does not execute
	// it; it is carried for fidelity and for test assertions.
	Script string
	// NodeCount is the number of compute nodes requested.
	NodeCount int
	// WallTime is the simulated execution time on the mom. The
	// backfill stage also treats it as the job's declared runtime
	// bound when computing reservations.
	WallTime time.Duration
	// Res is the per-node resource request (stage 1 of the pipeline).
	Res ResourceSpec
	// Priority is the user-assigned priority (qsub -p); higher runs
	// earlier under the priority and backfill policies.
	Priority int
	// ArrayIdx is the sub-job index within a job array, or -1 for a
	// job submitted outside an array.
	ArrayIdx int

	State JobState
	// Nodes are the compute nodes allocated while Running/Exiting.
	// The server only ever replaces a live job's Nodes with a fresh
	// slice (startJob) and never writes into one, so StatusView's
	// value copy may alias it without a lock.
	Nodes []string
	// ExitCode is meaningful once State == StateCompleted. Killed
	// jobs report ExitCodeKilled.
	ExitCode int
	// Output is the job's captured standard output (what PBS would
	// write to the .o file), filled in at completion. The simulated
	// mom interprets "echo ..." lines of the script.
	Output string

	SubmittedAt time.Time
	StartedAt   time.Time
	CompletedAt time.Time

	// encLen is the length of the live job's own encoding, exactly as
	// EncodeJob writes it, from when the server creates or restores the
	// job until its first in-place write (setState); 0 after that. The
	// encoding is the job's one string of text: ID, Name, Owner and
	// Script (and, for a restored job, Nodes and Output) are substrings
	// of it (useText), and the server's own listings and snapshots
	// splice it while it is valid (cachedEnc). Values handed out of the
	// server never carry it (view, clone).
	encLen int
}

// ExitCodeKilled is reported for jobs deleted while running.
const ExitCodeKilled = -271 // matches TORQUE's JOB_EXEC_KILLED convention

// view returns a copy of the live job j without its cached encoding,
// its Nodes aliasing j's (see Nodes).
func (j *Job) view() Job {
	v := *j
	v.encLen = 0
	return v
}

// clone returns a copy of j that shares nothing mutable with it.
func (j *Job) clone() Job {
	c := j.view()
	c.Nodes = append([]string(nil), j.Nodes...)
	return c
}

// setState moves the live job j to state st. It is the one way the
// server writes into a job it holds, so it drops the job's cached
// encoding: the caller goes on to write the fields the new state
// carries (Nodes, stamps, exit code, output), and from then on the job
// is encoded field by field.
func (j *Job) setState(st JobState) {
	j.State = st
	j.encLen = 0
}

// SubmitRequest is the qsub argument set.
type SubmitRequest struct {
	Name      string
	Owner     string
	Script    string
	NodeCount int           // defaults to 1
	WallTime  time.Duration // simulated runtime; defaults to 0 (instant)
	Hold      bool          // submit in held state (qsub -h)
	Resources ResourceSpec  // per-node request (qsub -l ncpus=..,mem=..)
	Priority  int           // user priority (qsub -p)
	Array     ArraySpec     // job array (qsub -t start-end)
}

// Action is an effect the server asks its host daemon to perform on
// the compute nodes. The Server is a pure state machine; emitting
// actions instead of doing I/O keeps every replica deterministic and
// directly testable.
type Action interface{ action() }

// StartAction directs the daemon to start a job on its allocated
// nodes (the PBS server "connects to a PBS mom server ... to start
// the job"). Job is the server's live record (see TakeActions); a
// one-pointer struct, the action boxes into an Action without
// allocating.
type StartAction struct {
	Job *Job
}

// KillAction directs the daemon to terminate a running job on its
// nodes (qdel of a running job).
type KillAction struct {
	Job *Job
}

func (StartAction) action() {}
func (KillAction) action()  {}

// Errors returned by the server command interface. The messages
// mirror PBS client diagnostics.
type Error struct {
	Op  string
	ID  JobID
	Msg string
}

func (e *Error) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("pbs: %s %s: %s", e.Op, e.ID, e.Msg)
	}
	return fmt.Sprintf("pbs: %s: %s", e.Op, e.Msg)
}

func errUnknownJob(op string, id JobID) error {
	return &Error{Op: op, ID: id, Msg: "Unknown Job Id"}
}
