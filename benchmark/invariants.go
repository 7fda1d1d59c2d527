package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"joshua/internal/pbs"
)

// ledger is the benchmark's own record of what the system told its
// clients — the acknowledgements the invariants are checked against.
type ledger struct {
	mu sync.Mutex
	// acked maps the unique name of every acknowledged jsub to the job
	// ID the system returned for it.
	acked map[string]pbs.JobID
	// attempted holds the name of every jsub sent, acknowledged or
	// not: a failed one may or may not have executed, but never twice.
	attempted map[string]bool
	// deleted holds every job whose jdel was acknowledged.
	deleted map[pbs.JobID]bool
	// lastAcked is the newest job acknowledged on each connection.
	lastAcked [envConns]pbs.JobID
	// violations found while the load ran (ordered reads contradicting
	// an acknowledged write).
	violations []string
}

func newLedger() *ledger {
	return &ledger{
		acked:     map[string]pbs.JobID{},
		attempted: map[string]bool{},
		deleted:   map[pbs.JobID]bool{},
	}
}

func (l *ledger) sent(name string) {
	l.mu.Lock()
	l.attempted[name] = true
	l.mu.Unlock()
}

func (l *ledger) ack(name string, id pbs.JobID, conn int) {
	l.mu.Lock()
	l.lastAcked[conn] = id
	if prev, dup := l.acked[name]; dup && prev != id {
		l.violations = append(l.violations, fmt.Sprintf("jsub %s acknowledged twice: %s and %s", name, prev, id))
	}
	l.acked[name] = id
	l.mu.Unlock()
}

func (l *ledger) ackDelete(id pbs.JobID) {
	l.mu.Lock()
	l.deleted[id] = true
	l.mu.Unlock()
}

func (l *ledger) violate(format string, args ...any) {
	l.mu.Lock()
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// quiesce waits until every live head has applied the same number of
// commands and, when jobs run, until nothing is queued or running —
// the state the invariants are defined on.
func quiesce(sys *system, jobsRun bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last uint64
	for {
		live := sys.cl.LiveHeads()
		equal := len(live) > 0
		var first uint64
		applied := make([]uint64, 0, len(live))
		for k, i := range live {
			st := sys.cl.Head(i).Replica().Stats()
			applied = append(applied, st.AppliedIndex)
			if k == 0 {
				first = st.AppliedIndex
			} else if st.AppliedIndex != first {
				equal = false
			}
			if jobsRun {
				if w, r, _ := sys.cl.Head(i).Daemon().Server().QueueLengths(); w+r > 0 {
					equal = false
				}
			}
		}
		// Equal once could be a pause between two commands; equal and
		// unchanged over three polls is quiet.
		if equal && first == last {
			if stable++; stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		last = first
		if time.Now().After(deadline) {
			var views []string
			for _, i := range live {
				views = append(views, sys.cl.Head(i).View().String())
			}
			return fmt.Errorf("heads did not quiesce within %v: live %v applied %v views %v", timeout, live, applied, views)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobNames counts, per job name, how often head i executed a jsub.
// Where jobs complete, the job table forgets them past KeepCompleted,
// so the head's accounting log is read instead: one Q record per
// executed jsub.
func jobNames(sys *system, i int, fromAccounting bool) (byName map[string]int, byID map[pbs.JobID]string) {
	byName, byID = map[string]int{}, map[pbs.JobID]string{}
	if fromAccounting {
		for _, r := range sys.cl.Accounting(i).Records() {
			if r.Type == pbs.AcctQueued {
				byName[r.Attrs["jobname"]]++
				byID[r.Job] = r.Attrs["jobname"]
			}
		}
		return byName, byID
	}
	for _, j := range sys.cl.Head(i).Daemon().Server().StatusAll() {
		byName[j.Name]++
		byID[j.ID] = j.Name
	}
	return byName, byID
}

// checkInvariants runs after every workload, on the quiesced system:
//
//  1. every acknowledged jsub executed exactly once on every live head
//     (none lost, none duplicated), no jsub — acknowledged or not —
//     executed twice, and no job with an acknowledged jdel survives;
//  2. the batch service's Snapshot() is byte-identical on all live
//     heads — where jobs run, only the part of it the configuration
//     promises to replicate (see jobOutcomes);
//  3. ordered reads never contradicted an acknowledged write (counted
//     during the run, in the ledger), and a final ordered read of the
//     last job each connection was acknowledged finds it;
//  4. after the last rejoin every head is live again and holds all of
//     the above (failover: wantHeads = 3).
//
// Where jobs ran it also requires exactly one E record per job. It
// returns the violations and how many heads' raw snapshots differ from
// the first live head's; an error means the check itself could not
// run.
func checkInvariants(sys *system, l *ledger, jobsRun bool, wantHeads int) (v []string, divergent int, err error) {
	if err := quiesce(sys, jobsRun, 30*time.Second); err != nil {
		return nil, 0, err
	}
	l.mu.Lock()
	last := l.lastAcked
	for k, id := range last {
		if l.deleted[id] {
			last[k] = "" // its pair's jdel followed; nothing to find
		}
	}
	l.mu.Unlock()
	for k, id := range last {
		if id == "" {
			continue
		}
		if _, err := sys.conns[k].StatOrdered(id); err != nil {
			l.violate("connection %d: ordered read of its last acknowledged job %s: %v", k, id, err)
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	v = append([]string(nil), l.violations...)
	add := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	live := sys.cl.LiveHeads()
	if len(live) != wantHeads {
		add("%d heads live at the end, want %d", len(live), wantHeads)
	}
	var ref, refTable []byte
	for k, i := range live {
		byName, byID := jobNames(sys, i, jobsRun)
		for name, id := range l.acked {
			if l.deleted[id] {
				continue // must be gone instead; checked below
			}
			if n := byName[name]; n != 1 {
				add("head%d: acknowledged jsub %s (%s) executed %d times", i, name, id, n)
			}
			if got, ok := byID[id]; ok && got != name {
				add("head%d: job %s is %s, was acknowledged as %s", i, id, got, name)
			}
		}
		for name, n := range byName {
			if n > 1 && l.attempted[name] {
				if _, acked := l.acked[name]; !acked {
					add("head%d: unacknowledged jsub %s executed %d times", i, name, n)
				}
			}
		}
		for id := range l.deleted {
			if _, ok := byID[id]; ok {
				add("head%d: job %s survives its acknowledged jdel", i, id)
			}
		}
		if jobsRun {
			ended := map[pbs.JobID]int{}
			for _, r := range sys.cl.Accounting(i).Records() {
				if r.Type == pbs.AcctEnded {
					ended[r.Job]++
				}
			}
			for name, id := range l.acked {
				if ended[id] != 1 {
					add("head%d: job %s (%s) ended %d times", i, id, name, ended[id])
				}
			}
		}
		snap := sys.cl.Head(i).Daemon().Server().Snapshot()
		var table []byte
		if jobsRun {
			table = jobOutcomes(sys.cl.Accounting(i))
		}
		if k == 0 {
			ref, refTable = snap, table
			continue
		}
		if !bytes.Equal(ref, snap) {
			divergent++
			if !jobsRun {
				add("head%d: batch-service snapshot differs from head%d's (%d vs %d bytes)", i, live[0], len(snap), len(ref))
			}
		}
		if !bytes.Equal(refTable, table) {
			add("head%d: queued and ended jobs differ from head%d's", i, live[0])
		}
	}
	return v, divergent, nil
}

// jobOutcomes encodes what every head must agree on even where jobs
// run: which jobs were queued and how each ended, from the head's
// accounting log, in job order. The fixed environment is the shipped
// one — FIFO, non-exclusive, mom completion reports applied at each
// head as they arrive rather than through the total order — and under
// it node placement, a job's logical-clock stamps and the order (hence
// the KeepCompleted eviction) of completions are not replicated state:
// heads see completions in different orders and pack later jobs
// differently (README.md, Findings). Raw snapshots are therefore
// compared only on the held-job workloads, where nothing completes.
func jobOutcomes(acct *pbs.MemoryAccounting) []byte {
	var lines []string
	for _, r := range acct.Records() {
		if r.Type == pbs.AcctQueued || r.Type == pbs.AcctEnded {
			lines = append(lines, fmt.Sprintf("%s %c %s %s", r.Job, r.Type, r.Attrs["jobname"], r.Attrs["exit_status"]))
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}
