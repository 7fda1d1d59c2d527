package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"joshua/benchmark/report"
	"joshua/internal/cluster"
	"joshua/internal/pbs"
)

// workload is one named traffic mix. The names are the contract with
// BENCHMARK.json; why is the one-line reason recorded there.
type workload struct {
	name string
	why  string
	// plan generates the inputs for a run measuring for the given
	// number of seconds. It is pure: no clock, no system.
	plan func(seed int64, seconds float64) *plan
	// computes is the mom pool; jobsRun says jobs execute (so the
	// invariants read accounting and wait for the queue to drain).
	computes int
	jobsRun  bool
	// faults says the workload crashes heads: it then runs the group
	// layer's shipped failure detector and a shorter client timeout.
	faults bool
	// measure drives the plan's phases and fills in the metrics.
	measure func(r *run) error
}

var workloads = []workload{
	{
		name:     "submit",
		why:      "Held-job jsub only, the paper's Fig. 10/11 operation: gcs order, wal, rsm apply/release and pbs.Submit do all the work; reads, scheduler, moms and view changes none.",
		plan:     planSubmit,
		computes: 1,
		measure:  measureSubmit,
	},
	{
		name:     "mixed",
		why:      "90 % jstat reads beside 10 % jsub+jdel writes on a steady 2,000-job queue: the read path does the work while every write bumps the epoch and invalidates its caches.",
		plan:     planMixed,
		computes: 1,
		measure:  measureMixed,
	},
	{
		name:     "lifecycle",
		why:      "Whole jobs on 8 moms, jsub to schedule to jmutex to run to jdone: scheduler pipeline, lock table, moms and completion path do the work that submit bypasses.",
		plan:     planLifecycle,
		computes: envMoms,
		jobsRun:  true,
		measure:  measureLifecycle,
	},
	{
		name:     "failover",
		why:      "Open-loop jsub while the current sequencer is crashed and restarted every cycle: the only workload running failure detection, view change, client fail-over, WAL recovery and state transfer.",
		plan:     planFailover,
		computes: 1,
		faults:   true,
		measure:  measureFailover,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Phase shares of the measuring time, and offered rates. A 20 s run
// puts 2,100 (submit), 12,350 (mixed: 650 writes, the rest reads),
// 1,500 (lifecycle) and 3,200 (failover) samples behind the
// reference-phase medians.
const (
	submitRefRate    = 300.0
	submitLoadedRate = 600.0 // twice the reference, about 40 % of two cores
	mixedRate        = 1000.0
	mixedPreload     = 2000
	lifecycleRate    = 150.0
	failoverRate     = 200.0
	// Closed-loop work per second of run length, sized so that the
	// phase takes about the 20 to 40 % of the run left to it: held
	// jsubs (submit, failover), mixed slots, and whole jobs.
	submitClosedPerSecond     = 250
	mixedClosedPerSecond      = 1250
	lifecycleBacklogPerSecond = 100
	// faultCycle is the shortest cycle that still lets a crashed head
	// be detected, restarted and rejoined before the next crash.
	faultCycle = 3 * time.Second
)

func planSubmit(seed int64, seconds float64) *plan {
	return &plan{workload: "submit", seed: seed, phases: []phase{
		openPhase("ref", subSeed(seed, 1), mixSubmit, submitRefRate, scaled(seconds, 0.40), 0),
		openPhase("loaded", subSeed(seed, 2), mixSubmit, submitLoadedRate, scaled(seconds, 0.30), 0),
		closedPhase("closed", subSeed(seed, 3), mixSubmit, roundUp(seconds*submitClosedPerSecond)),
	}}
}

func planMixed(seed int64, seconds float64) *plan {
	return &plan{workload: "mixed", seed: seed, preload: mixedPreload, phases: []phase{
		openPhase("ref", subSeed(seed, 1), mixMixed, mixedRate, scaled(seconds, 0.65), mixedPreload),
		closedPhase("closed", subSeed(seed, 3), mixMixed, roundUp(seconds*mixedClosedPerSecond)),
	}}
}

func planLifecycle(seed int64, seconds float64) *plan {
	return &plan{workload: "lifecycle", seed: seed, phases: []phase{
		openPhase("ref", subSeed(seed, 1), mixLifecycle, lifecycleRate, scaled(seconds, 0.50), 0),
		// The backlog is queued closed-loop and then timed to drain.
		closedPhase("backlog", subSeed(seed, 3), mixLifecycle, roundUp(seconds*lifecycleBacklogPerSecond)),
	}}
}

func planFailover(seed int64, seconds float64) *plan {
	dur := scaled(seconds, 1)
	n := int(dur / faultCycle)
	if n < 1 {
		n, dur = 1, faultCycle
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	return &plan{workload: "failover", seed: seed,
		faults: faultCycles(rng, n, dur),
		phases: []phase{openPhase("ref", subSeed(seed, 1), mixSubmit, failoverRate, dur, 0)}}
}

// run is one execution of one workload.
type run struct {
	w       *workload
	cfg     *config
	plan    *plan
	sys     *system
	ledger  *ledger
	tr      *tracer
	metrics metricSet
	// preloaded are the jobs reads target.
	preloaded []pbs.JobID
	// lastDeleted is, per connection, the job whose jdel was most
	// recently acknowledged there.
	lastDeleted [envConns]atomic.Pointer[pbs.JobID]
	// departed accumulates the counters of heads at the moment they
	// were crashed.
	departed   counters
	attempted  int
	failed     int
	violations []string
	// jobs counts acknowledged submissions; measured is how long the
	// workload's measure function ran.
	jobs     int
	measured time.Duration
	reqSeq   atomic.Int64
}

// execute performs one generated operation on the system under test.
// It is the only place the benchmark calls the client API while
// anything is timed.
func (r *run) execute(o op, at func() time.Duration, emit func(sample)) {
	k := o.user % envConns
	conn := r.sys.conns[k]
	req := r.reqSeq.Add(1)
	switch o.kind {
	case opSubmit, opSubmitRun, opPair:
		sr := o.job.request(o.kind)
		r.ledger.sent(sr.Name)
		_, end := r.tr.begin("client", "jsub", 0, req)
		j, err := conn.Submit(sr)
		end(err == nil)
		emit(sample{kind: o.kind, due: o.due, done: at(), ok: err == nil})
		if err != nil {
			return
		}
		r.ledger.ack(sr.Name, j.ID, k)
		if o.kind != opPair {
			return
		}
		sent := at()
		_, end = r.tr.begin("client", "jdel", 0, req)
		_, err = conn.Delete(j.ID)
		end(err == nil)
		emit(sample{kind: opDelete, due: sent, done: at(), ok: err == nil})
		if err == nil {
			r.ledger.ackDelete(j.ID)
			id := j.ID
			r.lastDeleted[k].Store(&id)
		}
	case opStat:
		_, end := r.tr.begin("client", "jstat", 0, req)
		_, err := conn.Stat(r.preloaded[o.pick])
		end(err == nil)
		emit(sample{kind: o.kind, due: o.due, done: at(), ok: err == nil})
	case opStatOrdered:
		// An ordered read is linearizable: sent after a write was
		// acknowledged on this connection, it must reflect it. Four in
		// five read a preloaded job, which must be there; one in five
		// reads the job this connection last deleted, which must not.
		var gone *pbs.JobID
		if o.pick < 0 {
			gone = r.lastDeleted[k].Load()
		}
		id := r.preloaded[(o.pick+len(r.preloaded))%len(r.preloaded)]
		if gone != nil {
			id = *gone
		}
		_, end := r.tr.begin("client", "jstat-ordered", 0, req)
		_, err := conn.StatOrdered(id)
		end(err == nil || gone != nil)
		ok := err == nil
		if gone != nil {
			ok = unknownJob(err)
			if err == nil {
				r.ledger.violate("ordered read found %s after its jdel was acknowledged", id)
			}
		} else if unknownJob(err) {
			r.ledger.violate("ordered read lost preloaded job %s", id)
		}
		emit(sample{kind: o.kind, due: o.due, done: at(), ok: ok})
	case opStatAll:
		_, end := r.tr.begin("client", "jstat-all", 0, req)
		jobs, err := conn.StatAll()
		end(err == nil)
		if err == nil && len(jobs) < len(r.preloaded) {
			err = fmt.Errorf("listing of %d jobs, %d preloaded", len(jobs), len(r.preloaded))
			r.ledger.violate("jstat listed %d jobs, fewer than the %d preloaded", len(jobs), len(r.preloaded))
		}
		emit(sample{kind: o.kind, due: o.due, done: at(), ok: err == nil})
	}
}

// unknownJob reports whether err is the batch service's answer for a
// job it does not hold.
func unknownJob(err error) bool {
	return err != nil && strings.Contains(err.Error(), "Unknown Job Id")
}

// setUp boots the system the workload measures: cluster, WaitReady,
// connections, preload, and a 50-operation warm-up so that pools and
// caches are filled and lazy set-up is done before the first timed
// operation.
func (r *run) setUp() error {
	opts := envOptions(r.cfg.seed, envHeads, r.w.computes, r.w.faults)
	sys, err := boot(opts, r.cfg.out, true)
	if err != nil {
		return err
	}
	r.sys, r.ledger, r.preloaded = sys, newLedger(), nil
	for left := r.plan.preload; left > 0; {
		n := left
		if n > 250 {
			n = 250
		}
		jobs, err := sys.conns[0].SubmitBatch(pbs.SubmitRequest{Name: "preload", Owner: "user00", Hold: true, WallTime: time.Hour}, n)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for _, j := range jobs {
			r.preloaded = append(r.preloaded, j.ID)
		}
		left -= n
	}
	// Plain jstat reads one head's local state and may trail a write;
	// reads must not start until every head holds the preloaded jobs.
	if err := quiesce(sys, false, 10*time.Second); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	warm := closedPhase("warm", subSeed(r.cfg.seed, 9), r.plan.phases[0].mix, 50)
	g := warm.userGenerator(0, r.plan.preload)
	var failed int
	for i := 0; i < 50; i++ {
		r.execute(g.next(i), func() time.Duration { return 0 }, func(s sample) {
			if !s.ok {
				failed++
			}
		})
	}
	if failed > 0 {
		return fmt.Errorf("warm-up: %d of 50 operations failed", failed)
	}
	return nil
}

// tearDown closes whatever setUp got up.
func (r *run) tearDown() {
	if r.sys != nil {
		r.sys.close()
		r.sys = nil
	}
}

// tally adds a phase's operations to the run's attempted/failed.
func (r *run) tally(p *phaseResult) {
	for _, s := range p.samples {
		r.attempted++
		if !s.ok {
			r.failed++
		} else if isWrite(s) {
			r.jobs++
		}
	}
}

// phase finds a planned phase.
func (r *run) phase(name string) *phase {
	for i := range r.plan.phases {
		if r.plan.phases[i].name == name {
			return &r.plan.phases[i]
		}
	}
	panic("benchmark: no phase " + name)
}

// open runs a planned open-loop phase against the system.
func (r *run) open(name string) phaseResult { return r.openAt(name, time.Now()) }

func (r *run) openAt(name string, start time.Time) phaseResult {
	p := runOpen(r.phase(name), start, r.execute)
	r.tally(&p)
	return p
}

// reference runs the open-loop reference phase every workload begins
// with and records what all of them take from it: write_p50_ms, the
// allocations per completed operation over the same stretch, and the
// client.* write diagnostics.
func (r *run) reference(start time.Time) phaseResult {
	before := runtimeCounters()
	p := r.openAt("ref", start)
	after := runtimeCounters()
	w := p.latencies(isWrite)
	r.metrics.set("write_p50_ms", p50(w), len(w))
	done := p.completed()
	r.metrics.set("allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(done)), done)
	r.metrics.set("client.write_p99_ms", p99(w), len(w))
	if len(w) > 0 {
		r.metrics.set("client.write_max_ms", w[len(w)-1], len(w))
	}
	r.metrics.set("client.gen_late_max_ms", ms(p.genLate), len(p.samples))
	return p
}

// focus records the workload's own latency under both its names.
func (r *run) focus(v float64, samples int) {
	r.metrics.set("focus_p50_ms", v, samples)
	r.metrics.set("client."+focusAlias[r.w.name], v, samples)
}

// capacity runs the closed-loop phase and records the throughput
// diagnostic: completed operations per second from the phase start to
// done(), which lifecycle uses to wait for the queue to drain.
func (r *run) capacity(name string, done func() error) error {
	start := time.Now()
	p := runClosed(r.phase(name), r.plan.preload, r.execute)
	r.tally(&p)
	if done != nil {
		if err := done(); err != nil {
			return fmt.Errorf("%s phase: %w", name, err)
		}
	}
	completed := p.completed()
	r.metrics.set("client.throughput_ops_s", ratio(float64(completed), time.Since(start).Seconds()), completed)
	return nil
}

func measureSubmit(r *run) error {
	r.reference(time.Now())
	loaded := r.open("loaded")
	l := loaded.latencies(isWrite)
	r.focus(p50(l), len(l))
	return r.capacity("closed", nil)
}

func measureMixed(r *run) error {
	ref := r.reference(time.Now())
	reads := ref.latencies(isRead)
	r.focus(p50(reads), len(reads))
	r.metrics.set("client.read_p99_ms", p99(reads), len(reads))
	return r.capacity("closed", nil)
}

// turnarounds returns the sorted queue-to-end times, in ms, of the
// named jobs from head0's accounting records (E.Time - Q.Time).
func turnarounds(acct *pbs.MemoryAccounting, names map[string]bool) []float64 {
	queued := map[pbs.JobID]time.Time{}
	var out []float64
	for _, rec := range acct.Records() {
		switch rec.Type {
		case pbs.AcctQueued:
			if names[rec.Attrs["jobname"]] {
				queued[rec.Job] = rec.Time
			}
		case pbs.AcctEnded:
			if q, ok := queued[rec.Job]; ok {
				out = append(out, ms(rec.Time.Sub(q)))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// drained polls head0 every 10 ms until nothing is queued or running.
func drained(cl *cluster.Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if w, run, _ := cl.Head(0).Daemon().Server().QueueLengths(); w+run == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("queue did not drain within %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func measureLifecycle(r *run) error {
	r.reference(time.Now())
	if err := drained(r.sys.cl, 30*time.Second); err != nil {
		return fmt.Errorf("reference phase: %w", err)
	}
	names := map[string]bool{}
	for _, o := range r.phase("ref").open {
		names[o.job.name()] = true
	}
	t := turnarounds(r.sys.cl.Accounting(0), names)
	r.focus(p50(t), len(t))
	r.metrics.set("client.turnaround_p99_ms", p99(t), len(t))

	// The backlog: envUsers users queue the jobs as fast as they are
	// acknowledged while the moms already run them; the clock stops
	// when the last job has ended.
	return r.capacity("backlog", func() error { return drained(r.sys.cl, 60*time.Second) })
}

// faultOutcome is what one crash/restart cycle measured.
type faultOutcome struct {
	crashedAt time.Duration // offset from the phase start; 0 = no crash happened
	victim    int
	rejoin    time.Duration
	err       error
}

// injectFaults runs the plan's crash/restart cycles against the
// cluster while the open-loop phase sends on schedule, so requests due
// while no sequencer exists are counted. start is the phase start.
func (r *run) injectFaults(start time.Time) []faultOutcome {
	cl := r.sys.cl
	out := make([]faultOutcome, len(r.plan.faults))
	sleepUntil := func(d time.Duration) { time.Sleep(time.Until(start.Add(d))) }
	for n, f := range r.plan.faults {
		sleepUntil(f.crashAt)
		live := cl.LiveHeads()
		seq := string(cl.Head(live[0]).View().Sequencer())
		victim := -1
		fmt.Sscanf(seq, "head%d", &victim)
		if victim < 0 || cl.Head(victim) == nil {
			out[n].err = fmt.Errorf("cycle %d: sequencer %q is not a live head", n, seq)
			return out
		}
		r.departed.addHead(cl, victim)
		out[n].victim = victim
		out[n].crashedAt = time.Since(start)
		cl.CrashHead(victim)

		sleepUntil(f.restartAt)
		var donor uint64
		for _, i := range cl.LiveHeads() {
			if a := cl.Head(i).Replica().Stats().AppliedIndex; a > donor {
				donor = a
			}
		}
		t0 := time.Now()
		if err := cl.RestartHeads(victim); err != nil {
			out[n].err = fmt.Errorf("cycle %d: restart head%d: %w", n, victim, err)
			return out
		}
		select {
		case <-cl.Head(victim).Ready():
		case <-time.After(10 * time.Second):
			out[n].err = fmt.Errorf("cycle %d: head%d not ready 10 s after restart", n, victim)
			return out
		}
		for cl.Head(victim).Replica().Stats().AppliedIndex < donor {
			if time.Since(t0) > 10*time.Second {
				out[n].err = fmt.Errorf("cycle %d: head%d did not catch up to %d", n, victim, donor)
				return out
			}
			time.Sleep(time.Millisecond)
		}
		out[n].rejoin = time.Since(t0)
	}
	return out
}

func measureFailover(r *run) error {
	start := time.Now().Add(5 * time.Millisecond)
	outcomes := make(chan []faultOutcome, 1)
	go func() { outcomes <- r.injectFaults(start) }()
	ref := r.reference(start)
	faults := <-outcomes

	var gaps, rejoins []float64
	for n, f := range faults {
		if f.err != nil {
			return f.err
		}
		// Ops due from 0.5 s before the crash to 2 s after it, clipped
		// to the stretch of the cycle before the restart so that the
		// window sees this crash and nothing else.
		c := r.plan.faults[n]
		from, to := f.crashedAt-500*time.Millisecond, f.crashedAt+2*time.Second
		if from < c.start {
			from = c.start
		}
		if to > c.restartAt {
			to = c.restartAt
		}
		gaps = append(gaps, ms(longestGap(ref.samples, from, to)))
		rejoins = append(rejoins, ms(f.rejoin))
	}
	sort.Float64s(gaps)
	r.focus(report.Median(gaps), len(gaps))
	r.metrics.set("client.outage_max_ms", gaps[len(gaps)-1], len(gaps))
	r.metrics.set("rsm.rejoin_p50_ms", report.Median(rejoins), len(rejoins))
	return nil
}
