package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"joshua/internal/pbs"
)

// Everything the program under test receives is generated here from
// the seed, before anything is timed: the arrival schedule, the order
// of operation kinds, each job's owner, name and resource request, the
// read targets and the fault times. Two plans made from one seed are
// byte-identical (plan.fingerprint), so a run is reproducible up to
// the timing of the machine it runs on.

type opKind uint8

const (
	// opSubmit is jsub of a held job: the paper's Fig. 10/11 operation.
	opSubmit opKind = iota
	// opSubmitRun is jsub of a runnable one-node job (lifecycle).
	opSubmitRun
	// opPair is jsub of a held job followed by jdel of the same job,
	// so the mixed workload's queue length stays put. The jsub is the
	// write sample; the jdel is counted as an operation of its own.
	opPair
	// opDelete is the jdel half of a pair. It is never scheduled on its
	// own; it only labels the sample the pair's second request makes.
	opDelete
	opStat
	opStatOrdered
	opStatAll
)

var opNames = [...]string{"jsub", "jsub", "jsub+jdel", "jdel", "jstat", "jstat-ordered", "jstat-all"}

func (k opKind) String() string { return opNames[k] }
func (k opKind) read() bool     { return k >= opStat }

// op is one generated request.
type op struct {
	// due is the offset from the phase start at which an open-loop
	// request is to be sent; latency is timed from it, not from when
	// the generator got round to sending. Zero in closed-loop phases.
	due  time.Duration
	kind opKind
	// user is the logical user; it selects the connection.
	user int
	// job parameterizes a submission.
	job jobSpec
	// pick selects a read's target: an index into the preloaded jobs,
	// or, for every fifth ordered read, "the job this connection most
	// recently deleted" (negative).
	pick int
}

// jobSpec is the generated part of a pbs.SubmitRequest.
type jobSpec struct {
	// tag and serial make the job name: the tag is unique per
	// generator, the serial counts that generator's submissions.
	tag      string
	serial   int
	owner    uint8
	memMB    uint16
	wallMins uint8
	priority int8
}

const owners = 16

// request renders the spec. Names are unique per run, which is what
// lets the invariant checker count executions of one logical jsub.
func (j jobSpec) request(kind opKind) pbs.SubmitRequest {
	req := pbs.SubmitRequest{
		Name:      j.name(),
		Owner:     fmt.Sprintf("user%02d", j.owner),
		Script:    "#PBS -q batch\necho run\n",
		NodeCount: 1,
		Resources: pbs.ResourceSpec{NCPUs: 1, Mem: int64(j.memMB) << 20},
		Priority:  int(j.priority),
	}
	if kind == opSubmitRun {
		req.WallTime = time.Second
	} else {
		req.Hold = true
		req.WallTime = time.Duration(j.wallMins) * time.Minute
	}
	return req
}

func (j jobSpec) name() string { return j.tag + strconv.Itoa(j.serial) }

// mix is a workload's operation mix as integer weights per kind.
type mix [opStatAll + 1]int

var (
	mixSubmit    = mix{opSubmit: 1}
	mixLifecycle = mix{opSubmitRun: 1}
	// mixMixed yields, counted in operations, 70 % Stat, 10 %
	// StatOrdered, 10 % StatAll and 10 % writes: a pair is two
	// operations, so it takes 1 slot in 19 for 2 operations in 20.
	mixMixed = mix{opStat: 14, opStatOrdered: 2, opStatAll: 2, opPair: 1}
)

// opsPerSlot converts a rate in operations to a rate in schedule
// slots (a pair slot carries two operations).
func (m mix) opsPerSlot() float64 {
	slots, ops := 0, 0
	for k, w := range m {
		slots += w
		ops += w
		if opKind(k) == opPair {
			ops += w
		}
	}
	return float64(ops) / float64(slots)
}

// generator draws operations of one mix.
type generator struct {
	rng *rand.Rand
	// deck holds one card per unit of weight and is dealt in shuffled
	// order, then reshuffled: every run of len(deck) draws has exactly
	// the mix's proportions, so two seeds differ in order, not in how
	// many expensive listings they happened to draw.
	deck    []opKind
	dealt   int
	tag     string // prefixes this generator's job names; unique per plan
	serial  int
	preload int // number of preloaded jobs reads may target
}

func newGenerator(seed int64, m mix, tag string, preload int) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), tag: tag, preload: preload}
	for k, w := range m {
		for i := 0; i < w; i++ {
			g.deck = append(g.deck, opKind(k))
		}
	}
	g.dealt = len(g.deck)
	return g
}

func (g *generator) next(user int) op {
	if g.dealt == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.dealt = 0
	}
	o := op{user: user, kind: g.deck[g.dealt]}
	g.dealt++
	if o.kind.read() {
		if g.preload > 0 {
			o.pick = g.rng.Intn(g.preload)
		}
		if o.kind == opStatOrdered && g.rng.Intn(5) == 0 {
			o.pick = -1
		}
		return o
	}
	g.serial++
	o.job = jobSpec{
		tag:      g.tag,
		serial:   g.serial,
		owner:    uint8(g.rng.Intn(owners)),
		memMB:    uint16(64 << g.rng.Intn(6)),
		wallMins: uint8(1 + g.rng.Intn(60)),
		priority: int8(g.rng.Intn(5)),
	}
	return o
}

// poisson returns the arrival offsets of a Poisson process of the
// given rate over dur: independent users make an open loop.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// phase is one timed stretch of a workload.
type phase struct {
	name string
	// dur is an open-loop phase's length; closed-loop phases have none.
	dur time.Duration
	// open holds the schedule of an open-loop phase. A closed-loop
	// phase has none: its envUsers users draw from closedSeed as fast
	// as replies come back, until count slots have been drawn. It is a
	// fixed amount of work, not a fixed time: the cost of an operation
	// grows with the queue, so a phase of fixed length would let a
	// faster run reach longer queues and measure itself against them.
	open       []op
	closedSeed int64
	count      int
	mix        mix
}

func (p *phase) closed() bool { return p.open == nil }

// userGenerator is closed-loop user u's private operation stream.
func (p *phase) userGenerator(u, preload int) *generator {
	return newGenerator(subSeed(p.closedSeed, u), p.mix, fmt.Sprintf("%s-u%d-", p.name, u), preload)
}

// openPhase schedules rate operations per second of mix m over dur.
func openPhase(name string, seed int64, m mix, rate float64, dur time.Duration, preload int) phase {
	g := newGenerator(seed, m, name+"-", preload)
	arrivals := poisson(g.rng, rate/m.opsPerSlot(), dur)
	ops := make([]op, len(arrivals))
	for i, due := range arrivals {
		ops[i] = g.next(g.rng.Intn(envUsers))
		ops[i].due = due
	}
	if ops == nil {
		ops = []op{}
	}
	return phase{name: name, dur: dur, open: ops, mix: m}
}

// closedPhase has envUsers users work through count slots of mix m.
func closedPhase(name string, seed int64, m mix, count int) phase {
	return phase{name: name, closedSeed: seed, count: count, mix: m}
}

// fault is one crash/restart cycle of the failover workload, as
// offsets from the start of the fault phase. The victim is whichever
// head is sequencer at crashAt; the seed moves the crash within its
// cycle so that it meets the protocol in a different state each time.
type fault struct {
	start, crashAt, restartAt, end time.Duration
}

// plan is a workload's complete generated input.
type plan struct {
	workload string
	seed     int64
	preload  int
	phases   []phase
	faults   []fault
}

// subSeed derives independent streams from the run seed.
func subSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + 1
}

// scaled returns the share f of the run's measuring time.
func scaled(seconds, f float64) time.Duration {
	return time.Duration(seconds * f * float64(time.Second))
}

// fingerprint serialises everything the plan feeds the system: the
// open-loop schedules in full and the first 64 draws of every
// closed-loop user.
func (p *plan) fingerprint() []byte {
	var b []byte
	put := func(v int64) { b = binary.AppendVarint(b, v) }
	putOp := func(o op) {
		put(int64(o.due))
		put(int64(o.kind))
		put(int64(o.user))
		put(int64(o.pick))
		b = append(b, o.job.tag...)
		put(int64(o.job.serial))
		put(int64(o.job.owner))
		put(int64(o.job.memMB))
		put(int64(o.job.wallMins))
		put(int64(o.job.priority))
	}
	b = append(b, p.workload...)
	put(int64(p.preload))
	for _, ph := range p.phases {
		b = append(b, ph.name...)
		put(int64(ph.dur))
		put(int64(ph.count))
		for _, o := range ph.open {
			putOp(o)
		}
		if ph.closed() {
			for u := 0; u < envUsers; u++ {
				g := ph.userGenerator(u, p.preload)
				for i := 0; i < 64; i++ {
					putOp(g.next(u))
				}
			}
		}
	}
	for _, f := range p.faults {
		put(int64(f.start))
		put(int64(f.crashAt))
		put(int64(f.restartAt))
		put(int64(f.end))
	}
	return b
}

// faultCycles lays n crash/restart cycles over dur. Within a cycle of
// length c the sequencer is crashed at 0.2c (+ up to 0.08c from the
// seed) and brought back at 0.6c — the 5 s cycle with +1 s and +3 s of
// a 30 s run, kept in proportion when the run is shorter.
func faultCycles(rng *rand.Rand, n int, dur time.Duration) []fault {
	c := dur / time.Duration(n)
	out := make([]fault, n)
	for i := range out {
		start := time.Duration(i) * c
		jitter := time.Duration(rng.Float64() * 0.08 * float64(c))
		out[i] = fault{
			start:     start,
			crashAt:   start + c/5 + jitter,
			restartAt: start + c*3/5,
			end:       start + c,
		}
	}
	return out
}

// roundUp keeps a tiny smoke run from rounding a count to zero.
func roundUp(x float64) int { return int(math.Ceil(x)) }
