package main

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"joshua/benchmark/report"
)

func TestPoissonSchedule(t *testing.T) {
	const rate, dur = 500.0, 4 * time.Second
	arr := poisson(rand.New(rand.NewSource(1)), rate, dur)
	want := rate * dur.Seconds()
	if n := float64(len(arr)); math.Abs(n-want) > 5*math.Sqrt(want) {
		t.Errorf("%d arrivals, want %.0f within five standard deviations", len(arr), want)
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
		t.Error("arrivals are not in time order")
	}
	if arr[0] < 0 || arr[len(arr)-1] >= dur {
		t.Errorf("arrivals leave [0, %v): first %v, last %v", dur, arr[0], arr[len(arr)-1])
	}
	// Exponential gaps: the mean gap is 1/rate and about 1/e of the
	// gaps exceed it.
	long := 0
	for i := 1; i < len(arr); i++ {
		if (arr[i] - arr[i-1]).Seconds() > 1/rate {
			long++
		}
	}
	if f := float64(long) / float64(len(arr)-1); math.Abs(f-1/math.E) > 0.05 {
		t.Errorf("%.3f of the gaps exceed the mean, want about %.3f", f, 1/math.E)
	}
}

func TestMixProportions(t *testing.T) {
	if got := mixMixed.opsPerSlot(); math.Abs(got-20.0/19) > 1e-12 {
		t.Errorf("mixed ops per slot = %v, want 20/19", got)
	}
	g := newGenerator(3, mixMixed, "t-", 100)
	ops := map[opKind]int{}
	total := 0
	for i := 0; i < 190000; i++ {
		o := g.next(i % envUsers)
		ops[o.kind]++
		total++
		if o.kind == opPair {
			total++ // the jdel
		}
		if o.kind.read() && (o.pick >= 100 || (o.pick < 0 && o.kind != opStatOrdered)) {
			t.Fatalf("read %v targets %d of 100 preloaded jobs", o.kind, o.pick)
		}
	}
	for kind, want := range map[opKind]float64{opStat: 0.70, opStatOrdered: 0.10, opStatAll: 0.10, opPair: 0.05} {
		if got := float64(ops[kind]) / float64(total); math.Abs(got-want) > 0.005 {
			t.Errorf("%v is %.4f of the operations, want %.2f", kind, got, want)
		}
	}
}

func TestJobNamesAreUnique(t *testing.T) {
	for _, w := range workloads {
		p := w.plan(1, 2)
		seen := map[string]bool{}
		add := func(o op) {
			if o.kind.read() {
				return
			}
			if name := o.job.name(); seen[name] {
				t.Fatalf("%s: job name %s generated twice", w.name, name)
			} else {
				seen[name] = true
			}
		}
		for i := range p.phases {
			ph := &p.phases[i]
			for _, o := range ph.open {
				add(o)
			}
			if ph.closed() {
				for u := 0; u < envUsers; u++ {
					g := ph.userGenerator(u, p.preload)
					for k := 0; k < 50; k++ {
						add(g.next(u))
					}
				}
			}
		}
	}
}

// The same seed must give byte-identical inputs, and another seed
// different ones: the builder developed on one seed and BENCHMARK.json's
// driver uses others.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.plan(42, 3), w.plan(42, 3), w.plan(43, 3)
		if !bytes.Equal(a.fingerprint(), b.fingerprint()) {
			t.Errorf("%s: two plans from seed 42 differ", w.name)
		}
		if bytes.Equal(a.fingerprint(), c.fingerprint()) {
			t.Errorf("%s: plans from seeds 42 and 43 are identical", w.name)
		}
		if len(a.fingerprint()) < 1000 {
			t.Errorf("%s: fingerprint of %d bytes covers too little", w.name, len(a.fingerprint()))
		}
	}
}

func TestFaultCyclesFit(t *testing.T) {
	for _, seconds := range []float64{0.6, 20, 30} {
		p := planFailover(7, seconds)
		if len(p.faults) < 1 {
			t.Fatalf("%v s: no fault cycle", seconds)
		}
		dur := p.phases[0].dur
		for i, f := range p.faults {
			if !(f.start <= f.crashAt && f.crashAt < f.restartAt && f.restartAt < f.end && f.end <= dur) {
				t.Errorf("%v s: cycle %d out of order: %+v in %v", seconds, i, f, dur)
			}
			if f.end-f.start < faultCycle {
				t.Errorf("%v s: cycle %d lasts %v, shorter than %v", seconds, i, f.end-f.start, faultCycle)
			}
			if i > 0 && f.start != p.faults[i-1].end {
				t.Errorf("%v s: cycle %d does not follow cycle %d", seconds, i, i-1)
			}
		}
	}
	if n := len(planFailover(7, 30).faults); n != 10 {
		t.Errorf("30 s run has %d cycles, want 10", n)
	}
}

func TestLongestGap(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var s []sample
	// One completion every 10 ms, except that nothing completes
	// between 300 ms and 550 ms; requests due in the hole complete
	// right after it.
	for due := 0; due < 1000; due += 10 {
		done := due + 8
		if due >= 300 && due < 550 {
			done = 550 + (due-300)/25
		}
		s = append(s, sample{kind: opSubmit, due: msd(due), done: msd(done), ok: true})
	}
	s = append(s, sample{kind: opSubmit, due: msd(400), done: msd(420), ok: false}) // a failure is no service
	if got := longestGap(s, 0, msd(1000)); got != msd(550-298) {
		t.Errorf("longest gap = %v, want 252ms", got)
	}
	if got := longestGap(s, msd(600), msd(900)); got != msd(10) {
		t.Errorf("gap in a quiet window = %v, want 10ms", got)
	}
	// A window whose first completion is late is charged from its start.
	if got := longestGap(s, msd(300), msd(500)); got != msd(250) {
		t.Errorf("gap from the window start = %v, want 250ms", got)
	}
	if got := longestGap(nil, msd(100), msd(400)); got != msd(300) {
		t.Errorf("gap of an empty window = %v, want its length", got)
	}
}

func TestPhaseResultWindows(t *testing.T) {
	p := phaseResult{samples: []sample{
		{kind: opSubmit, due: 0, done: 4 * time.Millisecond, ok: true},
		{kind: opPair, due: 0, done: 8 * time.Millisecond, ok: true},
		{kind: opDelete, due: 0, done: 30 * time.Millisecond, ok: true},
		{kind: opStat, due: 0, done: 2 * time.Millisecond, ok: true},
		{kind: opStatAll, due: 0, done: 3 * time.Millisecond, ok: true},
		{kind: opSubmit, due: 0, done: 900 * time.Millisecond, ok: false},
	}}
	if w := p.latencies(isWrite); len(w) != 2 || p50(w) != 6 {
		t.Errorf("write latencies = %v, want [4 8]: a jdel and a failure are not write samples", w)
	}
	if r := p.latencies(isRead); len(r) != 2 || r[0] != 2 || r[1] != 3 {
		t.Errorf("read latencies = %v, want [2 3]", r)
	}
	if done := p.completed(); done != 5 {
		t.Errorf("completed = %d, want 5", done)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "joshua", Name: "driver", StartNs: 0, EndNs: 100, OK: true},
		{ID: 2, Parent: 1, Layer: "joshua", Name: "jsub", StartNs: 10, EndNs: 40, OK: true},
		{ID: 3, Parent: 1, Layer: "joshua", Name: "jsub", StartNs: 30, EndNs: 60, OK: true},  // overlaps span 2
		{ID: 4, Parent: 1, Layer: "joshua", Name: "jsub", StartNs: 90, EndNs: 120, OK: true}, // runs past its parent
		{ID: 5, Layer: "client", Name: "open", StartNs: 5},                                   // never closed
	}
	got := map[string]spanSummary{}
	for _, s := range summarise(spans) {
		got[s.name] = s
	}
	if d := got["driver"]; d.count != 1 || d.totalNs != 100 || d.selfNs != 100-50-10 {
		t.Errorf("driver = %+v, want total 100 and self 40 (children cover [10,60] and [90,100])", d)
	}
	if j := got["jsub"]; j.count != 3 || j.totalNs != 90 || j.selfNs != 90 || j.p50Ns != 30 {
		t.Errorf("jsub = %+v, want 3 spans of 30", j)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was summarised")
	}
}

// Every metric the program can print is declared once, under a name
// the contract's grammar allows, and BENCHMARK.json declares exactly
// the same workloads, names, units, directions and bounds.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the contract's grammar", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for w, alias := range focusAlias {
		if findWorkload(w) == nil {
			t.Errorf("focus alias for unknown workload %s", w)
		}
		if !seen["client."+alias] {
			t.Errorf("focus alias client.%s of %s is not a declared layer metric", alias, w)
		}
	}

	spec, err := report.LoadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i] != (report.Workload{Name: w.name, Why: w.why}) {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file []report.MetricSpec, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(table))
			return
		}
		for i := range table {
			if file[i] != table[i].MetricSpec {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], table[i].MetricSpec)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}
