// Command benchmark is the repository's one regression rig: four
// seeded workloads against an in-process three-head cluster over the
// simulated network, end-to-end metrics measured with tracing off, and
// a traced run that attributes them to layers. README.md explains the
// workloads, the metrics and how they are expected to interact;
// BENCHMARK.json at the repository root is the contract a driver reads.
//
//	go run ./benchmark [-workload all|submit|mixed|lifecycle|failover]
//	                   [-seed n] [-seconds s] [-trace 0|1] [-runs n] [-out dir]
//
// The paper-figure and ablation tools (cmd/jbench, internal/bench) are
// separate and stay as they are.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"joshua/benchmark/report"
)

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string
	// setups is how often set-up is repeated per run; setup_s is the
	// median, so that one slow boot does not read as a regression.
	setups int
}

func main() {
	cfg := config{setups: 3}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, submit, mixed, lifecycle or failover")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds each workload measures for; phases keep their shares of it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	flag.IntVar(&cfg.runs, "runs", 1, "repeat each workload this often and report median and quartiles")
	flag.StringVar(&cfg.out, "out", filepath.Join("benchmark", "out"), "directory for result.json, span files and temporary data")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 || cfg.runs < 1 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := realMain(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(cfg *config) error {
	var selected []*workload
	if cfg.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(cfg.workload); w != nil {
		selected = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if n := runtime.NumCPU(); n > envMaxProcs {
		runtime.GOMAXPROCS(envMaxProcs)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}

	res := report.Result{Env: envReport()}
	e := res.Env
	fmt.Printf("benchmark: go %s, GOMAXPROCS %d of %d CPUs, commit %s\n", e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Commit)
	fmt.Printf("environment: %d heads, 1 shard, %.0f ms one-way delay (no jitter, no loss), safe delivery, wal sync=%s, %d connections, %d closed-loop users\n",
		e.Heads, e.OneWayDelayMs, e.SyncPolicy, e.Connections, e.Users)
	fmt.Printf("seed %d, %.3g s per workload, %d run(s), tracing %v\n", cfg.seed, cfg.seconds, cfg.runs, cfg.trace)

	violations := 0
	for _, w := range selected {
		wr, err := runWorkload(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printWorkload(cfg, &wr)
		violations += len(wr.Violations)
		res.Workloads = append(res.Workloads, wr)
	}
	if err := writeJSON(filepath.Join(cfg.out, "result.json"), &res); err != nil {
		return err
	}

	// The driver's contract: the last line of standard output is one
	// JSON object describing the (last) workload that ran.
	last := res.Workloads[len(res.Workloads)-1]
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, map[string]lineMetric{}}
	for _, d := range contractSet(cfg.trace) {
		m := last.Metrics[d.Name]
		line.Metrics[d.Name] = lineMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload performs cfg.runs runs of one workload and folds them
// into one result: per metric the median, quartiles and each run's
// value — the form the compare tool reads for A/A checks and for
// parent-versus-change pairs alike.
func runWorkload(cfg *config, w *workload) (report.WorkloadResult, error) {
	wr := report.WorkloadResult{
		Name: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace,
		Correct: true, Metrics: map[string]report.Metric{},
	}
	values := map[string][]float64{}
	samples := map[string]int{}
	for n := 0; n < cfg.runs; n++ {
		one := runOnce
		if cfg.trace {
			one = runTraced
		}
		o, err := one(cfg, w)
		if err != nil {
			return wr, err
		}
		wr.Attempted += o.attempted
		wr.Failed += o.failed
		wr.Violations = append(wr.Violations, o.violations...)
		// The contract's set is always reported — a layer metric this
		// workload did not exercise reads 0 — and so is whatever else
		// the run measured along the way (client.* diagnostics).
		for _, d := range contractSet(cfg.trace) {
			if _, ok := o.metrics[d.Name]; !ok {
				o.metrics.set(d.Name, 0, 0)
			}
		}
		for name, m := range o.metrics {
			values[name] = append(values[name], m.Value)
			samples[name] = m.Samples
		}
	}
	wr.Correct = len(wr.Violations) == 0
	for name, v := range values {
		wr.Metrics[name] = report.Summarise(unitOf(name), samples[name], v)
	}
	return wr, nil
}

// contractSet is what the last line of output must carry: every
// end-to-end metric from an untraced run, every layer metric from a
// traced one.
func contractSet(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// outcome is what one run of one workload produced.
type outcome struct {
	metrics    metricSet
	attempted  int
	failed     int
	violations []string
}

// pass boots a system (setups times; the last one is kept), drives one
// plan through the workload's measure function, checks the invariants
// on what is left, and records the set-up time, the layer counts and
// the live heap. The system is closed when it returns.
func pass(cfg *config, w *workload, seconds float64, tr *tracer, setups int) (*run, error) {
	r := &run{w: w, cfg: cfg, plan: w.plan(cfg.seed, seconds), tr: tr, metrics: metricSet{}}
	var setupTimes, bootTimes []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := r.setUp(); err != nil {
			r.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		bootTimes = append(bootTimes, ms(r.sys.bootTime))
		if i < setups-1 {
			r.tearDown()
		}
	}
	defer r.tearDown()
	r.metrics.set("setup_s", report.Median(setupTimes), setups)
	r.metrics.set("cluster.boot_ms", report.Median(bootTimes), setups)
	// The discarded set-ups and the warm-up leave garbage; collect it
	// so every run starts measuring from the same heap state.
	runtime.GC()
	before := readCounters(r.sys, nil)
	t0 := time.Now()
	if err := w.measure(r); err != nil {
		return nil, err
	}
	r.measured = time.Since(t0)
	layerCounts(r, before, readCounters(r.sys, &r.departed))
	v, divergent, err := checkInvariants(r.sys, r.ledger, w.jobsRun, envHeads)
	if err != nil {
		return nil, err
	}
	r.violations = v
	r.metrics.set("pbs.snapshot_divergent_heads", float64(divergent), envHeads-1)
	r.metrics.set("client.failed_frac", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	r.metrics.set("client.violations", float64(len(v)), 0)
	r.metrics.set("heap_live_mb", liveHeapMB(), 0)
	return r, nil
}

// runOnce is the untraced run: the end-to-end metrics, plus whatever
// diagnostics the workload measured along the way.
func runOnce(cfg *config, w *workload) (*outcome, error) {
	r, err := pass(cfg, w, cfg.seconds, nil, cfg.setups)
	if err != nil {
		return nil, err
	}
	return &outcome{metrics: r.metrics, attempted: r.attempted, failed: r.failed, violations: r.violations}, nil
}

// tracedShare is the share of the measuring time each of the traced
// run's two passes takes; the layer drivers use what is left.
const tracedShare = 0.3

// runTraced is the traced run: the workload once without spans and
// once with them (their write_p50_ms differ by the tracing overhead),
// the layer counts of the traced pass, then every layer driver. Spans
// go to trace-<workload>.jsonl.
func runTraced(cfg *config, w *workload) (*outcome, error) {
	seconds := cfg.seconds * tracedShare
	plain, err := pass(cfg, w, seconds, nil, 1)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	r, err := pass(cfg, w, seconds, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	out := &outcome{
		metrics:    r.metrics,
		attempted:  plain.attempted + r.attempted,
		failed:     plain.failed + r.failed,
		violations: append(plain.violations, r.violations...),
	}
	wp := r.metrics["write_p50_ms"]
	r.metrics.set("client.trace_overhead_frac", ratio(wp.Value, plain.metrics["write_p50_ms"].Value)-1, wp.Samples)
	r.metrics.set("client.violations", float64(len(out.violations)), 0)
	if err := runDrivers(cfg, tr, r.metrics); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.out, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	printSpans(tr)
	return out, nil
}

func printWorkload(cfg *config, wr *report.WorkloadResult) {
	fmt.Printf("\n== %s (seed %d): %d attempted, %d failed, %d violations\n", wr.Name, wr.Seed, wr.Attempted, wr.Failed, len(wr.Violations))
	for i, v := range wr.Violations {
		if i >= 20 {
			fmt.Printf("   ... and %d more\n", len(wr.Violations)-i)
			break
		}
		fmt.Printf("   VIOLATION %s\n", v)
	}
	printed := map[string]bool{}
	row := func(d metricDef) {
		m, ok := wr.Metrics[d.Name]
		if !ok || printed[d.Name] {
			return
		}
		printed[d.Name] = true
		fmt.Printf("  %-34s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Printf(" n=%-7d", m.Samples)
		} else {
			fmt.Printf(" %-9s", "")
		}
		if len(m.Runs) > 1 {
			fmt.Printf(" q1=%.4f q3=%.4f over %d runs", m.Q1, m.Q3, len(m.Runs))
		}
		if d.Name == "focus_p50_ms" {
			fmt.Printf(" (= %s)", focusAlias[wr.Name])
		}
		if d.moves != "" {
			fmt.Printf(" -> %s", d.moves)
		}
		fmt.Println()
	}
	for _, d := range contractSet(cfg.trace) {
		row(d)
	}
	if !cfg.trace {
		fmt.Println("  diagnostics (not gated; the traced run has them all):")
		for _, d := range perLayer {
			row(d)
		}
	}
}

// printSpans prints the per-name roll-up of the recorded spans.
func printSpans(tr *tracer) {
	sums := summarise(tr.spans)
	fmt.Printf("\n  %-10s %-28s %8s %12s %12s %12s\n", "layer", "span", "count", "total ms", "self ms", "p50 us")
	for _, s := range sums {
		fmt.Printf("  %-10s %-28s %8d %12.2f %12.2f %12.1f\n", s.layer, s.name, s.count,
			float64(s.totalNs)/1e6, float64(s.selfNs)/1e6, float64(s.p50Ns)/1e3)
	}
}
