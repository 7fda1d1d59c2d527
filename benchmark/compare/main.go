// Command compare sets two benchmark result files side by side and
// judges every end-to-end metric on every workload against the bounds
// in BENCHMARK.json: the same code serves the A/A check (two sets of
// runs of one commit) and a parent-versus-change pair.
//
//	go run ./benchmark/compare [-spec BENCHMARK.json] [-layers] a.json b.json
//
// a is the base of every ratio. A row reads ok when b is no worse
// than a by more than the metric's bound, worse when it is, and
// unresolved when either side's run-to-run spread (interquartile
// distance over median, from -runs) is wider than the bound, so the
// two medians cannot be told apart at that bound. The exit code is 1
// if any row is worse, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"joshua/benchmark/report"
)

func main() {
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark contract holding the bounds")
	layers := flag.Bool("layers", false, "also list every other metric both files hold, without a verdict")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] [-layers] a.json b.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	worse, err := compare(*spec, flag.Arg(0), flag.Arg(1), *layers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	if worse > 0 {
		fmt.Printf("%d row(s) worse\n", worse)
		os.Exit(1)
	}
}

// verdict judges b against the base a for one metric.
func verdict(m report.MetricSpec, a, b report.Metric) string {
	if m.Bound == 0 {
		return "-"
	}
	if math.Max(report.Spread(a.Runs), report.Spread(b.Runs)) > m.Bound {
		return "unresolved"
	}
	if a.Value == 0 {
		return "-"
	}
	worsening := (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worsening = -worsening
	}
	if worsening > m.Bound {
		return "worse"
	}
	return "ok"
}

func compare(specPath, aPath, bPath string, layers bool) (worse int, err error) {
	spec, err := report.LoadSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := report.LoadResult(aPath)
	if err != nil {
		return 0, err
	}
	b, err := report.LoadResult(bPath)
	if err != nil {
		return 0, err
	}
	bw := map[string]report.WorkloadResult{}
	for _, w := range b.Workloads {
		bw[w.Name] = w
	}
	fmt.Printf("base a = %s (commit %s), b = %s (commit %s)\n", aPath, a.Env.Commit, bPath, b.Env.Commit)
	fmt.Printf("%-10s %-28s %14s %14s %-6s %18s %7s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "unit", "b/a (base a)", "bound", "spread a", "spread b", "verdict")
	metrics := spec.EndToEnd
	if layers {
		metrics = append(append([]report.MetricSpec(nil), metrics...), spec.PerLayer...)
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Printf("%-10s correctness: a %v, b %v\n", wa.Name, wa.Correct, wb.Correct)
		}
		for _, m := range metrics {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, ma, mb)
			if v == "worse" {
				worse++
			}
			r := "-"
			if ma.Value != 0 {
				r = fmt.Sprintf("%.4f of %.4g", mb.Value/ma.Value, ma.Value)
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Printf("%-10s %-28s %14.4f %14.4f %-6s %18s %7s %7.1f%% %7.1f%%  %s\n",
				wa.Name, m.Name, ma.Value, mb.Value, m.Unit, r, bound,
				100*report.Spread(ma.Runs), 100*report.Spread(mb.Runs), v)
		}
	}
	return worse, nil
}
