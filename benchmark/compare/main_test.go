package main

import (
	"testing"

	"joshua/benchmark/report"
)

func TestVerdict(t *testing.T) {
	lower := report.MetricSpec{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := report.MetricSpec{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) report.Metric {
		return report.Summarise("ms", 0, []float64{v * 0.99, v, v * 1.01})
	}
	wide := func(v float64) report.Metric {
		return report.Summarise("ms", 0, []float64{v * 0.8, v, v * 1.2})
	}
	for _, c := range []struct {
		name string
		m    report.MetricSpec
		a, b report.Metric
		want string
	}{
		{"same", lower, tight(10), tight(10), "ok"},
		{"better", lower, tight(10), tight(8), "ok"},
		{"inside the bound", lower, tight(10), tight(10.9), "ok"},
		{"past the bound", lower, tight(10), tight(11.2), "worse"},
		{"higher is better: dropped", higher, tight(1000), tight(880), "worse"},
		{"higher is better: rose", higher, tight(1000), tight(1300), "ok"},
		{"spread hides the difference", lower, wide(10), tight(12), "unresolved"},
		{"single runs have no spread", lower, report.Summarise("ms", 0, []float64{10}), report.Summarise("ms", 0, []float64{12}), "worse"},
		{"layer metric", report.MetricSpec{Name: "x", Unit: "ms", Better: "lower"}, tight(10), tight(20), "-"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
