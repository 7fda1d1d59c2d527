package report

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.99, 9.91}, {1, 10}} {
		if got := Percentile(s, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// returns: the driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7}, 3, 10},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates past both ends, as Python does
		{[]float64{8.4, 8.5, 8.6, 8.7, 9.1}, 8.45, 8.9},
	} {
		q1, q3 := Quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1", got)
	}
	if got := Spread([]float64{5}); got != 0 {
		t.Errorf("Spread of one run = %v, want 0", got)
	}
}

func TestSummarise(t *testing.T) {
	m := Summarise("ms", 100, []float64{3, 1, 2})
	if m.Value != 2 || m.Q1 != 1 || m.Q3 != 3 || len(m.Runs) != 3 || m.Samples != 100 {
		t.Errorf("Summarise = %+v", m)
	}
	if one := Summarise("ms", 0, []float64{7}); one.Value != 7 || one.Runs != nil {
		t.Errorf("Summarise of one run = %+v", one)
	}
}

func validSpec() Spec {
	return Spec{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
		Workloads:  []Workload{{"a", "why a"}, {"b", "why b"}},
		EndToEnd:   []MetricSpec{{"setup_s", "s", "lower", 0.25}, {"lat_ms", "ms", "lower", 0.1}},
		PerLayer:   []MetricSpec{{"x.count", "count", "higher", 0}},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).Validate(); err == nil {
		t.Error("empty spec validated")
	}
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Spec){
		"duplicate name": func(s *Spec) { s.PerLayer[0].Name = "lat_ms" },
		"bad name":       func(s *Spec) { s.EndToEnd[1].Name = "lat ms" },
		"bad unit":       func(s *Spec) { s.EndToEnd[1].Unit = "milli seconds" },
		"bound too wide": func(s *Spec) { s.EndToEnd[1].Bound = 0.3 },
		"no bound":       func(s *Spec) { s.EndToEnd[1].Bound = 0 },
		"layer bound":    func(s *Spec) { s.PerLayer[0].Bound = 0.1 },
		"no setup_s":     func(s *Spec) { s.EndToEnd[0].Name = "boot_s" },
		"direction":      func(s *Spec) { s.EndToEnd[1].Better = "smaller" },
		"one workload":   func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"long why":       func(s *Spec) { s.Workloads[0].Why = string(make([]byte, 201)) },
		"run_seconds":    func(s *Spec) { s.RunSeconds = 61 },
	} {
		s := validSpec()
		breakIt(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec validated", name)
		}
	}
}

func TestSpecAndResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := validSpec()
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, s) {
		t.Errorf("spec round trip: got %+v, want %+v", *got, s)
	}

	r := Result{
		Env: Env{GoVersion: "go1.x", GOMAXPROCS: 2, Heads: 3, OneWayDelayMs: 1},
		Workloads: []WorkloadResult{{
			Name: "a", Seed: 7, Seconds: 20, Correct: true, Attempted: 10,
			Metrics: map[string]Metric{"lat_ms": Summarise("ms", 10, []float64{1, 2, 3})},
		}},
	}
	b, err = json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "result.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*back, r) {
		t.Errorf("result round trip: got %+v, want %+v", *back, r)
	}
}
