// Package report holds what the benchmark program and the compare
// tool share: the BENCHMARK.json schema, the result-file schema, and
// the order statistics both are summarised with. It imports nothing
// from the system under test, so compare builds and runs against any
// commit's result files.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

// Workload is one entry of BENCHMARK.json's workloads list.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is the share of the parent's median by which the metric
// may worsen before a change counts as a regression; layer metrics
// carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []Workload   `json:"workloads"`
	EndToEnd   []MetricSpec `json:"end_to_end"`
	PerLayer   []MetricSpec `json:"per_layer"`
}

// LoadSpec reads and validates a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Validate checks the limits the benchmark contract puts on the file.
func (s *Spec) Validate() error {
	if len(s.Command) == 0 || len(s.Command) > 32 {
		return fmt.Errorf("command: want 1..32 strings, have %d", len(s.Command))
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		return fmt.Errorf("paths: want 1..16, have %d", len(s.Paths))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds: want 1..60, have %d", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("workloads: want 2..8, have %d", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("end_to_end: want 1..16, have %d", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("per_layer: want 1..128, have %d", n)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]MetricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", m.Name)
		}
		if e2e := i < len(s.EndToEnd); e2e && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		} else if !e2e && m.Bound != 0 {
			return fmt.Errorf("layer metric %s carries a bound", m.Name)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && i < len(s.EndToEnd) {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, better lower)")
	}
	return nil
}

// Metric is one measured value in a result file. Value is the median
// over Runs (the value itself when there was one run); Q1 and Q3 are
// the quartiles statistics.quantiles(n=4) would give, present from
// two runs up. Samples is how many observations stand behind each
// run's value (latency samples, completed operations), 0 when that
// has no meaning.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples int       `json:"samples,omitempty"`
	Runs    []float64 `json:"runs,omitempty"`
}

// WorkloadResult is everything one workload produced.
type WorkloadResult struct {
	Name       string            `json:"name"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
}

// Env is the fixed environment every result states.
type Env struct {
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Commit        string  `json:"commit"`
	Heads         int     `json:"heads"`
	Shards        int     `json:"shards"`
	OneWayDelayMs float64 `json:"one_way_delay_ms"`
	SafeDelivery  bool    `json:"safe_delivery"`
	SyncPolicy    string  `json:"sync_policy"`
	KeepCompleted int     `json:"keep_completed"`
	MomTimeScale  float64 `json:"mom_time_scale"`
	Connections   int     `json:"connections"`
	Users         int     `json:"closed_loop_users"`
}

// Result is benchmark/out/result.json.
type Result struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadResult `json:"workloads"`
}

// LoadResult reads a result file.
func LoadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// Median sorts a copy of v and returns its median.
func Median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return Percentile(s, 0.5)
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// so a spread computed here is the one the driver computes. It needs
// two values; with fewer it returns the value itself twice.
func Quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(3)
}

// Spread is the interquartile distance as a share of the median — the
// run-to-run noise measure the bounds are calibrated against.
func Spread(v []float64) float64 {
	m := Median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// Summarise folds one value per run into a Metric.
func Summarise(unit string, samples int, runs []float64) Metric {
	m := Metric{Unit: unit, Samples: samples, Value: Median(runs)}
	if len(runs) > 1 {
		m.Q1, m.Q3 = Quartiles(runs)
		m.Runs = append([]float64(nil), runs...)
	}
	return m
}
