package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joshua/benchmark/report"
)

// sample is one completed (or failed) operation, as offsets from the
// start of its phase.
type sample struct {
	kind opKind
	// due is when the request was to be sent (open loop) or was sent
	// (closed loop); done is when its reply arrived.
	due, done time.Duration
	ok        bool
}

func (s sample) latency() time.Duration { return s.done - s.due }

// phaseResult is what one phase of load observed.
type phaseResult struct {
	name    string
	samples []sample
	// genLate is the furthest the open-loop generator fell behind its
	// schedule when sending.
	genLate time.Duration
}

// executor performs one operation against the system and reports the
// samples it produced (a pair produces two). at returns the current
// offset from the phase start.
type executor func(o op, at func() time.Duration, emit func(sample))

// recorder collects samples from concurrent workers.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) emit(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// runOpen sends each scheduled operation at its due time regardless of
// how the earlier ones fare — independent users — and waits for all of
// them. A stalled system therefore keeps receiving load, and the wait
// it imposes on later requests is counted because every latency is
// taken from the due time. Offsets count from start.
func runOpen(ph *phase, start time.Time, exec executor) phaseResult {
	rec := &recorder{samples: make([]sample, 0, len(ph.open)+len(ph.open)/8)}
	var wg sync.WaitGroup
	var late time.Duration
	at := func() time.Duration { return time.Since(start) }
	for i := range ph.open {
		o := ph.open[i]
		if wait := o.due - at(); wait > 0 {
			time.Sleep(wait)
		}
		if l := at() - o.due; l > late {
			late = l
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec(o, at, rec.emit)
		}()
	}
	wg.Wait()
	return phaseResult{name: ph.name, samples: rec.samples, genLate: late}
}

// runClosed has envUsers logical users work through the phase's
// slots: each sends its next request only when its previous one has
// completed, so a slower system receives less load. The phase ends
// with the reply to the last slot.
func runClosed(ph *phase, preload int, exec executor) phaseResult {
	rec := &recorder{samples: make([]sample, 0, ph.count+ph.count/8)}
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	at := func() time.Duration { return time.Since(start) }
	for u := 0; u < envUsers; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			g := ph.userGenerator(u, preload)
			for next.Add(1) <= int64(ph.count) {
				o := g.next(u)
				o.due = at()
				exec(o, at, rec.emit)
			}
		}(u)
	}
	wg.Wait()
	return phaseResult{name: ph.name, samples: rec.samples}
}

// latencies returns the sorted latencies, in milliseconds, of the
// successful samples keep selects. A failed operation has no latency:
// it is reported through failed/attempted instead.
func (p *phaseResult) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.ok && keep(s) {
			out = append(out, ms(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

func isWrite(s sample) bool { return !s.kind.read() && s.kind != opDelete }
func isRead(s sample) bool  { return s.kind.read() }

// completed is the number of successful operations.
func (p *phaseResult) completed() int {
	n := 0
	for _, s := range p.samples {
		if s.ok {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50 is the median of sorted values.
func p50(sorted []float64) float64 { return report.Percentile(sorted, 0.50) }

// p99 is the 99th percentile of sorted values. It is reported only as
// a client.* diagnostic: on a shared sandbox it does not repeat well
// enough to gate on.
func p99(sorted []float64) float64 { return report.Percentile(sorted, 0.99) }

// longestGap returns the longest interval between consecutive
// successful completions among the samples due inside [from, to) —
// the time without service a fault inside that window caused. The
// window's own start counts as a completion, so a window whose first
// reply is late is charged for the wait.
func longestGap(samples []sample, from, to time.Duration) time.Duration {
	var done []time.Duration
	for _, s := range samples {
		if s.ok && s.due >= from && s.due < to {
			done = append(done, s.done)
		}
	}
	if len(done) == 0 {
		return to - from
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	gap := done[0] - from
	for i := 1; i < len(done); i++ {
		if g := done[i] - done[i-1]; g > gap {
			gap = g
		}
	}
	return gap
}
