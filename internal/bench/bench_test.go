package bench

import (
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/pbs"
)

// tiny returns a very small calibration so tests run quickly.
func tiny() Calibration { return PaperCalibration(0.02) }

func TestPaperCalibrationDefaults(t *testing.T) {
	cal := PaperCalibration(0) // 0 selects scale 1.0
	if cal.Scale != 1.0 {
		t.Errorf("scale = %v", cal.Scale)
	}
	if cal.Latency.Remote != 25*time.Millisecond || cal.SubmitDelay != 48*time.Millisecond {
		t.Errorf("calibration constants changed unexpectedly: %+v", cal)
	}
	half := PaperCalibration(0.5)
	if half.Latency.Remote != cal.Latency.Remote/2 {
		t.Errorf("scaling broken: %v", half.Latency.Remote)
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	rows, err := Fig10(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, one, two := rows[0].Latency, rows[1].Latency, rows[2].Latency
	if !(base < one && one < two) {
		t.Errorf("latency shape violated: base=%v 1head=%v 2heads=%v", base, one, two)
	}
	if rows[1].Percent <= 0 {
		t.Errorf("single-head overhead = %.0f%%, want > 0", rows[1].Percent)
	}
	out := FormatFig10(rows, tiny())
	for _, want := range []string{"TORQUE", "JOSHUA/TORQUE 1", "JOSHUA/TORQUE 2", "Paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig10 table missing %q:\n%s", want, out)
		}
	}
}

func TestFig11ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	counts := []int{5, 10}
	rows, err := Fig11(tiny(), 2, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Totals[10] <= r.Totals[5] {
			t.Errorf("%s: 10 jobs (%v) should take longer than 5 (%v)", r.System, r.Totals[10], r.Totals[5])
		}
	}
	// Orderings between configurations are performance, which
	// benchmark/compare owns; logged, not asserted.
	t.Logf("10 jobs: 2 heads %v, baseline %v", rows[2].Totals[10], rows[0].Totals[10])
	out := FormatFig11(rows, tiny(), counts)
	if !strings.Contains(out, "5 Jobs") || !strings.Contains(out, "10 Jobs") {
		t.Errorf("Fig11 table malformed:\n%s", out)
	}
}

func TestFig12Table(t *testing.T) {
	out := Fig12(4, 200)
	for _, want := range []string{"98.6%", "99.98%", "99.9997%", "99.999996%", "Monte-Carlo"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig12 missing %q:\n%s", want, out)
		}
	}
}

func TestAblationSafeDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	res, err := AblationSafeDelivery(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	safe, agreed := res.Variants["safe"], res.Variants["agreed"]
	if safe == 0 || agreed == 0 {
		t.Fatalf("missing variants: %+v", res.Variants)
	}
	// At two heads the non-sequencer delivers on DATA receipt under
	// either guarantee, so the ordering is not even expected to hold.
	t.Logf("safe %v, agreed %v", safe, agreed)
}

func TestAblationBatchSubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	res, err := AblationBatchSubmission(tiny(), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batched %v, sequential %v", res.Variants["batched"], res.Variants["sequential"])
}

func TestAblationReads(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement")
	}
	res, err := AblationReads(tiny(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("local %v, ordered %v", res.Variants["local"], res.Variants["ordered"])
}

func TestAblationExclusiveScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("workload measurement")
	}
	res, err := AblationExclusiveScheduling(tiny(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variants["packed"] >= res.Variants["exclusive"] {
		t.Errorf("packing (%v) should finish the workload before exclusive (%v)",
			res.Variants["packed"], res.Variants["exclusive"])
	}
}

func TestAblationOrderedCompletions(t *testing.T) {
	if testing.Short() {
		t.Skip("workload measurement")
	}
	res, err := AblationOrderedCompletions(tiny(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variants["direct"] == 0 || res.Variants["ordered"] == 0 {
		t.Fatalf("variants: %+v", res.Variants)
	}
	// Ordering completions costs extra rounds on the critical path.
	if res.Variants["ordered"] < res.Variants["direct"] {
		t.Logf("note: ordered (%v) measured faster than direct (%v); timing noise at tiny scale",
			res.Variants["ordered"], res.Variants["direct"])
	}
}

func TestMixedReadConcurrencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-workload measurement")
	}
	res, err := MeasureMixedReads(tiny(), 2, 4, 6, 25)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f reads/s, read mean %v, batch mean %v", res.ReadsPerSec, res.ReadMean, res.SubmitMean)
	// Pollers are served while the batched submit stream occupies the
	// event loop; how fast is benchmark/compare's business, not a test's.
	if res.Reads == 0 || res.SubmitMean == 0 {
		t.Errorf("no reads served beside the submit stream: %+v", res)
	}
}

// BenchmarkMixedReadsConcurrent reports per-listing latency with a batched
// submit stream occupying the replication loop in the background.
func BenchmarkMixedReadsConcurrent(b *testing.B) {
	c, err := clusterNew(tiny().options(2, false))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(30 * time.Second); err != nil {
		b.Fatal(err)
	}
	submitCli, err := c.ClientFor(1)
	if err != nil {
		b.Fatal(err)
	}
	if err := holdSubmit(submitCli); err != nil {
		b.Fatal(err)
	}

	// ClientFor is not safe for concurrent use; hand a client to each
	// RunParallel goroutine under a lock.
	var mu sync.Mutex
	newClient := func() *joshua.Client {
		mu.Lock()
		defer mu.Unlock()
		cli, err := c.ClientFor(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		return cli
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := submitCli.SubmitBatch(pbs.SubmitRequest{Name: "bench", Owner: "bench", Hold: true}, 25); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cli := newClient()
		for pb.Next() {
			if _, err := cli.StatAll(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

func TestSequencerFailoverStall(t *testing.T) {
	if testing.Short() {
		t.Skip("failure-detection measurement")
	}
	cal := tiny()
	stall, normal, err := MeasureSequencerFailoverStall(cal)
	if err != nil {
		t.Fatal(err)
	}
	if stall <= normal {
		t.Errorf("stall (%v) should exceed normal latency (%v)", stall, normal)
	}
	// The stall is bounded by detection + flush + client retry, far
	// under an active/standby failover; with tiny timings it must be
	// well under 5 seconds.
	if stall > 5*time.Second {
		t.Errorf("stall = %v, want bounded by detection+flush", stall)
	}
}
