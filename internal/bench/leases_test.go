package bench

import (
	"testing"
	"time"
)

func TestMeasureLeasesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("read-throughput measurement")
	}
	res, err := MeasureLeases(tiny(), 4, 8, 5, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("variants = %d", len(res.Variants))
	}
	local, leased, broadcast := res.Variants[0], res.Variants[1], res.Variants[2]
	t.Logf("local: %.0f reads/s   leased: %.0f reads/s (%d leased, %d fallbacks)   broadcast: %.0f reads/s",
		local.ReadsPerSec, leased.ReadsPerSec, leased.LeaseReads, leased.LeaseFallbacks, broadcast.ReadsPerSec)

	// The leased phase must actually exercise the lease path, and the
	// unordered phase must not touch it.
	if leased.LeaseReads == 0 {
		t.Error("leased phase served no reads from a lease")
	}
	if local.LeaseReads != 0 {
		t.Errorf("unordered phase counted %d leased reads", local.LeaseReads)
	}
	// Acceptance shape: leased linearizable reads within 2x of the
	// local unordered ceiling, and well clear of the broadcast-ordered
	// ablation. That path lost its safe-watermark hop (the ratio at
	// this scale fell from ~7.7 to ~4.9 because the denominator got
	// faster), so the floor is 3x, not the original 5x.
	if res.LeasedVsLocal < 0.5 {
		t.Errorf("leased/local = %.2f, want >= 0.5", res.LeasedVsLocal)
	}
	if res.LeasedVsBroadcast < 3 {
		t.Errorf("leased/broadcast = %.2f, want >= 3", res.LeasedVsBroadcast)
	}
}
