// Package joshua_bench regenerates every table and figure of the
// paper's evaluation as Go benchmarks:
//
//	BenchmarkFig10_*  — job submission latency, Figure 10 (one op per
//	                    iteration; compare ns/op across systems)
//	BenchmarkFig11_*  — job submission throughput, Figure 11 (one
//	                    full 100-job burst per iteration)
//	BenchmarkFig12_*  — availability analysis, Figure 12
//	BenchmarkAblation_* — design-choice ablations from DESIGN.md
//	BenchmarkMicro_*  — component micro-benchmarks
//
// The simulated latency model runs at benchScale of the paper-scale
// constants so a full -bench=. pass stays fast; cmd/jbench prints the
// tables at any scale, including 1.0. Shapes, not absolute times, are
// the reproduction target (see EXPERIMENTS.md).
package joshua_bench

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/availability"
	"joshua/internal/bench"
	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/pbs"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// benchScale keeps the full benchmark suite quick while preserving the
// latency model's proportions.
const benchScale = 0.05

// latencySystem builds one Figure 10 configuration and hands the
// per-iteration submission to the benchmark loop.
func latencySystem(b *testing.B, heads int, plain bool) *bench.System {
	b.Helper()
	sys, err := bench.StartSystem(bench.PaperCalibration(benchScale), heads, plain)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	// Warm up the path (connection setup, first scheduling pass).
	if _, err := bench.MeasureLatency(sys.Client, 1); err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchSubmit(b *testing.B, sys *bench.System) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Client.Submit(pbs.SubmitRequest{Name: "bench", Owner: "bench", Hold: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: job submission latency ---

func BenchmarkFig10_TORQUE(b *testing.B) {
	benchSubmit(b, latencySystem(b, 1, true))
}

func BenchmarkFig10_JOSHUA_1head(b *testing.B) {
	benchSubmit(b, latencySystem(b, 1, false))
}

func BenchmarkFig10_JOSHUA_2heads(b *testing.B) {
	benchSubmit(b, latencySystem(b, 2, false))
}

func BenchmarkFig10_JOSHUA_3heads(b *testing.B) {
	benchSubmit(b, latencySystem(b, 3, false))
}

func BenchmarkFig10_JOSHUA_4heads(b *testing.B) {
	benchSubmit(b, latencySystem(b, 4, false))
}

// --- Figure 11: job submission throughput (100-job burst) ---

func benchBurst(b *testing.B, heads int, plain bool, jobs int) {
	sys := latencySystem(b, heads, plain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.MeasureThroughput(sys.Client, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_TORQUE_100jobs(b *testing.B) {
	benchBurst(b, 1, true, 100)
}

func BenchmarkFig11_JOSHUA_1head_100jobs(b *testing.B) {
	benchBurst(b, 1, false, 100)
}

func BenchmarkFig11_JOSHUA_2heads_100jobs(b *testing.B) {
	benchBurst(b, 2, false, 100)
}

func BenchmarkFig11_JOSHUA_3heads_100jobs(b *testing.B) {
	benchBurst(b, 3, false, 100)
}

func BenchmarkFig11_JOSHUA_4heads_100jobs(b *testing.B) {
	benchBurst(b, 4, false, 100)
}

// --- Figure 12: availability analysis ---

func BenchmarkFig12_Analytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := availability.Table(availability.PaperMTTF, availability.PaperMTTR, 4)
		if len(rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig12_MonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := availability.Simulate(availability.SimConfig{
			Heads: 2,
			MTTF:  availability.PaperMTTF,
			MTTR:  availability.PaperMTTR,
			Years: 100,
			Seed:  int64(i + 1),
		})
		if res.Availability <= 0 {
			b.Fatal("bad simulation")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

func BenchmarkAblation_AgreedDelivery_2heads(b *testing.B) {
	cal := bench.PaperCalibration(benchScale)
	cal.Agreed = true
	sys, err := bench.StartSystem(cal, 2, false)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	benchSubmit(b, sys)
}

func BenchmarkAblation_SafeDelivery_2heads(b *testing.B) {
	benchSubmit(b, latencySystem(b, 2, false)) // safe is the calibrated default
}

func BenchmarkAblation_BatchSubmit100_2heads(b *testing.B) {
	sys := latencySystem(b, 2, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.MeasureBatchThroughput(sys.Client, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_NoBatching_2heads is the Transis-faithful
// one-datagram-per-message counterpart of
// BenchmarkMicro_GCSBroadcastThroughput: MaxBatch=1 and immediate
// per-message acks. Compare ops/s between the two to see the batching
// win (EXPERIMENTS.md records the ratio).
func BenchmarkAblation_NoBatching_2heads(b *testing.B) {
	benchGCSBroadcast(b, false)
}

func BenchmarkAblation_OrderedRead_2heads(b *testing.B) {
	sys := latencySystem(b, 2, false)
	j, err := sys.Client.Submit(pbs.SubmitRequest{Name: "probe", Hold: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Client.Stat(j.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_LocalRead_2heads(b *testing.B) {
	sys := latencySystem(b, 2, false)
	j, err := sys.Client.Submit(pbs.SubmitRequest{Name: "probe", Hold: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Client.StatLocal(j.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks (no simulated latency) ---

func BenchmarkMicro_CodecEncodeDecode(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := codec.GetEncoder(512)
		e.PutUint(uint64(i))
		e.PutString("1.cluster")
		e.PutBytes(payload)
		d := codec.NewDecoder(e.Bytes())
		_ = d.Uint()
		_ = d.String()
		_ = d.Bytes()
		if d.Finish() != nil {
			b.Fatal("roundtrip failed")
		}
		e.Release()
	}
}

// benchGCSBroadcast measures raw total-order broadcast throughput of a
// two-member group on a zero-latency in-memory network, driven from
// the non-sequencer member so every message crosses the full
// REQ→sequencer→DATA path (batched: REQBATCH→BATCH). Safe delivery is
// on, so the ack path is measured too.
func benchGCSBroadcast(b *testing.B, batching bool) {
	b.Helper()
	net := simnet.New(simnet.Config{})
	defer net.Close()

	ids := []gcs.MemberID{"m0", "m1"}
	peers := map[gcs.MemberID]transport.Addr{
		"m0": "host0/gcs",
		"m1": "host1/gcs",
	}
	var delivered atomic.Uint64
	procs := make([]*gcs.Process, len(ids))
	for i, id := range ids {
		ep, err := net.Endpoint(peers[id])
		if err != nil {
			b.Fatal(err)
		}
		cfg := gcs.Config{
			Self:           id,
			Endpoint:       ep,
			Peers:          peers,
			InitialMembers: ids,
			SafeDelivery:   true,
			Heartbeat:      10 * time.Millisecond,
			FailTimeout:    300 * time.Millisecond,
			ResendInterval: 100 * time.Millisecond,
			FlushTimeout:   500 * time.Millisecond,
		}
		if !batching {
			cfg.MaxBatch = 1  // one datagram per message
			cfg.AckDelay = -1 // one ack per delivery
		}
		p, err := gcs.Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(p.Close)
		procs[i] = p
		count := i == 1
		go func(p *gcs.Process, count bool) {
			for e := range p.Events() {
				if _, ok := e.(gcs.DeliverEvent); ok && count {
					delivered.Add(1)
				}
			}
		}(p, count)
	}
	sender := procs[1] // m0 is the sequencer; m1 drives the group
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := sender.View()
		if len(v.Members) == 2 && v.Primary {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("two-member view never formed")
		}
		time.Sleep(time.Millisecond)
	}

	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Broadcast(payload); err != nil {
			b.Fatal(err)
		}
	}
	// Throughput includes the drain: every broadcast safely delivered
	// back at the sender.
	deadline = time.Now().Add(60 * time.Second)
	for delivered.Load() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d broadcasts", delivered.Load(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	st := procs[0].Stats()
	b.ReportMetric(float64(st.BatchesSent), "batches")
	b.ReportMetric(float64(st.MsgsPerBatchMax), "max-batch")
}

func BenchmarkMicro_GCSBroadcastThroughput(b *testing.B) {
	benchGCSBroadcast(b, true)
}

func BenchmarkMicro_TCPNetSend(b *testing.B) {
	res := tcpnet.StaticResolver{}
	src, err := tcpnet.Listen("bench/src", "127.0.0.1:0", res)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := tcpnet.Listen("bench/dst", "127.0.0.1:0", res)
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	res["bench/src"] = src.TCPAddr()
	res["bench/dst"] = dst.TCPAddr()

	var received atomic.Uint64
	go func() {
		for range dst.Recv() {
			received.Add(1)
		}
	}()

	// Keep at most half the send queue in flight so the drop-oldest
	// backpressure never engages and every send is delivered.
	const window = 512
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for uint64(i)-received.Load() >= window {
			time.Sleep(20 * time.Microsecond)
		}
		if err := src.Send("bench/dst", payload); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for received.Load() < uint64(b.N) {
		if time.Now().After(deadline) {
			b.Fatalf("received %d of %d sends", received.Load(), b.N)
		}
		time.Sleep(20 * time.Microsecond)
	}
	b.StopTimer()
	if drops := src.Stats().QueueDrops; drops != 0 {
		b.Fatalf("windowed sender should not drop (drops=%d)", drops)
	}
}

func BenchmarkMicro_PBSSubmit(b *testing.B) {
	srv := pbs.NewServer(pbs.Config{
		ServerName:    "bench",
		Nodes:         []string{"n0"},
		Exclusive:     true,
		KeepCompleted: 16,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Submit(pbs.SubmitRequest{Name: "j", Hold: true}); err != nil {
			b.Fatal(err)
		}
		srv.TakeActions()
	}
}

func BenchmarkMicro_PBSSnapshot(b *testing.B) {
	srv := pbs.NewServer(pbs.Config{ServerName: "bench", Nodes: []string{"n0"}})
	for i := 0; i < 200; i++ {
		srv.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("j%d", i), Hold: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(srv.Snapshot()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkMicro_AvailabilityNines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := availability.ServiceAvailability(0.9858, 1+i%4)
		if availability.Nines(a) < 1 {
			b.Fatal("bad nines")
		}
	}
}

// Guard: keep the paper's reference values wired into the suite so a
// drive-by edit of the constants is caught.
func TestPaperReferenceValues(t *testing.T) {
	if bench.PaperFig10[0] != 98*time.Millisecond || bench.PaperFig10[4] != 349*time.Millisecond {
		t.Error("Figure 10 reference values changed")
	}
	if bench.PaperFig11[4][100] != 33320*time.Millisecond {
		t.Error("Figure 11 reference values changed")
	}
}

// --- Failure handling ---

// BenchmarkFailover_SequencerStall measures the worst-case command
// stall when the sequencer head fails: failure detection + flush + the
// client's retransmission. One full crash-and-recover cycle per
// iteration. Contrast: the paper's related work reports 3-5 s
// active/standby failovers with restarted applications; here only
// ordering pauses and no state is lost.
func BenchmarkFailover_SequencerStall(b *testing.B) {
	cal := bench.PaperCalibration(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stall, _, err := bench.MeasureSequencerFailoverStall(cal)
		if err != nil {
			b.Fatal(err)
		}
		_ = stall
	}
}

func BenchmarkMicro_GCSViewFormation(b *testing.B) {
	// Time to stand a 3-head group up to its first view on an instant
	// network.
	for i := 0; i < b.N; i++ {
		sys, err := bench.StartSystem(bench.Calibration{Scale: 0.001, Heartbeat: 5 * time.Millisecond}, 3, false)
		if err != nil {
			b.Fatal(err)
		}
		sys.Close()
	}
}
