package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// This file measures the pipelined apply path (DESIGN.md §6.5): the
// engine overlapping one round's WAL fsync with execution and applying
// commands on distinct conflict keys in parallel. The workload is the
// generic kvstore service rather than the batch system because every
// qsub enters the scheduler and is therefore a global barrier; puts on
// distinct keys are the clean stand-in for the "mixed independent
// jobs" case (job-local holds, signals, status updates) where the
// conflict analysis actually buys parallelism. Store.SetApplyCost
// simulates per-command execution work the way pbs.Config.SubmitDelay
// does for submissions, so the apply stage — not the simulated
// network — dominates and the comparison isolates the apply pool.

// ApplyPipeVariant is one measured pipeline configuration.
type ApplyPipeVariant struct {
	// Name is "overlap" (fsync overlapped with serial execution, one
	// apply worker) or "parallel" (fsync overlap plus conflict-aware
	// parallel apply).
	Name string `json:"name"`
	// ApplyConcurrency is the rsm.Config knob the variant ran with.
	ApplyConcurrency int `json:"apply_concurrency"`
	// Elapsed is the wall time for the whole timed workload.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Throughput is completed puts per second.
	Throughput float64 `json:"throughput_ops_per_sec"`
	// SubmitP50 and SubmitP99 are client-observed per-put latency
	// percentiles.
	SubmitP50 time.Duration `json:"submit_p50_ns"`
	SubmitP99 time.Duration `json:"submit_p99_ns"`
	// ParallelRuns and Barriers are the engine's conflict-analysis
	// counters summed over both replicas.
	ParallelRuns uint64 `json:"apply_parallel_runs"`
	Barriers     uint64 `json:"apply_barriers"`
	// FsyncOverlap is the total execution time the engine hid behind
	// in-flight fsyncs, summed over both replicas.
	FsyncOverlap time.Duration `json:"fsync_overlap_ns"`
	// DurabilityLagMax is the worst case a finished round waited for
	// its fsync, maximized over both replicas.
	DurabilityLagMax time.Duration `json:"durability_lag_max_ns"`
}

// ApplyPipeResult is the full apply-pipeline ablation.
type ApplyPipeResult struct {
	Ops       int                `json:"ops"`
	Clients   int                `json:"clients"`
	ApplyCost time.Duration      `json:"apply_cost_ns"`
	Variants  []ApplyPipeVariant `json:"variants"`
	// SpeedupParallelVsOverlap is parallel throughput over the
	// one-worker (serial-apply) throughput.
	SpeedupParallelVsOverlap float64 `json:"speedup_parallel_vs_overlap"`
	// P99RatioParallelVsOverlap is parallel submit p99 over one-worker
	// submit p99 (≤1.0 means latency did not regress).
	P99RatioParallelVsOverlap float64 `json:"p99_ratio_parallel_vs_overlap"`
}

// applyPipeVariants are the measured configurations, in presentation
// order.
var applyPipeVariants = []struct {
	name string
	conc int
}{
	{"overlap", 1},
	{"parallel", 8},
}

// MeasureApplyPipeline runs the write-path ablation: ops total puts on
// distinct keys from the given number of concurrent clients, against a
// 2-replica group with SyncPolicy=always and the given simulated
// per-command apply cost, once per pipeline variant.
func MeasureApplyPipeline(ops, clients int, applyCost time.Duration) (ApplyPipeResult, error) {
	if clients <= 0 {
		clients = 8
	}
	if ops < clients {
		ops = clients
	}
	res := ApplyPipeResult{Ops: ops, Clients: clients, ApplyCost: applyCost}
	for _, v := range applyPipeVariants {
		variant, err := measureApplyPipeVariant(v.name, v.conc, ops, clients, applyCost)
		if err != nil {
			return res, fmt.Errorf("bench: applypipe %s: %w", v.name, err)
		}
		res.Variants = append(res.Variants, variant)
	}
	overlap, parallel := res.Variants[0], res.Variants[1]
	if overlap.Throughput > 0 {
		res.SpeedupParallelVsOverlap = parallel.Throughput / overlap.Throughput
	}
	if overlap.SubmitP99 > 0 {
		res.P99RatioParallelVsOverlap = float64(parallel.SubmitP99) / float64(overlap.SubmitP99)
	}
	return res, nil
}

// measureApplyPipeVariant boots a fresh durable 2-replica kvstore
// group and drives the timed workload through it.
func measureApplyPipeVariant(name string, conc, ops, clients int, applyCost time.Duration) (ApplyPipeVariant, error) {
	v := ApplyPipeVariant{Name: name, ApplyConcurrency: conc}

	dir, err := os.MkdirTemp("", "joshua-bench-applypipe-")
	if err != nil {
		return v, err
	}
	defer os.RemoveAll(dir)

	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()

	const heads = 2
	peers := map[gcs.MemberID]transport.Addr{}
	initial := make([]gcs.MemberID, heads)
	for i := 0; i < heads; i++ {
		id := gcs.MemberID(fmt.Sprintf("rep%d", i))
		peers[id] = transport.Addr(fmt.Sprintf("rep%d/gcs", i))
		initial[i] = id
	}

	reps := make([]*rsm.Replica, heads)
	stores := make([]*kvstore.Store, heads)
	headAddrs := make([]transport.Addr, heads)
	for i := 0; i < heads; i++ {
		groupEP, err := net.Endpoint(transport.Addr(fmt.Sprintf("rep%d/gcs", i)))
		if err != nil {
			return v, err
		}
		clientAddr := transport.Addr(fmt.Sprintf("rep%d/kv", i))
		clientEP, err := net.Endpoint(clientAddr)
		if err != nil {
			return v, err
		}
		headAddrs[i] = clientAddr
		store := kvstore.NewStore()
		store.SetApplyCost(applyCost)
		rep, err := rsm.Start(rsm.Config{
			Self:             initial[i],
			GroupEndpoint:    groupEP,
			ClientEndpoint:   clientEP,
			Peers:            peers,
			InitialMembers:   initial,
			Service:          store,
			Classify:         kvstore.Classifier(store),
			RejectNotPrimary: kvstore.RejectNotPrimary,
			DataDir:          filepath.Join(dir, fmt.Sprintf("rep%d", i)),
			SyncPolicy:       wal.SyncAlways,
			ApplyConcurrency: conc,
			TuneGCS: func(g *gcs.Config) {
				g.Heartbeat = 25 * time.Millisecond
				g.FailTimeout = 500 * time.Millisecond
			},
		})
		if err != nil {
			return v, err
		}
		defer rep.Close()
		reps[i] = rep
		stores[i] = store
	}
	for i := 0; i < heads; i++ {
		select {
		case <-reps[i].Ready():
		case <-time.After(30 * time.Second):
			return v, fmt.Errorf("replica %d not ready", i)
		}
	}

	// One client per worker goroutine, each putting its own key space:
	// every command is independent of every concurrent command, the
	// regime the conflict analysis targets.
	kvs := make([]*kvstore.Client, clients)
	for c := 0; c < clients; c++ {
		ep, err := net.Endpoint(transport.Addr(fmt.Sprintf("user%d/kv", c)))
		if err != nil {
			return v, err
		}
		cli, err := kvstore.NewClient(ep, headAddrs, 10*time.Second)
		if err != nil {
			return v, err
		}
		defer cli.Close()
		kvs[c] = cli
	}

	perClient := ops / clients
	run := func(warmup bool) error {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		lats := make([][]time.Duration, clients)
		n := perClient
		if warmup {
			n = 2
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("c%02d-k%03d", c, i)
					if warmup {
						key = fmt.Sprintf("warm-c%02d-%d", c, i)
					}
					start := time.Now()
					if err := kvs[c].Put(key, "v"); err != nil {
						errs[c] = err
						return
					}
					lats[c] = append(lats[c], time.Since(start))
				}
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if !warmup {
			var all []time.Duration
			for _, l := range lats {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			v.SubmitP50 = percentileDur(all, 0.50)
			v.SubmitP99 = percentileDur(all, 0.99)
		}
		return nil
	}

	if err := run(true); err != nil {
		return v, err
	}
	start := time.Now()
	if err := run(false); err != nil {
		return v, err
	}
	v.Elapsed = time.Since(start)
	if v.Elapsed > 0 {
		v.Throughput = float64(clients*perClient) / v.Elapsed.Seconds()
	}
	for i := 0; i < heads; i++ {
		st := reps[i].Stats()
		v.ParallelRuns += st.ApplyParallelRuns
		v.Barriers += st.ApplyBarriers
		v.FsyncOverlap += time.Duration(st.FsyncOverlapNs)
		if lag := time.Duration(st.DurabilityLagMax); lag > v.DurabilityLagMax {
			v.DurabilityLagMax = lag
		}
	}
	return v, nil
}

// percentileDur returns the p-quantile of a sorted sample by
// nearest-rank.
func percentileDur(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
