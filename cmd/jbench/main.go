// Command jbench regenerates every table and figure of the paper's
// evaluation on the simulated cluster:
//
//	jbench -fig 10             # Figure 10: job submission latency
//	jbench -fig 11             # Figure 11: job submission throughput
//	jbench -fig 12             # Figure 12: availability/downtime
//	jbench -fig ablations      # DESIGN.md design-choice ablations
//	jbench -fig readpath       # concurrent query serving beside a submit stream
//	jbench -fig wal            # WAL fsync-policy ablation vs in-memory
//	jbench -fig applypipe      # pipelined apply-path ablation
//	jbench -fig shards         # sharded replication groups scaling sweep
//	jbench -fig leases         # read consistency levels: local/leased/broadcast
//	jbench -fig writepath      # 10k-client zero-alloc write-path profile
//	jbench -fig sched          # scheduling policy sweep: fifo/priority/backfill
//	jbench -fig checkpoint     # off-loop checkpoint tail latency vs none
//	jbench -fig all            # everything
//
// -json writes the selected figure's results (readpath, wal,
// applypipe, shards, leases, writepath, or sched) to a machine-readable file
// (the CI benchmark artifact). Every file carries a "meta" object
// recording the run environment: GOMAXPROCS, the Go toolchain
// version, the git commit, the model scale, and the topology the
// figure ran on (head count, shard count, apply concurrency) — enough
// to tell two artifacts apart and to compare like with like.
//
// -scale selects the latency-model scale (1.0 = paper-scale
// milliseconds; smaller runs proportionally faster). Shapes, not
// absolute times, are the reproduction target; each table prints the
// paper's values alongside (see EXPERIMENTS.md).
//
// -cpuprofile, -memprofile and -mutexprofile write runtime/pprof
// profiles covering the selected figure. The replica pipeline stages
// are labeled (rsm_stage=event_loop/apply_worker/releaser/replier/...)
// so a CPU profile splits cleanly per stage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"joshua/internal/bench"
)

// runMeta identifies the environment and topology a benchmark
// artifact came from. Heads and Shards describe the figure's cluster
// (for sweeps, the largest configuration measured); ApplyConcurrency
// is the replica-side parallel-apply width, which follows GOMAXPROCS.
type runMeta struct {
	GOMAXPROCS       int     `json:"gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	GitCommit        string  `json:"git_commit"`
	Scale            float64 `json:"scale"`
	Heads            int     `json:"heads"`
	Shards           int     `json:"shards"`
	ApplyConcurrency int     `json:"apply_concurrency"`
	Timestamp        string  `json:"timestamp_utc"`
}

// newRunMeta captures the environment. The commit comes from git when
// a work tree is available (the common case: CI runs jbench from a
// checkout), falling back to the build info stamp for installed
// binaries.
func newRunMeta(scale float64) runMeta {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				commit = s.Value
			}
		}
	}
	return runMeta{
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		GoVersion:        runtime.Version(),
		GitCommit:        commit,
		Scale:            scale,
		ApplyConcurrency: runtime.GOMAXPROCS(0),
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
	}
}

func main() {
	var (
		fig          = flag.String("fig", "all", "which figure to regenerate: 10, 11, 12, ablations, readpath, wal, applypipe, shards, leases, writepath, sched, checkpoint, all")
		scale        = flag.Float64("scale", 0.2, "latency model scale (1.0 = paper milliseconds)")
		samples      = flag.Int("samples", 20, "latency samples per configuration")
		maxHeads     = flag.Int("maxheads", 4, "largest head-node group")
		clients      = flag.Int("clients", 10000, "concurrent clients for -fig writepath")
		jsonPath     = flag.String("json", "", "write the selected figure's results as JSON to this file")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
		mutexProfile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	)
	flag.Parse()

	cal := bench.PaperCalibration(*scale)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "jbench:", err)
		os.Exit(1)
	}

	// Profiles bracket the figure run itself. The mutex fraction must
	// be raised before any contention happens to be sampled; the heap
	// profile is written after a forced GC so it shows live bytes, not
	// transient garbage.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(100)
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
			f.Close()
		}
		if *mutexProfile != "" {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fail(err)
			}
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fail(err)
			}
			f.Close()
		}
	}()

	// writeJSON emits the figure's results to -json, stamped with the
	// run metadata plus the figure's topology (heads, shards).
	writeJSON := func(payload map[string]any, heads, shards int) {
		if *jsonPath == "" {
			return
		}
		meta := newRunMeta(*scale)
		meta.Heads = heads
		meta.Shards = shards
		payload["meta"] = meta
		out, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fail(err)
		}
	}

	run10 := func() {
		rows, err := bench.Fig10(cal, *maxHeads, *samples)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatFig10(rows, cal))
	}
	run11 := func() {
		counts := []int{10, 50, 100}
		rows, err := bench.Fig11(cal, *maxHeads, counts)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatFig11(rows, cal, counts))
	}
	run12 := func() {
		fmt.Println(bench.Fig12(*maxHeads, 2000))
	}
	runAblations := func() {
		fmt.Println("Ablations (DESIGN.md §5):")
		type runner func() (bench.AblationResult, error)
		for _, r := range []runner{
			func() (bench.AblationResult, error) { return bench.AblationSafeDelivery(cal, 2, *samples) },
			func() (bench.AblationResult, error) { return bench.AblationBatchSubmission(cal, 2, 100) },
			func() (bench.AblationResult, error) { return bench.AblationReads(cal, 2, *samples) },
			func() (bench.AblationResult, error) { return bench.AblationOrderedCompletions(cal, 2, 6) },
			func() (bench.AblationResult, error) { return bench.AblationExclusiveScheduling(cal, 8) },
		} {
			res, err := r()
			if err != nil {
				fail(err)
			}
			fmt.Printf("  %-32s", res.Name+":")
			for name, d := range res.Variants {
				fmt.Printf(" %s=%v", name, d.Round(time.Millisecond/10))
			}
			fmt.Println()
		}
		stall, normal, err := bench.MeasureSequencerFailoverStall(cal)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %-32s stall=%v normal=%v (detection+flush; service state intact)\n",
			"sequencer failure stall:", stall.Round(time.Millisecond), normal.Round(time.Millisecond))
		fmt.Println()
	}

	runReadPath := func() {
		res, err := bench.MeasureMixedReads(cal, 2, 4, 6, 25)
		if err != nil {
			fail(err)
		}
		fmt.Println("Concurrent read path (4 jstat pollers vs a batched submit stream):")
		fmt.Printf("  %6.0f reads/s   read mean %-10v batch mean %v\n",
			res.ReadsPerSec, res.ReadMean.Round(time.Millisecond/10), res.SubmitMean.Round(time.Millisecond/10))
		fmt.Println()
		writeJSON(map[string]any{"concurrent": res}, 2, 1)
	}

	runWAL := func() {
		rows, err := bench.MeasureWALPolicies(cal, 2, *samples)
		if err != nil {
			fail(err)
		}
		fmt.Println("WAL fsync ablation (submission latency, 2 heads):")
		var base time.Duration
		for _, r := range rows {
			if r.Policy == "in-memory" {
				base = r.SubmitMean
			}
			extra := ""
			if base > 0 && r.Policy != "in-memory" {
				extra = fmt.Sprintf("   %+.1f%% vs in-memory", 100*(float64(r.SubmitMean)/float64(base)-1))
			}
			if r.Appends > 0 {
				extra += fmt.Sprintf("   (%d appends, %d fsyncs)", r.Appends, r.Fsyncs)
			}
			fmt.Printf("  %-12s %-10v%s\n", r.Policy+":", r.SubmitMean.Round(time.Millisecond/10), extra)
		}
		fmt.Println()
		writeJSON(map[string]any{"wal_policies": rows}, 2, 1)
	}

	runApplyPipe := func() {
		res, err := bench.MeasureApplyPipeline(240, 8, time.Millisecond)
		if err != nil {
			fail(err)
		}
		fmt.Println("Pipelined apply path (SyncPolicy=always, 8 clients, independent keys):")
		for _, v := range res.Variants {
			fmt.Printf("  %-10s %7.0f ops/s   p50 %-9v p99 %-9v (runs=%d barriers=%d overlap=%v)\n",
				v.Name+":", v.Throughput,
				v.SubmitP50.Round(time.Millisecond/10), v.SubmitP99.Round(time.Millisecond/10),
				v.ParallelRuns, v.Barriers, v.FsyncOverlap.Round(time.Millisecond))
		}
		fmt.Printf("  speedup: %.1fx throughput vs overlap (1 worker), p99 ratio %.2f\n",
			res.SpeedupParallelVsOverlap, res.P99RatioParallelVsOverlap)
		fmt.Println()
		writeJSON(map[string]any{"apply_pipeline": res}, 2, 1)
	}

	runShards := func() {
		res, err := bench.MeasureShardScaling(192, 8, time.Millisecond)
		if err != nil {
			fail(err)
		}
		fmt.Println("Sharded replication groups (aggregate submit throughput, 8 clients, 2 heads/shard):")
		for _, v := range res.Variants {
			fmt.Printf("  %d shard(s): %7.0f jobs/s   p50 %-9v p99 %-9v speedup %.1fx (%d jobs listed)\n",
				v.Shards, v.Throughput,
				v.SubmitP50.Round(time.Millisecond/10), v.SubmitP99.Round(time.Millisecond/10),
				v.Speedup, v.Listed)
		}
		fmt.Printf("  speedup at 4 shards: %.1fx vs single group\n", res.SpeedupAt4)
		fmt.Println()
		writeJSON(map[string]any{"shard_scaling": res}, 2, 8)
	}

	runLeases := func() {
		res, err := bench.MeasureLeases(cal, 4, 8, 5, 2*time.Second)
		if err != nil {
			fail(err)
		}
		fmt.Println("Read consistency levels (8 readers, 4 heads, pure-read phase):")
		for _, v := range res.Variants {
			extra := ""
			if v.LeaseReads > 0 || v.LeaseFallbacks > 0 {
				extra = fmt.Sprintf("   (%d leased, %d fallbacks)", v.LeaseReads, v.LeaseFallbacks)
			}
			fmt.Printf("  %-12s %7.0f reads/s   read mean %v%s\n",
				v.Name+":", v.ReadsPerSec, v.ReadMean.Round(time.Millisecond/10), extra)
		}
		fmt.Printf("  leased vs local: %.2fx   leased vs broadcast-ordered: %.1fx\n",
			res.LeasedVsLocal, res.LeasedVsBroadcast)
		fmt.Println()
		writeJSON(map[string]any{"lease_reads": res}, 4, 1)
	}

	runCheckpoint := func() {
		res, err := bench.MeasureCheckpointStall(0, 0, 0)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatCheckpoint(res))
		writeJSON(map[string]any{"checkpoint": res}, 2, 1)
	}

	runSched := func() {
		res, err := bench.MeasureSchedPolicies(96, 16)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatSched(res))
		writeJSON(map[string]any{"sched_policies": res}, 1, 1)
	}

	runWritePath := func(n int) {
		const heads = 2
		res, err := bench.MeasureWritePath(n, 3, heads)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Zero-alloc write path (%d clients x %d puts, %d heads, durable):\n",
			res.Clients, res.OpsPerClient, res.Heads)
		fmt.Printf("  throughput: %8.0f ops/s   p50 %-9v p99 %v\n",
			res.Throughput, res.SubmitP50.Round(time.Millisecond), res.SubmitP99.Round(time.Millisecond))
		fmt.Printf("  allocs/op:  %8.1f         bytes/op %.0f (process-wide: clients+net+%d replicas)\n",
			res.AllocsPerOp, res.BytesPerOp, res.Heads)
		fmt.Printf("  GC: %d cycles, %v paused   heap %0.1f MB   applied %d   reply drops %d\n",
			res.NumGC, res.GCPauseTotal.Round(time.Millisecond/10),
			float64(res.HeapAllocBytes)/(1<<20), res.Applied, res.ReplyQueueDrops)
		fmt.Println()
		writeJSON(map[string]any{"write_path": res}, heads, 1)
	}

	switch *fig {
	case "10":
		run10()
	case "11":
		run11()
	case "12":
		run12()
	case "ablations":
		runAblations()
	case "readpath":
		runReadPath()
	case "wal":
		runWAL()
	case "applypipe":
		runApplyPipe()
	case "shards":
		runShards()
	case "leases":
		runLeases()
	case "writepath":
		runWritePath(*clients)
	case "sched":
		runSched()
	case "checkpoint":
		runCheckpoint()
	case "all":
		run10()
		run11()
		run12()
		runAblations()
		runReadPath()
		runWAL()
		runApplyPipe()
		runShards()
		runLeases()
		runSched()
		runCheckpoint()
		// "all" is the smoke-everything mode; cap the client fleet so
		// it stays minutes, not tens of minutes. The full 10k-client
		// profile is an explicit -fig writepath run.
		runWritePath(min(*clients, 2000))
	default:
		fail(fmt.Errorf("unknown -fig %q", *fig))
	}
}
