package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"joshua/benchmark/report"
	"joshua/internal/cluster"
	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/simnet"
)

// The fixed environment. Every engine, group and log knob not named
// here stays at its shipped default (SyncPolicy=interval,
// CheckpointEvery=1024, MaxBatch=64, leases on, FIFO non-exclusive
// scheduler); BENCHMARK.json's workloads and every result are only
// comparable under exactly this block, so it is constants, not flags.
const (
	envHeads = 3
	// envDelay is the injected one-way delay between hosts, without
	// jitter or loss: with instant delivery latency would be processor
	// time only.
	envDelay = time.Millisecond
	// envKeepCompleted bounds each head's completed-job history, as
	// the daemons do, so lifecycle state stays bounded.
	envKeepCompleted = 1000
	// envTimeScale makes a job with 1 s walltime run 1 ms on its mom.
	envTimeScale = 0.001
	// envConns is the number of client connections the load arrives
	// on (= the sandbox's core count); a joshua.Client multiplexes
	// outstanding requests by request ID, so logical users share them.
	envConns = 2
	// envUsers is the closed-loop population: each logical user sends
	// its next request only after the previous one completed.
	envUsers = 32
	// envMoms is the compute pool of the lifecycle workload; the
	// held-job workloads schedule nothing and run a single idle mom.
	envMoms = 8
	// envFailoverTimeout is the per-head attempt timeout of the
	// failover workload's clients (1 s everywhere else, the default).
	envFailoverTimeout = 300 * time.Millisecond
	// envSteadyFailTimeout is the failure detector's timeout where no
	// head is ever crashed; see tuneSteady.
	envSteadyFailTimeout = 2 * time.Second
	// envMaxProcs caps GOMAXPROCS so a larger box measures the same
	// configuration the bounds were calibrated on.
	envMaxProcs = 4
)

func envReport() report.Env {
	return report.Env{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Commit:        buildCommit(),
		Heads:         envHeads,
		Shards:        1,
		OneWayDelayMs: float64(envDelay) / float64(time.Millisecond),
		SafeDelivery:  true,
		SyncPolicy:    "interval",
		KeepCompleted: envKeepCompleted,
		MomTimeScale:  envTimeScale,
		Connections:   envConns,
		Users:         envUsers,
	}
}

// buildCommit is the VCS revision the toolchain stamped into the
// binary; the driver's checkouts are not repositories, so it may be
// unknown.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// tuneFaulty is the group layer as shipped plus safe delivery — the
// paper's Transis mode, and what read leases need. Deployments whose
// heads are crashed on purpose run it: failure detection is what they
// measure.
func tuneFaulty(c *gcs.Config) { c.SafeDelivery = true }

// tuneSteady is tuneFaulty with the failure detector slowed from the
// default 200 ms to envSteadyFailTimeout. Deployments in which no head
// ever fails run it, because at the default a head starved of the two
// shared cores for 200 ms is suspected, the group splits into two
// primary components under the fail-stop policy, and the run is void
// (README.md, Findings). The read lease is pinned to what the default
// detector would have given it, so nothing on a measured path changes.
func tuneSteady(c *gcs.Config) {
	c.SafeDelivery = true
	c.FailTimeout = envSteadyFailTimeout
	c.LeaseDuration = 100 * time.Millisecond
}

// envOptions is the cluster every workload and every multi-head layer
// driver boots; callers vary only the head count, the compute pool and
// whether heads will be crashed.
func envOptions(seed int64, heads, computes int, faults bool) cluster.Options {
	opts := cluster.Options{
		Heads:         heads,
		Computes:      computes,
		Latency:       simnet.Latency{Remote: envDelay},
		Seed:          seed,
		TimeScale:     envTimeScale,
		KeepCompleted: envKeepCompleted,
		TuneGCS:       tuneSteady,
	}
	if faults {
		opts.TuneGCS = tuneFaulty
		opts.ClientTimeout = envFailoverTimeout
	}
	return opts
}

// system is one booted deployment plus the benchmark's connections.
type system struct {
	cl    *cluster.Cluster
	conns []*joshua.Client
	dir   string
	// computes is the size of the mom pool.
	computes int
	// bootTime is cluster.New plus WaitReady, the cluster layer's
	// share of set-up.
	bootTime time.Duration
}

// boot starts a cluster under root (a fresh data directory is made
// there when durable is set) and opens the connections, the first hop
// of connection k pinned to head k+1 — the paper's off-node path,
// never the initial sequencer head0 — with the other heads as its
// fail-over order.
func boot(opts cluster.Options, root string, durable bool) (*system, error) {
	s := &system{computes: opts.Computes}
	if durable {
		dir, err := os.MkdirTemp(root, "data-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		opts.DataDir = filepath.Join(dir, "heads")
	}
	t0 := time.Now()
	cl, err := cluster.New(opts)
	if err != nil {
		s.close()
		return nil, err
	}
	s.cl = cl
	if !opts.Plain {
		if err := cl.WaitReady(30 * time.Second); err != nil {
			s.close()
			return nil, err
		}
	}
	s.bootTime = time.Since(t0)
	for k := 0; k < envConns; k++ {
		order := make([]int, opts.Heads)
		for i := range order {
			order[i] = (k + 1 + i) % opts.Heads
		}
		open := func() (*joshua.Client, error) { return cl.ClientFor(order...) }
		if opts.Shards > 1 {
			open = cl.Client // a sharded deployment needs routing clients
		}
		cli, err := open()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("connection %d: %w", k, err)
		}
		s.conns = append(s.conns, cli)
	}
	return s, nil
}

func (s *system) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
