package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"time"

	"joshua/internal/cli"
	"joshua/internal/config"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// runJsub submits a job to the head-node group — the highly available
// qsub of the paper. It may be pointed at any active head node (it
// fails over automatically).
//
// -l accepts either a PBS resource list ("nodes=2,ncpus=2,mem=1gb")
// or, for compatibility with earlier releases, a bare integer node
// count. -t likewise accepts either an array range ("0-99", expanded
// into sub-jobs named id[idx].server) or a bare integer, which keeps
// its historical meaning of submitting that many identical jobs in
// one command.
//
// The job script is read from the named file or from standard input,
// and its #PBS directives apply unless a flag overrides them. On
// success the new job identifier is printed, qsub-style.
func runJsub(c *command, args []string) error {
	f := newFlags(c, true)
	var (
		name      = f.String("N", "", "job name (default: script file name or STDIN)")
		owner     = f.String("o", os.Getenv("USER"), "job owner")
		resources = f.String("l", "", "resource list (nodes=N,ncpus=C,mem=SIZE,walltime=HH:MM:SS) or a bare node count")
		wallTime  = f.Duration("w", 0, "simulated wall time (e.g. 30s)")
		hold      = f.Bool("hold", false, "submit in held state (qsub -h)")
		priority  = f.Int("p", 0, "user priority (higher runs earlier under priority/backfill policies)")
		arrayOrN  = f.String("t", "", "job array range (start-end) or a bare count of identical jobs")
	)
	conf, err := f.load(args)
	if err != nil {
		return err
	}

	script, scriptFile := "", ""
	if f.NArg() > 0 {
		b, err := os.ReadFile(f.Arg(0))
		if err != nil {
			return err
		}
		script, scriptFile = string(b), f.Arg(0)
	} else if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fmt.Errorf("reading stdin: %v", err)
		}
		script = string(b)
	}

	client, err := cli.NewClient(conf, 3*time.Second, f.bind)
	if err != nil {
		return err
	}
	defer client.Close()

	req := pbs.SubmitRequest{
		Name:     *name,
		Owner:    *owner,
		Script:   script,
		WallTime: *wallTime,
		Hold:     *hold,
		Priority: *priority,
	}
	// Only explicitly passed flags should override #PBS directives.
	if *resources != "" {
		if n, err := strconv.Atoi(*resources); err == nil {
			// Bare integer: the legacy -l node-count spelling.
			req.NodeCount = n
		} else if err := pbs.ApplyResourceList(&req, *resources); err != nil {
			return err
		}
	}
	// -t: an array range ("0-99") or the legacy bare batch count.
	batch := 1
	if *arrayOrN != "" {
		if n, err := strconv.Atoi(*arrayOrN); err == nil {
			batch = n
		} else if req.Array, err = pbs.ParseArrayRange(*arrayOrN); err != nil {
			return err
		}
	}
	if err := pbs.ApplyDirectives(&req); err != nil {
		return err
	}
	// Precedence for the job name: -N flag, then #PBS -N, then the
	// script file name (qsub's default).
	if req.Name == "" {
		req.Name = scriptFile
	}
	var jobs []pbs.Job
	if batch > 1 && !req.Array.Set {
		jobs, err = client.SubmitBatch(req, batch)
	} else {
		// SubmitArray submits a single job when req names no array.
		jobs, err = client.SubmitArray(req)
	}
	if err != nil {
		return err
	}
	for _, j := range jobs {
		fmt.Println(j.ID)
	}
	return nil
}

// runJobs is jdel, jhold, jrls and jsig: one PBS operation applied to
// each named job across the head-node group. jdel is the paper's
// highly available qdel (queued jobs vanish, running ones are killed
// on their compute nodes); jhold and jrls hold and release queued
// jobs, which works here because state transfer is snapshot-based (the
// paper's command-replay prototype had to disable holds; see
// DESIGN.md). jsig is the qsig the paper left outside JOSHUA: it is
// ordered anyway so that every head agrees on the signal count, and
// has no scheduling effect.
func runJobs(c *command, args []string) error {
	f := newFlags(c, true)
	var sig *string
	if c.name == "jsig" {
		sig = f.String("s", "SIGTERM", "signal name to deliver")
	}
	conf, err := f.load(args)
	if err != nil {
		return err
	}
	if f.NArg() == 0 {
		return fmt.Errorf("usage: %s", c.usage)
	}
	client, err := cli.NewClient(conf, 3*time.Second, f.bind)
	if err != nil {
		return err
	}
	defer client.Close()

	op, what := client.Delete, "deletions"
	switch c.name {
	case "jhold":
		op, what = client.Hold, "holds"
	case "jrls":
		op, what = client.Release, "releases"
	case "jsig":
		op = func(id pbs.JobID) (pbs.Job, error) { return client.Signal(id, *sig) }
		what = "signals"
	}
	failed := false
	for _, arg := range f.Args() {
		if _, err := op(pbs.JobID(arg)); err != nil {
			fmt.Printf("%s: %s: %v\n", c.name, arg, err)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("some %s failed", what)
	}
	return nil
}

// runJstat queries job status from the head-node group — the highly
// available qstat of the paper. As in the paper, the query stays
// outside the total order: it is answered from one head's local state
// (round-robined across the group, prefix-consistent, possibly
// trailing a mutation in flight). -ordered asks for a linearizable
// read instead: a head holding a live sequencer lease serves it
// locally once its state covers every mutation acknowledged before
// the read arrived, and a leaseless head falls back to serializing it
// through the total order (one full ordering round) — see DESIGN.md
// §6.7.
func runJstat(c *command, args []string) error {
	f := newFlags(c, true)
	full := f.Bool("f", false, "full display (qstat -f)")
	ordered := f.Bool("ordered", false, "linearizable read: served under the head's read lease, or through the total order")
	conf, err := f.load(args)
	if err != nil {
		return err
	}
	client, err := cli.NewClient(conf, 3*time.Second, f.bind)
	if err != nil {
		return err
	}
	defer client.Close()

	stat, statAll := client.Stat, client.StatAll
	if *ordered {
		stat, statAll = client.StatOrdered, client.StatAllOrdered
	}
	var jobs []pbs.Job
	if id := pbs.JobID(f.Arg(0)); id != "" {
		var j pbs.Job
		j, err = stat(id)
		jobs = []pbs.Job{j}
	} else {
		jobs, err = statAll()
	}
	if err != nil {
		return err
	}
	if !*full {
		fmt.Print(pbs.StatusText(jobs))
		return nil
	}
	for _, j := range jobs {
		fmt.Print(pbs.FullStatusText(j))
	}
	return nil
}

// runJnodes lists and manages compute nodes across the head-node group
// — the highly available pbsnodes. Offline/online transitions are
// replicated through the total order, so every head agrees on the
// schedulable node pool. The listing shows per-node utilization
// (cpu=used/total, plus mem=used/total when the deployment tracks
// memory) alongside the jobs allocated to each node.
func runJnodes(c *command, args []string) error {
	f := newFlags(c, true)
	offline := f.String("o", "", "mark this node offline")
	online := f.String("c", "", "clear this node's offline state")
	conf, err := f.load(args)
	if err != nil {
		return err
	}
	client, err := cli.NewClient(conf, 3*time.Second, f.bind)
	if err != nil {
		return err
	}
	defer client.Close()

	switch {
	case *offline != "":
		return client.SetNodeOffline(*offline)
	case *online != "":
		return client.SetNodeOnline(*online)
	}
	nodes, err := client.Nodes()
	if err != nil {
		return err
	}
	fmt.Print(pbs.NodesText(nodes))
	return nil
}

// perShardKeys are the gauges (jobs_*) and replicated counters
// (cmds_applied, wal_*, apply_*) jadmin's cluster-total section adds
// up once per shard: every replica of a shard agrees on them.
var perShardKeys = []string{
	"jobs_waiting", "jobs_running", "jobs_completed",
	"cmds_applied", "wal_appends", "wal_fsyncs", "wal_bytes",
	"apply_parallel", "apply_barriers",
}

// perHeadKeys are the per-head counters jadmin's cluster total sums
// over every head.
var perHeadKeys = []string{
	"cmds_replied", "dedup_hits", "local_reads", "read_cache_hits",
	"reply_queue_drops",
	// lease_held is a per-head boolean gauge, reported but not summed.
	"lease_reads", "lease_waits", "lease_fallbacks", "lease_revocations",
	"lease_fb_no_lease", "lease_fb_wait",
	// ckpt_inflight is a per-head boolean gauge; duration/bytes are
	// per-head last-observed values, failures are a counter.
	"ckpt_last_duration_ns", "ckpt_bytes", "ckpt_failures",
	// State transfers by direction and shape (base only, suffix only,
	// both).
	"transfer_in_full", "transfer_in_delta", "transfer_in_hybrid",
	"transfer_out_full", "transfer_out_delta", "transfer_out_hybrid",
	// Start and kill traffic with the moms: only the sequencer's
	// daemon sends, so the sums are the cluster's traffic.
	"mom_sent", "mom_resent", "mom_acks", "mom_adopted",
}

// runJadmin reports the operational state of every head node: group
// view, primary status, queue gauges, replication and
// group-communication counters — what an operator checks before and
// after maintenance. Sharded deployments are reported shard by shard,
// followed by a cluster-total section.
func runJadmin(c *command, args []string) error {
	f := newFlags(c, true)
	conf, err := f.load(args)
	if err != nil {
		return err
	}

	totals := map[string]uint64{}
	// Query each head individually: jadmin wants per-head state, not
	// the failover view a normal client sees.
	for s, heads := range conf.ShardHeads() {
		if conf.Shards > 1 {
			fmt.Printf("--- shard %d ---\n", s)
		}
		shardCounted := false
		for _, h := range heads {
			fmt.Printf("=== %s (%s) ===\n", h.Name, h.Client)
			info, err := queryHead(conf, h.ClientAddr(), f.bind)
			if err != nil {
				fmt.Printf("  unreachable: %v\n", err)
				continue
			}
			for _, k := range slices.Sorted(maps.Keys(info)) {
				fmt.Printf("  %-16s %s\n", k, info[k])
			}
			addKeys(totals, info, perHeadKeys)
			if !shardCounted {
				// First reachable head stands for the shard's
				// replicated state.
				addKeys(totals, info, perShardKeys)
				shardCounted = true
			}
		}
	}
	if conf.Shards > 1 {
		fmt.Printf("=== cluster totals (%d shards) ===\n", conf.Shards)
		for _, k := range slices.Sorted(maps.Keys(totals)) {
			fmt.Printf("  %-16s %d\n", k, totals[k])
		}
	}
	return nil
}

// addKeys accumulates the named numeric fields of one head's report.
func addKeys(totals map[string]uint64, info map[string]string, keys []string) {
	for _, k := range keys {
		if n, err := strconv.ParseUint(info[k], 10, 64); err == nil {
			totals[k] += n
		}
	}
}

// queryHead asks one head, and only that head, for its report.
func queryHead(conf *config.ClusterFile, head transport.Addr, bind string) (map[string]string, error) {
	ep, err := cli.Listen(conf, bind, "-"+head.Host())
	if err != nil {
		return nil, err
	}
	client, err := joshua.NewClient(joshua.ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{head},
		AttemptTimeout: 2 * time.Second,
		Rounds:         1,
	})
	if err != nil {
		ep.Close()
		return nil, err
	}
	defer client.Close()
	return client.Info()
}
