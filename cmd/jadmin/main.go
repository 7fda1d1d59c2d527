// Command jadmin reports the operational state of every JOSHUA head
// node: group view, primary status, queue gauges, replication and
// group-communication counters — what an operator checks before and
// after maintenance.
//
// Sharded deployments are reported shard by shard, followed by a
// cluster-total section that sums the queue gauges and the
// submit/read/WAL/apply counters across shards (one representative
// head per shard: replicas of a shard agree on replicated state, so
// summing every head would double-count).
//
// Usage:
//
//	jadmin -config cluster.conf
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"joshua/internal/cli"
	"joshua/internal/config"
	"joshua/internal/joshua"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// summedKeys are the counters and gauges the cluster-total section
// adds up across shards. Gauges (jobs_*) and replicated counters
// (cmds_applied, wal_*) agree on every replica of a shard; per-head
// counters (local_reads, dedup_hits) are summed within a shard too,
// so for those the total is across all heads.
var perShardKeys = []string{
	"jobs_waiting", "jobs_running", "jobs_completed",
	"cmds_applied", "wal_appends", "wal_fsyncs", "wal_bytes",
	"apply_parallel", "apply_barriers",
}

var perHeadKeys = []string{
	"cmds_replied", "dedup_hits", "local_reads", "read_cache_hits",
	"reply_queue_drops",
	// lease_held is a per-head boolean gauge, reported but not summed.
	"lease_reads", "lease_fallbacks", "lease_revocations",
	"lease_fb_no_lease", "lease_fb_apply_lag", "lease_fb_durable",
	// ckpt_inflight is a per-head boolean gauge; duration/bytes are
	// per-head last-observed values, failures are a counter.
	"ckpt_last_duration_ns", "ckpt_bytes", "ckpt_failures",
	// State transfers by direction and shape (base only, suffix only,
	// both).
	"transfer_in_full", "transfer_in_delta", "transfer_in_hybrid",
	"transfer_out_full", "transfer_out_delta", "transfer_out_hybrid",
}

func main() {
	configPath := flag.String("config", "", "cluster configuration file")
	bindAddr := flag.String("bind", "", "local TCP address to listen on for replies (overrides JOSHUA_BIND and client_bind)")
	flag.Parse()

	path := *configPath
	if path == "" {
		path = os.Getenv("JOSHUA_CONFIG")
	}
	conf, err := config.LoadCluster(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jadmin:", err)
		os.Exit(1)
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
			info, err := queryHead(conf, h.ClientAddr(), *bindAddr)
			if err != nil {
				fmt.Printf("  unreachable: %v\n", err)
				continue
			}
			keys := make([]string, 0, len(info))
			for k := range info {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
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
		keys := make([]string, 0, len(totals))
		for k := range totals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-16s %d\n", k, totals[k])
		}
	}
}

// addKeys accumulates the named numeric fields of one head's report.
func addKeys(totals map[string]uint64, info map[string]string, keys []string) {
	for _, k := range keys {
		v, ok := info[k]
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			continue
		}
		totals[k] += n
	}
}

func queryHead(conf *config.ClusterFile, head transport.Addr, bind string) (map[string]string, error) {
	logical := transport.Addr(fmt.Sprintf("jadmin-%d-%s/client", os.Getpid(), head.Host()))
	ep, err := tcpnet.Listen(logical, cli.BindAddr(bind, conf), conf.Resolver())
	if err != nil {
		return nil, err
	}
	cli, err := joshua.NewClient(joshua.ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{head},
		AttemptTimeout: 2 * time.Second,
		Rounds:         1,
	})
	if err != nil {
		ep.Close()
		return nil, err
	}
	defer cli.Close()
	return cli.Info()
}
