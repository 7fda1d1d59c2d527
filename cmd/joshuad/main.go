// Command joshuad runs one JOSHUA head node: the replicated, highly
// available PBS-compliant job and resource management service of the
// paper, over real TCP sockets.
//
// Usage:
//
//	joshuad -config cluster.conf -id head0 [-mode static|bootstrap|join]
//	        [-data-dir /var/lib/joshua]
//
// The configuration file declares every head node and compute node
// and carries every tuning knob — scheduling policy, node capacity,
// fsync policy, checkpoint cadence, apply pool, read leases (see
// internal/config); no flag shadows them. With -mode static (the
// default) all declared heads form the group together at startup;
// -mode bootstrap founds a fresh singleton group; -mode join joins a
// running group with state transfer, the path a repaired head node
// takes back into service.
//
// With -data-dir (or data_dir in the configuration) the head keeps a
// write-ahead log and periodic checkpoints under <dir>/<id>; after a
// crash it recovers its state from disk and rejoins with only the
// missing log suffix instead of a full state transfer.
//
// A deployment may be partitioned into several independent
// replication groups ("shards = N" in the configuration plus
// "shard = N" in each [head] section; see internal/shard). Each head
// then forms a group only with the heads of its own shard, schedules
// only its shard's compute nodes, and mints only job IDs that hash
// back to its shard — clients route by job ID with no directory. The
// -shard and -shards flags override the configuration's placement,
// for single-machine experiments.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"joshua/internal/cli"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/shard"
	"joshua/internal/transport/tcpnet"
)

func main() {
	var (
		configPath = flag.String("config", "", "cluster configuration file")
		id         = flag.String("id", "", "this head node's name (a [head <name>] section)")
		mode       = flag.String("mode", "static", "group formation: static, bootstrap, or join")
		acctPath   = flag.String("accounting", "", "append PBS accounting records to this file")
		dataDir    = flag.String("data-dir", "", "durable state root: WAL + checkpoints go to <dir>/<id> (overrides data_dir in config; empty = in-memory)")
		shardIdx   = flag.Int("shard", -1, "override this head's replication group (default: the [head] section's shard key)")
		shardCount = flag.Int("shards", 0, "override the deployment's shard count (default: the shards config key)")
		verbose    = flag.Bool("v", false, "log protocol diagnostics")
	)
	flag.Parse()

	conf, err := cli.LoadConfig(*configPath)
	if err != nil {
		cli.Fatalf("joshuad: %v", err)
	}
	if *shardCount > 0 {
		if err := conf.SetShards(*shardCount); err != nil {
			cli.Fatalf("joshuad: %v", err)
		}
	}
	head, ok := conf.Head(*id)
	if !ok {
		cli.Fatalf("joshuad: head %q not declared in configuration", *id)
	}
	if *shardIdx >= 0 {
		if *shardIdx >= conf.Shards {
			cli.Fatalf("joshuad: -shard %d out of range (shards = %d)", *shardIdx, conf.Shards)
		}
		head.Shard = *shardIdx
	}

	resolver := conf.Resolver()
	groupEP, err := tcpnet.Listen(head.GCSAddr(), head.GCS, resolver)
	if err != nil {
		cli.Fatalf("joshuad: group endpoint: %v", err)
	}
	clientEP, err := tcpnet.Listen(head.ClientAddr(), head.Client, resolver)
	if err != nil {
		cli.Fatalf("joshuad: client endpoint: %v", err)
	}
	pbsEP, err := tcpnet.Listen(head.PBSAddr(), head.PBS, resolver)
	if err != nil {
		cli.Fatalf("joshuad: pbs endpoint: %v", err)
	}

	// The head schedules only its shard's slice of the compute pool
	// and assigns only job IDs its shard owns (in the single-group
	// deployment both reduce to everything / no filtering).
	pbsCfg := pbs.Config{
		ServerName:        conf.ServerName,
		Nodes:             conf.ShardNodeNamesOf(head.Shard),
		Exclusive:         conf.Exclusive,
		Policy:            conf.SchedPolicy,
		Weights:           conf.SchedWeights,
		FairshareHalfLife: conf.FairshareHalfLife,
		NodeCPUs:          conf.NodeCPUs,
		NodeMem:           conf.NodeMem,
		KeepCompleted:     1024,
		IDFilter:          shard.IDFilter(head.Shard, conf.Shards),
	}
	if *acctPath != "" {
		f, err := os.OpenFile(*acctPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			cli.Fatalf("joshuad: accounting log: %v", err)
		}
		defer f.Close()
		pbsCfg.Accounting = pbs.NewWriterAccounting(f)
	}
	srv := pbs.NewServer(pbsCfg)
	daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{
		Endpoint: pbsEP,
		Moms:     conf.ShardMomAddrs(head.Shard),
	})

	cfg := joshua.Config{
		Config: rsm.Config{
			Self:               head.MemberID(),
			GroupEndpoint:      groupEP,
			ClientEndpoint:     clientEP,
			Peers:              conf.ShardGroupPeers(head.Shard),
			SyncPolicy:         conf.SyncPolicy,
			CheckpointEvery:    conf.CheckpointEvery,
			CheckpointCompress: conf.CheckpointCompress,
			ApplyConcurrency:   conf.ApplyConcurrency,
			LeaseDuration:      conf.LeaseDuration,
		},
		Daemon: daemon,
		Shard:  head.Shard,
		Shards: conf.Shards,
		// Non-FIFO policies advance the scheduler's logical clock on
		// every completion, so completion reports must take the same
		// totally ordered path as everything else or replica clocks —
		// and therefore schedules — would drift apart.
		OrderedCompletions: conf.SchedPolicy != pbs.PolicyFIFO,
	}
	if *verbose {
		cfg.Logger = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	}

	root := conf.DataDir
	if *dataDir != "" {
		root = *dataDir
	}
	if root != "" {
		cfg.DataDir = filepath.Join(root, *id)
	}
	switch *mode {
	case "static":
		// Static formation spans only this head's own shard: shards
		// are independent groups.
		for _, h := range conf.Heads {
			if h.Shard == head.Shard {
				cfg.InitialMembers = append(cfg.InitialMembers, h.MemberID())
			}
		}
	case "bootstrap":
		cfg.Bootstrap = true
	case "join":
		// neither static members nor bootstrap: join via Peers
	default:
		cli.Fatalf("joshuad: unknown -mode %q", *mode)
	}

	server, err := joshua.StartServer(cfg)
	if err != nil {
		cli.Fatalf("joshuad: %v", err)
	}

	select {
	case <-server.Ready():
		v := server.View()
		fmt.Printf("joshuad %s: serving in view %d, members %v\n", *id, v.ID, v.Members)
	case <-time.After(60 * time.Second):
		cli.Fatalf("joshuad: group not formed within 60s")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGTERM {
		// Graceful departure: announce the leave so the survivors
		// exclude this head without waiting out the failure detector.
		fmt.Printf("joshuad %s: leaving group\n", *id)
		server.Leave()
	} else {
		server.Close()
	}
}
