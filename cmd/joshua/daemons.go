package main

import (
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

// runJoshuad runs one JOSHUA head node: the replicated, highly
// available PBS-compliant job and resource management service of the
// paper, over real TCP sockets. The configuration declares every head
// and compute node and carries every tuning knob (see internal/config);
// no flag shadows them. -mode static (the default) forms the group
// from all declared heads, bootstrap founds a singleton group, and
// join enters a running group by state transfer, the path a repaired
// head takes back into service. With -data-dir (or data_dir) the head
// keeps a WAL and checkpoints under <dir>/<id>, recovers from them
// after a crash and rejoins with only the missing log suffix. In a
// sharded deployment ("shards = N", "shard = N" per [head]; see
// internal/shard) a head groups with, schedules for and mints job IDs
// of its own shard only; -shard and -shards override that placement
// for single-machine experiments.
func runJoshuad(c *command, args []string) error {
	f := newFlags(c, false)
	var (
		id         = f.String("id", "", "this head node's name (a [head <name>] section)")
		mode       = f.String("mode", "static", "group formation: static, bootstrap, or join")
		acctPath   = f.String("accounting", "", "append PBS accounting records to this file")
		dataDir    = f.String("data-dir", "", "durable state root: WAL + checkpoints go to <dir>/<id> (overrides data_dir in config; empty = in-memory)")
		shardIdx   = f.Int("shard", -1, "override this head's replication group (default: the [head] section's shard key)")
		shardCount = f.Int("shards", 0, "override the deployment's shard count (default: the shards config key)")
		verbose    = f.Bool("v", false, "log protocol diagnostics")
	)
	conf, err := f.load(args)
	if err != nil {
		return err
	}
	if *shardCount > 0 {
		if err := conf.SetShards(*shardCount); err != nil {
			return err
		}
	}
	head, ok := conf.Head(*id)
	if !ok {
		return fmt.Errorf("head %q not declared in configuration", *id)
	}
	if *shardIdx >= 0 {
		if *shardIdx >= conf.Shards {
			return fmt.Errorf("-shard %d out of range (shards = %d)", *shardIdx, conf.Shards)
		}
		head.Shard = *shardIdx
	}

	resolver := conf.Resolver()
	groupEP, err := tcpnet.Listen(head.GCSAddr(), head.GCS, resolver)
	if err != nil {
		return fmt.Errorf("group endpoint: %v", err)
	}
	clientEP, err := tcpnet.Listen(head.ClientAddr(), head.Client, resolver)
	if err != nil {
		return fmt.Errorf("client endpoint: %v", err)
	}
	pbsEP, err := tcpnet.Listen(head.PBSAddr(), head.PBS, resolver)
	if err != nil {
		return fmt.Errorf("pbs endpoint: %v", err)
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
		acct, err := os.OpenFile(*acctPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("accounting log: %v", err)
		}
		defer acct.Close()
		pbsCfg.Accounting = pbs.NewWriterAccounting(acct)
	}
	daemon := pbs.NewDaemon(pbs.NewServer(pbsCfg), pbs.DaemonConfig{
		Endpoint: pbsEP,
		Moms:     conf.ShardMomAddrs(head.Shard),
	})

	cfg := joshua.Config{
		Config: rsm.Config{
			Self:             head.MemberID(),
			GroupEndpoint:    groupEP,
			ClientEndpoint:   clientEP,
			Peers:            conf.ShardGroupPeers(head.Shard),
			SyncPolicy:       conf.SyncPolicy,
			CheckpointEvery:  conf.CheckpointEvery,
			ApplyConcurrency: conf.ApplyConcurrency,
			LeaseDuration:    conf.LeaseDuration,
		},
		Daemon: daemon,
		Shard:  head.Shard,
		Shards: conf.Shards,
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
		return fmt.Errorf("unknown -mode %q", *mode)
	}

	server, err := joshua.StartServer(cfg)
	if err != nil {
		return err
	}
	select {
	case <-server.Ready():
		v := server.View()
		fmt.Printf("joshuad %s: serving in view %d, members %v\n", *id, v.ID, v.Members)
	case <-time.After(60 * time.Second):
		return fmt.Errorf("group not formed within 60s")
	}

	if awaitSignal() == syscall.SIGTERM {
		// Graceful departure: announce the leave so the survivors
		// exclude this head without waiting out the failure detector.
		fmt.Printf("joshuad %s: leaving group\n", *id)
		server.Leave()
	} else {
		server.Close()
	}
	return nil
}

// runJmomd runs one compute node's PBS mom daemon over real TCP
// sockets. The mom accepts job-start requests from its shard's
// sequencer, acks a repeated one, and executes a job iff it is the
// job's first node (PBS's mother superior; every head places the job on
// the same nodes), so each job runs once with no lock round. It simulates the job for its
// wall time and ends it with the jdone epilogue: one command in the
// shard's total order that every head applies, in place of the
// TORQUE v2.0p1 multi-server report the paper's moms sent each head.
func runJmomd(c *command, args []string) error {
	f := newFlags(c, true)
	id := f.String("id", "", "this compute node's name (a [compute <name>] section)")
	conf, err := f.load(args)
	if err != nil {
		return err
	}
	node, ok := conf.Compute(*id)
	if !ok {
		return fmt.Errorf("compute node %q not declared in configuration", *id)
	}

	momEP, err := tcpnet.Listen(node.MomAddr(), node.Mom, conf.Resolver())
	if err != nil {
		return fmt.Errorf("mom endpoint: %v", err)
	}
	// The client routes each jdone by job ID to the shard that owns the
	// job, which is the shard that schedules this mom.
	doneClient, err := cli.NewClient(conf, 2*time.Second, f.bind)
	if err != nil {
		return fmt.Errorf("jdone client: %v", err)
	}
	defer doneClient.Close()
	mom := pbs.StartMom(pbs.MomConfig{
		Name:      node.Name,
		Endpoint:  momEP,
		Complete:  joshua.MomHooks(doneClient, node.Name),
		TimeScale: conf.TimeScale,
	})
	defer mom.Close()
	fmt.Printf("jmomd %s: serving shard %d\n", node.Name, node.Shard)
	awaitSignal()
	return nil
}

// awaitSignal blocks until the daemon is told to stop.
func awaitSignal() os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	return <-sig
}
