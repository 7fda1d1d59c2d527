// Package cluster assembles complete simulated JOSHUA deployments —
// N head nodes running the replicated batch service, M compute nodes
// running PBS moms that end each job with an ordered jdone, and any
// number of clients — on the simulated network, with the paper's
// failure injection (cable pulls and forced process shutdown)
// scriptable.
//
// A deployment may run several independent replication groups
// ("shards", Options.Shards): each shard gets its own head set, its
// own slice of the compute pool (round-robin, matching
// shard.PartitionNodes), and its own group communication; clients made
// by Client route across all of them. Shard 0 keeps the historical
// host names (head0, head1, ...), so every single-group API below
// (Head, CrashHead, RestartHeads, ...) keeps working unchanged and
// simply means "shard 0"; the *Of variants address a specific shard.
//
// It is the substrate for the integration tests, the examples, and
// the benchmark harness that regenerates the paper's figures.
package cluster

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/shard"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// MaxHeads bounds each shard's head-node pool. Every head's group
// address is pre-declared so heads can be added dynamically up to this
// limit (the group layer needs a static address book, as the paper's
// Transis deployment did).
const MaxHeads = 8

// MaxShards bounds the shard count.
const MaxShards = 8

// Options configures a simulated cluster.
type Options struct {
	// Heads is the number of head nodes started initially in each
	// shard (1..MaxHeads).
	Heads int
	// Shards is the number of independent replication groups; 0 and 1
	// both mean the single-group deployment. Compute nodes are dealt
	// round-robin across shards, so Computes must be >= Shards (every
	// shard needs at least one node to schedule).
	Shards int
	// Computes is the number of compute nodes (>=1).
	Computes int
	// Latency models the interconnect; zero values give an instant
	// network.
	Latency simnet.Latency
	// DropRate and Seed feed the simulated network.
	DropRate float64
	Seed     int64
	// Exclusive selects the paper's one-job-at-a-time Maui policy
	// (default true via NewDefault; zero value false means packing).
	Exclusive bool
	// SchedPolicy selects the scheduling pipeline's ordering and
	// placement stages (fifo, priority, backfill); see pbs.SchedPolicy.
	SchedPolicy pbs.SchedPolicy
	// SchedWeights parameterizes the priority score (zero value
	// selects pbs.DefaultSchedWeights under non-FIFO policies).
	SchedWeights pbs.SchedWeights
	// FairshareHalfLife is the fairshare usage decay half-life in
	// logical ticks (0 = no decay).
	FairshareHalfLife uint64
	// NodeCPUs / NodeMem set each compute node's schedulable capacity
	// (see pbs.Config; 0 CPUs means 1, 0 mem means untracked).
	NodeCPUs int
	NodeMem  int64
	// TimeScale scales simulated job wall time on the moms.
	TimeScale float64
	// PartitionPolicy forwards to the JOSHUA servers.
	PartitionPolicy gcs.PartitionPolicy
	// TuneGCS adjusts group communication timings (tests shorten).
	TuneGCS func(*gcs.Config)
	// Logger receives diagnostics from all components.
	Logger *log.Logger
	// KeepCompleted bounds per-head completed-job history (0 = all).
	KeepCompleted int
	// Plain replaces the JOSHUA group with the paper's unreplicated
	// single-head baseline (requires Heads == 1 and a single shard).
	Plain bool
	// LeaseDuration is each head's sequencer-granted read-lease length
	// (see rsm.Config.LeaseDuration; 0 = the group layer's default).
	LeaseDuration time.Duration
	// ClientTimeout is the per-head attempt timeout for clients made
	// by Client/ClientFor (0 = 1s). Stress tests shorten it so a
	// client discovers the dead entries of the static head book
	// quickly.
	ClientTimeout time.Duration
	// ClientRedeemAfter forwards to joshua.ClientConfig.RedeemAfter
	// for clients made by Client/ClientFor (0 = client default,
	// negative disables read-rotation redemption).
	ClientRedeemAfter time.Duration
	// DataDir, when set, gives every head a durable write-ahead log
	// and checkpoints under DataDir/head<i> (shard 0) or
	// DataDir/s<s>head<i>, enabling crash recovery via RestartHeads.
	// Empty keeps heads purely in-memory.
	DataDir string
}

// headKey addresses one head: replication group s, slot i.
type headKey struct{ s, i int }

// Cluster is a running simulated deployment.
type Cluster struct {
	opts   Options
	shards int
	// nodeParts is the compute partition: nodeParts[s] are the node
	// names shard s schedules (round-robin, shard.PartitionNodes).
	nodeParts [][]string
	Net       *simnet.Network

	heads      map[headKey]*joshua.Server // live heads
	acct       map[headKey]*pbs.MemoryAccounting
	plain      *joshua.PlainServer // baseline mode (Options.Plain)
	moms       []*pbs.Mom
	momClients []*joshua.Client
	// clientMu guards the client registry: tests open clients from
	// concurrent goroutines (simulated login sessions).
	clientMu   sync.Mutex
	clients    []*joshua.Client
	nextClient int
}

// shardHost names the host of head i in shard s. Shard 0 keeps the
// historical names so single-group tests, data directories, and
// failure scripts address the same hosts as before sharding existed.
func shardHost(s, i int) string {
	if s == 0 {
		return fmt.Sprintf("head%d", i)
	}
	return fmt.Sprintf("s%dhead%d", s, i)
}

func headMember(s, i int) gcs.MemberID {
	return gcs.MemberID(shardHost(s, i))
}
func headGroupAddr(s, i int) transport.Addr {
	return transport.Addr(shardHost(s, i) + "/gcs")
}

// HeadClientAddr is the client-RPC address of shard 0's head i.
func HeadClientAddr(i int) transport.Addr { return ShardHeadClientAddr(0, i) }

// ShardHeadClientAddr is the client-RPC address of head i in shard s.
func ShardHeadClientAddr(s, i int) transport.Addr {
	return transport.Addr(shardHost(s, i) + "/joshua")
}

func headPBSAddr(s, i int) transport.Addr {
	return transport.Addr(shardHost(s, i) + "/pbs")
}
func computeName(j int) string { return fmt.Sprintf("compute%d", j) }
func momAddr(j int) transport.Addr {
	return transport.Addr(fmt.Sprintf("compute%d/mom", j))
}

// groupPeers returns shard s's full (static) head address book.
func groupPeers(s int) map[gcs.MemberID]transport.Addr {
	peers := make(map[gcs.MemberID]transport.Addr, MaxHeads)
	for i := 0; i < MaxHeads; i++ {
		peers[headMember(s, i)] = headGroupAddr(s, i)
	}
	return peers
}

// shardClientAddrs lists every potential head's client address in
// shard s, so clients and moms can fail over to heads added later.
func shardClientAddrs(s int) []transport.Addr {
	addrs := make([]transport.Addr, 0, MaxHeads)
	for i := 0; i < MaxHeads; i++ {
		addrs = append(addrs, ShardHeadClientAddr(s, i))
	}
	return addrs
}

// New builds and starts a cluster. The initial heads of every shard
// form their groups statically (the paper's deployment: all head
// nodes configured together); further heads join dynamically via
// AddHead/AddHeadOf.
func New(opts Options) (*Cluster, error) {
	if opts.Heads < 1 || opts.Heads > MaxHeads {
		return nil, fmt.Errorf("cluster: Heads must be 1..%d", MaxHeads)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("cluster: Shards must be <= %d", MaxShards)
	}
	if opts.Plain && (opts.Heads != 1 || shards != 1) {
		return nil, fmt.Errorf("cluster: Plain baseline requires exactly 1 head and 1 shard")
	}
	if opts.Computes < 1 {
		return nil, fmt.Errorf("cluster: Computes must be >= 1")
	}
	if opts.Computes < shards {
		return nil, fmt.Errorf("cluster: Computes (%d) must be >= Shards (%d): every shard needs a node to schedule", opts.Computes, shards)
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1.0
	}

	names := make([]string, opts.Computes)
	for j := range names {
		names[j] = computeName(j)
	}
	c := &Cluster{
		opts:      opts,
		shards:    shards,
		nodeParts: shard.PartitionNodes(names, shards),
		Net: simnet.New(simnet.Config{
			Latency:  opts.Latency,
			DropRate: opts.DropRate,
			Seed:     opts.Seed,
		}),
		heads: make(map[headKey]*joshua.Server),
		acct:  make(map[headKey]*pbs.MemoryAccounting),
	}

	for s := 0; s < shards; s++ {
		initial := make([]gcs.MemberID, opts.Heads)
		for i := range initial {
			initial[i] = headMember(s, i)
		}
		for i := 0; i < opts.Heads; i++ {
			if err := c.startHead(s, i, initial, false); err != nil {
				c.Close()
				return nil, err
			}
		}
	}

	for j := 0; j < opts.Computes; j++ {
		if err := c.startMom(j); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// NewDefault builds a cluster with the paper's defaults: exclusive
// Maui scheduling and a fail-stop partition policy.
func NewDefault(heads, computes int) (*Cluster, error) {
	return New(Options{Heads: heads, Computes: computes, Exclusive: true})
}

// Shards reports the number of replication groups.
func (c *Cluster) Shards() int { return c.shards }

// ShardNodes returns the node names shard s schedules.
func (c *Cluster) ShardNodes(s int) []string { return c.nodeParts[s] }

// startHead starts head i of shard s. initial is non-nil for static
// bootstrap; join makes the head join the existing group.
func (c *Cluster) startHead(s, i int, initial []gcs.MemberID, join bool) error {
	groupEP, err := c.Net.Endpoint(headGroupAddr(s, i))
	if err != nil {
		return err
	}
	clientEP, err := c.Net.Endpoint(ShardHeadClientAddr(s, i))
	if err != nil {
		groupEP.Close()
		return err
	}
	pbsEP, err := c.Net.Endpoint(headPBSAddr(s, i))
	if err != nil {
		groupEP.Close()
		clientEP.Close()
		return err
	}

	// The shard's batch service sees only its own slice of the compute
	// pool: shard schedulers never race for a machine.
	nodeNames := c.nodeParts[s]
	moms := make(map[string]transport.Addr, len(nodeNames))
	for _, n := range nodeNames {
		var j int
		fmt.Sscanf(n, "compute%d", &j)
		moms[n] = momAddr(j)
	}
	acct := &pbs.MemoryAccounting{}
	srv := pbs.NewServer(pbs.Config{
		ServerName:        "cluster", // identical on every head: replicated IDs coincide
		Nodes:             nodeNames,
		Exclusive:         c.opts.Exclusive,
		Policy:            c.opts.SchedPolicy,
		Weights:           c.opts.SchedWeights,
		FairshareHalfLife: c.opts.FairshareHalfLife,
		NodeCPUs:          c.opts.NodeCPUs,
		NodeMem:           c.opts.NodeMem,
		KeepCompleted:     c.opts.KeepCompleted,
		Accounting:        acct,
		// Each shard mints only job IDs that hash back to it, so any
		// client can route by ID alone (see internal/shard).
		IDFilter: shard.IDFilter(s, c.shards),
	})
	c.acct[headKey{s, i}] = acct
	daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{
		Endpoint:       pbsEP,
		Moms:           moms,
		ResendInterval: 200 * time.Millisecond,
	})

	if c.opts.Plain {
		groupEP.Close() // the baseline has no group communication
		c.plain = joshua.StartPlainServer(clientEP, daemon)
		return nil
	}

	cfg := joshua.Config{
		Config: rsm.Config{
			Self:            headMember(s, i),
			GroupEndpoint:   groupEP,
			ClientEndpoint:  clientEP,
			Peers:           groupPeers(s),
			PartitionPolicy: c.opts.PartitionPolicy,
			LeaseDuration:   c.opts.LeaseDuration,
			DataDir:         c.headDataDir(s, i),
			TuneGCS:         c.opts.TuneGCS,
			Logger:          c.opts.Logger,
		},
		Daemon: daemon,
		Shard:  s,
		Shards: c.shards,
	}
	if !join {
		cfg.InitialMembers = initial
	}
	head, err := joshua.StartServer(cfg)
	if err != nil {
		daemon.Close()
		groupEP.Close()
		clientEP.Close()
		return err
	}
	c.heads[headKey{s, i}] = head
	return nil
}

// momShard returns the shard owning compute node j (round-robin,
// matching shard.PartitionNodes).
func (c *Cluster) momShard(j int) int { return j % c.shards }

// startMom starts compute node j with the JOSHUA jdone hook. The mom
// belongs to exactly one shard: its client speaks only to that shard's
// heads (every job reaching the mom is owned by that shard by
// construction).
func (c *Cluster) startMom(j int) error {
	s := c.momShard(j)
	momEP, err := c.Net.Endpoint(momAddr(j))
	if err != nil {
		return err
	}
	cliEP, err := c.Net.Endpoint(transport.Addr(fmt.Sprintf("compute%d/jdone", j)))
	if err != nil {
		momEP.Close()
		return err
	}
	cli, err := joshua.NewClient(joshua.ClientConfig{
		Endpoint:       cliEP,
		Heads:          shardClientAddrs(s),
		AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		momEP.Close()
		cliEP.Close()
		return err
	}
	mom := pbs.StartMom(pbs.MomConfig{
		Name:      computeName(j),
		Endpoint:  momEP,
		Complete:  joshua.MomHooks(cli, computeName(j)),
		TimeScale: c.opts.TimeScale,
	})
	c.moms = append(c.moms, mom)
	c.momClients = append(c.momClients, cli)
	return nil
}

// WaitReady blocks until every live head of every shard has installed
// its first view or the timeout expires.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	deadline := time.After(timeout)
	for _, h := range c.heads {
		select {
		case <-h.Ready():
		case <-deadline:
			return fmt.Errorf("cluster: head %s not ready within %v", h.Self(), timeout)
		}
	}
	return nil
}

// Head returns shard 0's head i, or nil if it is not running.
func (c *Cluster) Head(i int) *joshua.Server { return c.heads[headKey{0, i}] }

// HeadOf returns head i of shard s, or nil if it is not running.
func (c *Cluster) HeadOf(s, i int) *joshua.Server { return c.heads[headKey{s, i}] }

// LiveHeads returns the indices of shard 0's running heads in
// ascending order.
func (c *Cluster) LiveHeads() []int { return c.LiveHeadsOf(0) }

// LiveHeadsOf returns the indices of shard s's running heads in
// ascending order.
func (c *Cluster) LiveHeadsOf(s int) []int {
	var idx []int
	for i := 0; i < MaxHeads; i++ {
		if _, ok := c.heads[headKey{s, i}]; ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// Mom returns compute node j's mom.
func (c *Cluster) Mom(j int) *pbs.Mom { return c.moms[j] }

// shardMap lists every shard's potential head addresses (full static
// books, so clients fail over to heads added later).
func (c *Cluster) shardMap() [][]transport.Addr {
	m := make([][]transport.Addr, c.shards)
	for s := range m {
		m[s] = shardClientAddrs(s)
	}
	return m
}

// Client creates a new control-command client (a user session on a
// login node), routing across every shard.
func (c *Cluster) Client() (*joshua.Client, error) {
	ep, err := c.Net.Endpoint(transport.Addr(fmt.Sprintf("client%d/cli", c.claimClientSlot())))
	if err != nil {
		return nil, err
	}
	cfg := joshua.ClientConfig{
		Endpoint:       ep,
		AttemptTimeout: c.clientTimeout(),
		RedeemAfter:    c.opts.ClientRedeemAfter,
	}
	if c.shards == 1 {
		cfg.Heads = shardClientAddrs(0)
	} else {
		cfg.Shards = c.shardMap()
		cfg.ShardNodes = c.nodeParts
	}
	cli, err := joshua.NewClient(cfg)
	if err != nil {
		ep.Close()
		return nil, err
	}
	c.registerClient(cli)
	return cli, nil
}

// claimClientSlot reserves a unique client host number.
func (c *Cluster) claimClientSlot() int {
	c.clientMu.Lock()
	defer c.clientMu.Unlock()
	c.nextClient++
	return c.nextClient
}

func (c *Cluster) registerClient(cli *joshua.Client) {
	c.clientMu.Lock()
	c.clients = append(c.clients, cli)
	c.clientMu.Unlock()
}

func (c *Cluster) clientTimeout() time.Duration {
	if c.opts.ClientTimeout > 0 {
		return c.opts.ClientTimeout
	}
	return time.Second
}

// ClientFor creates a client pinned to specific shard-0 heads (in
// preference order), for experiments that need a fixed first hop.
// Single-shard clusters only.
func (c *Cluster) ClientFor(heads ...int) (*joshua.Client, error) {
	if c.shards != 1 {
		return nil, fmt.Errorf("cluster: ClientFor requires a single-shard cluster (have %d shards)", c.shards)
	}
	ep, err := c.Net.Endpoint(transport.Addr(fmt.Sprintf("client%d/cli", c.claimClientSlot())))
	if err != nil {
		return nil, err
	}
	addrs := make([]transport.Addr, len(heads))
	for k, i := range heads {
		addrs[k] = HeadClientAddr(i)
	}
	cli, err := joshua.NewClient(joshua.ClientConfig{
		Endpoint:       ep,
		Heads:          addrs,
		AttemptTimeout: c.clientTimeout(),
		RedeemAfter:    c.opts.ClientRedeemAfter,
	})
	if err != nil {
		ep.Close()
		return nil, err
	}
	c.registerClient(cli)
	return cli, nil
}

// CrashHead fail-stops shard 0's head i: its host drops off the
// network and its processes die, like forcibly shutting the node down.
func (c *Cluster) CrashHead(i int) { c.CrashHeadOf(0, i) }

// CrashHeadOf fail-stops head i of shard s.
func (c *Cluster) CrashHeadOf(s, i int) {
	h, ok := c.heads[headKey{s, i}]
	if !ok {
		return
	}
	c.Net.CrashHost(shardHost(s, i))
	h.Close()
	delete(c.heads, headKey{s, i})
}

// LeaveHead removes shard 0's head i gracefully (operator-initiated
// departure).
func (c *Cluster) LeaveHead(i int) { c.LeaveHeadOf(0, i) }

// LeaveHeadOf removes head i of shard s gracefully.
func (c *Cluster) LeaveHeadOf(s, i int) {
	h, ok := c.heads[headKey{s, i}]
	if !ok {
		return
	}
	h.Leave()
	delete(c.heads, headKey{s, i})
}

// AddHead starts shard 0's head i (new or previously crashed) and
// joins it to the running group with state transfer.
func (c *Cluster) AddHead(i int) error { return c.AddHeadOf(0, i) }

// AddHeadOf starts head i of shard s and joins it to that shard's
// running group with state transfer. The host is restored on the
// network first.
func (c *Cluster) AddHeadOf(s, i int) error {
	if s < 0 || s >= c.shards {
		return fmt.Errorf("cluster: shard index %d out of range", s)
	}
	if i < 0 || i >= MaxHeads {
		return fmt.Errorf("cluster: head index %d out of range", i)
	}
	if _, ok := c.heads[headKey{s, i}]; ok {
		return fmt.Errorf("cluster: head %d (shard %d) already running", i, s)
	}
	c.Net.RestartHost(shardHost(s, i))
	if err := c.awaitHeadAddrsFree(s, i); err != nil {
		return err
	}
	return c.startHead(s, i, nil, true)
}

// awaitHeadAddrsFree waits until the head's service addresses can be
// bound again: a closed head's group endpoint is released by its event
// loop asynchronously, so an immediate restart can race the
// deregistration.
func (c *Cluster) awaitHeadAddrsFree(s, i int) error {
	for _, addr := range []transport.Addr{headGroupAddr(s, i), ShardHeadClientAddr(s, i), headPBSAddr(s, i)} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ep, err := c.Net.Endpoint(addr)
			if err == nil {
				ep.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: address %s never freed: %v", addr, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// headDataDir returns the head's durability directory, or "" when the
// cluster runs in-memory.
func (c *Cluster) headDataDir(s, i int) string {
	if c.opts.DataDir == "" {
		return ""
	}
	return filepath.Join(c.opts.DataDir, shardHost(s, i))
}

// RestartHeads restarts previously crashed shard-0 heads from their
// data directories (Options.DataDir required). See RestartHeadsOf.
func (c *Cluster) RestartHeads(idx ...int) error { return c.RestartHeadsOf(0, idx...) }

// RestartHeadsOf restarts previously crashed heads of shard s from
// their data directories. When other heads of the shard are still
// running, each restarted head simply rejoins and catches up — a
// log-suffix delta transfer when the donor still retains the gap.
// When none is running (whole-shard outage), the head whose log
// reaches the furthest applied index is bootstrapped first: the total
// order guarantees its prefix covers every command any head
// acknowledged, so no acknowledged work is lost. The remaining heads
// then join it.
func (c *Cluster) RestartHeadsOf(s int, idx ...int) error {
	if c.opts.DataDir == "" {
		return fmt.Errorf("cluster: RestartHeads requires Options.DataDir")
	}
	if len(idx) == 0 {
		return nil
	}
	for _, i := range idx {
		if i < 0 || i >= MaxHeads {
			return fmt.Errorf("cluster: head index %d out of range", i)
		}
		if _, ok := c.heads[headKey{s, i}]; ok {
			return fmt.Errorf("cluster: head %d (shard %d) already running", i, s)
		}
	}
	rest := idx
	if len(c.LiveHeadsOf(s)) == 0 {
		freshest, err := c.freshestHead(s, idx)
		if err != nil {
			return err
		}
		c.Net.RestartHost(shardHost(s, freshest))
		if err := c.awaitHeadAddrsFree(s, freshest); err != nil {
			return err
		}
		boot := []gcs.MemberID{headMember(s, freshest)}
		if err := c.startHead(s, freshest, boot, false); err != nil {
			return err
		}
		select {
		case <-c.heads[headKey{s, freshest}].Ready():
		case <-time.After(10 * time.Second):
			return fmt.Errorf("cluster: restarted head %d (shard %d) did not become ready", freshest, s)
		}
		rest = make([]int, 0, len(idx)-1)
		for _, i := range idx {
			if i != freshest {
				rest = append(rest, i)
			}
		}
	}
	for _, i := range rest {
		if err := c.AddHeadOf(s, i); err != nil {
			return err
		}
	}
	return nil
}

// freshestHead probes each candidate's write-ahead log and returns
// the index of the head with the highest durable applied index (ties
// break toward the lowest head index). A head with no data directory
// yet counts as index zero.
func (c *Cluster) freshestHead(s int, idx []int) (int, error) {
	best, bestLast := -1, uint64(0)
	for _, i := range idx {
		var last uint64
		if _, err := os.Stat(c.headDataDir(s, i)); err == nil {
			lg, err := wal.Open(wal.Options{Dir: c.headDataDir(s, i), Policy: wal.SyncNone})
			if err != nil {
				return 0, fmt.Errorf("cluster: probing head %d log: %w", i, err)
			}
			last = lg.LastIndex()
			if err := lg.Close(); err != nil {
				return 0, fmt.Errorf("cluster: probing head %d log: %w", i, err)
			}
		}
		if best == -1 || last > bestLast {
			best, bestLast = i, last
		}
	}
	return best, nil
}

// PartitionHeads splits shard 0's head set into two fragments that
// cannot reach each other (compute nodes keep reaching both sides).
func (c *Cluster) PartitionHeads(sideA, sideB []int) {
	c.PartitionHeadsOf(0, sideA, sideB)
}

// PartitionHeadsOf splits shard s's head set into two fragments that
// cannot reach each other. Other shards are unaffected: shards share
// no group communication, so a partition in one group never stalls
// another.
func (c *Cluster) PartitionHeadsOf(s int, sideA, sideB []int) {
	for _, a := range sideA {
		for _, b := range sideB {
			c.Net.Partition(shardHost(s, a), shardHost(s, b))
		}
	}
}

// CrashCompute fail-stops compute node j.
func (c *Cluster) CrashCompute(j int) {
	c.Net.CrashHost(computeName(j))
	c.moms[j].Close()
}

// Plain returns the baseline server when running with Options.Plain.
func (c *Cluster) Plain() *joshua.PlainServer { return c.plain }

// Accounting returns shard 0 head i's accounting log (every head
// writes its own; the replicated command stream makes them agree).
func (c *Cluster) Accounting(i int) *pbs.MemoryAccounting { return c.acct[headKey{0, i}] }

// AccountingOf returns the accounting log of head i in shard s.
func (c *Cluster) AccountingOf(s, i int) *pbs.MemoryAccounting { return c.acct[headKey{s, i}] }

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	if c.plain != nil {
		c.plain.Close()
	}
	for _, cli := range c.clients {
		cli.Close()
	}
	for _, cli := range c.momClients {
		cli.Close()
	}
	for _, m := range c.moms {
		m.Close()
	}
	for k, h := range c.heads {
		h.Close()
		delete(c.heads, k)
	}
	c.Net.Close()
}
