package config

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/pbs"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// ClusterFile is the deployment description used by the joshuad,
// jmomd, and control-command binaries: which head nodes exist, where
// each of their services listens, and which compute nodes run moms.
type ClusterFile struct {
	// ServerName suffixes job IDs; identical on every head.
	ServerName string
	// Shards is the number of independent replication groups the
	// deployment is partitioned into ("shards", globally or under
	// [options]; default 1). With more than one shard every [head]
	// section must carry a "shard = N" key placing it in a group, and
	// compute nodes either all declare "shard = N" or are dealt
	// round-robin across shards in name order.
	Shards    int
	Heads     []HeadDecl
	Computes  []ComputeDecl
	Exclusive bool
	// SchedPolicy selects the scheduling pipeline ("sched_policy",
	// globally or under [options]: fifo, priority, or backfill;
	// default fifo — the paper's configuration).
	SchedPolicy pbs.SchedPolicy
	// SchedWeights are the priority-stage weights ("sched_weight_age",
	// "sched_weight_size", "sched_weight_user", "sched_weight_fair"
	// under [options]; all-zero selects pbs.DefaultSchedWeights).
	SchedWeights pbs.SchedWeights
	// FairshareHalfLife is the fairshare decay half-life in logical
	// ticks ("fairshare_half_life" under [options]; 0 = no decay).
	FairshareHalfLife uint64
	// NodeCPUs / NodeMem set per-node schedulable capacity
	// ("node_cpus", "node_mem" under [options]; node_mem accepts PBS
	// sizes like "4gb").
	NodeCPUs  int
	NodeMem   int64
	TimeScale float64
	// ClientBind is the local TCP address control commands listen on
	// for replies ("client_bind", globally or under [options]). Empty
	// means an ephemeral loopback port, which only works when the
	// head nodes run on the same machine; multi-machine deployments
	// set it to an address the heads can route back to, e.g.
	// "10.0.0.7:0" or "0.0.0.0:0".
	ClientBind string
	// DataDir enables each head's durable write-ahead log and
	// checkpoints under <data_dir>/<head name> ("data_dir", globally
	// or under [options]). Empty runs heads purely in-memory.
	DataDir string
	// SyncPolicy is the WAL fsync policy: "always", "interval", or
	// "none" ("sync_policy"; default "interval").
	SyncPolicy string
	// CheckpointEvery is the applied-command cadence between
	// checkpoints ("checkpoint_every"; 0 = engine default).
	CheckpointEvery uint64
	// CheckpointCompress enables flate compression of checkpoint
	// files ("checkpoint_compress" under [options]).
	CheckpointCompress bool
	// DeltaMaxBytes caps the WAL-suffix state-transfer size
	// ("delta_max_bytes" under [options]; 0 = engine default 64 MiB,
	// negative = unlimited).
	DeltaMaxBytes int64
	// ApplyConcurrency sizes each head's apply-worker pool
	// ("apply_concurrency" under [options]; 0 = engine default, 1 =
	// serial apply; negative values are rejected).
	ApplyConcurrency int
	// LeaseDuration is the sequencer-granted read-lease length
	// ("lease_duration", globally or under [options], a Go duration
	// like "500ms", or "off"). Zero (the default) enables leasing at
	// the group engine's default length; "off" (or any negative
	// duration) disables leases, sending every ordered read through
	// the total order.
	LeaseDuration time.Duration

	// explicitComputes records whether the compute shard placement
	// came from the file (every section declared "shard = N") or was
	// derived round-robin; SetShards re-derives only the latter.
	explicitComputes bool
}

// HeadDecl is one "[head <name>]" section.
type HeadDecl struct {
	Name   string
	GCS    string // TCP listen address of the group endpoint
	Client string // TCP listen address of the command endpoint
	PBS    string // TCP listen address of the mom-facing endpoint
	Shard  int    // replication group ("shard = N"; 0 in single-group files)
}

// ComputeDecl is one "[compute <name>]" section.
type ComputeDecl struct {
	Name  string
	Mom   string // TCP listen address of the mom endpoint
	Shard int    // owning group ("shard = N"; -1 = assign round-robin)
}

// Logical addresses, mirroring the simulated cluster's scheme.

// GCSAddr returns the head's group endpoint logical address.
func (h HeadDecl) GCSAddr() transport.Addr {
	return transport.Addr(h.Name + "/gcs")
}

// ClientAddr returns the head's command endpoint logical address.
func (h HeadDecl) ClientAddr() transport.Addr {
	return transport.Addr(h.Name + "/joshua")
}

// PBSAddr returns the head's mom-facing logical address.
func (h HeadDecl) PBSAddr() transport.Addr {
	return transport.Addr(h.Name + "/pbs")
}

// MomAddr returns the compute node's mom logical address.
func (c ComputeDecl) MomAddr() transport.Addr {
	return transport.Addr(c.Name + "/mom")
}

// MemberID returns the head's group member identity.
func (h HeadDecl) MemberID() gcs.MemberID { return gcs.MemberID(h.Name) }

// parseLeaseDuration interprets the "lease_duration" key: a Go
// duration string, or "off"/"disabled" for the broadcast-only
// ablation (mapped to -1, which the engine treats as leasing
// disabled).
func parseLeaseDuration(v string) (time.Duration, error) {
	switch v {
	case "off", "disabled":
		return -1, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("config: lease_duration: %v", err)
	}
	return d, nil
}

// LoadCluster parses a deployment description.
func LoadCluster(path string) (*ClusterFile, error) {
	f, err := Load(path)
	if err != nil {
		return nil, err
	}
	return ClusterFromFile(f)
}

// ClusterFromFile interprets a parsed configuration.
func ClusterFromFile(f *File) (*ClusterFile, error) {
	c := &ClusterFile{
		ServerName: f.Global("server_name", "cluster"),
		TimeScale:  1.0,
		Exclusive:  true,
		ClientBind: f.Global("client_bind", ""),
		DataDir:    f.Global("data_dir", ""),
		SyncPolicy: f.Global("sync_policy", ""),
	}
	if v := f.Global("lease_duration", ""); v != "" {
		var err error
		if c.LeaseDuration, err = parseLeaseDuration(v); err != nil {
			return nil, err
		}
	}
	if v := f.Global("sched_policy", ""); v != "" {
		var err error
		if c.SchedPolicy, err = pbs.ParseSchedPolicy(v); err != nil {
			return nil, err
		}
	}
	for _, sec := range f.SectionsOf("head") {
		if sec.Name == "" {
			return nil, fmt.Errorf("config: [head] section at line %d needs a name", sec.Line)
		}
		h := HeadDecl{Name: sec.Name}
		var err error
		if h.GCS, err = sec.Require("gcs"); err != nil {
			return nil, err
		}
		if h.Client, err = sec.Require("client"); err != nil {
			return nil, err
		}
		if h.PBS, err = sec.Require("pbs"); err != nil {
			return nil, err
		}
		sh, err := sec.Int("shard", 0)
		if err != nil {
			return nil, err
		}
		h.Shard = int(sh)
		c.Heads = append(c.Heads, h)
	}
	for _, sec := range f.SectionsOf("compute") {
		if sec.Name == "" {
			return nil, fmt.Errorf("config: [compute] section at line %d needs a name", sec.Line)
		}
		d := ComputeDecl{Name: sec.Name}
		var err error
		if d.Mom, err = sec.Require("mom"); err != nil {
			return nil, err
		}
		sh, err := sec.Int("shard", -1)
		if err != nil {
			return nil, err
		}
		d.Shard = int(sh)
		c.Computes = append(c.Computes, d)
	}
	if len(c.Heads) == 0 {
		return nil, fmt.Errorf("config: no [head <name>] sections")
	}
	c.Shards = 1
	if v := f.Global("shards", ""); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("config: shards must be a positive integer, got %q", v)
		}
		c.Shards = n
	}
	if opts := f.SectionsOf("options"); len(opts) > 0 {
		var err error
		if c.Exclusive, err = opts[0].Bool("exclusive", true); err != nil {
			return nil, err
		}
		if c.TimeScale, err = opts[0].Float("time_scale", 1.0); err != nil {
			return nil, err
		}
		if v := opts[0].Get("client_bind"); v != "" {
			c.ClientBind = v
		}
		if v := opts[0].Get("data_dir"); v != "" {
			c.DataDir = v
		}
		if v := opts[0].Get("sync_policy"); v != "" {
			c.SyncPolicy = v
		}
		if c.CheckpointEvery, err = opts[0].Uint("checkpoint_every", 0); err != nil {
			return nil, err
		}
		if c.CheckpointCompress, err = opts[0].Bool("checkpoint_compress", false); err != nil {
			return nil, err
		}
		if c.DeltaMaxBytes, err = opts[0].Int("delta_max_bytes", 0); err != nil {
			return nil, err
		}
		ac, err := opts[0].Uint("apply_concurrency", 0)
		if err != nil {
			return nil, err
		}
		c.ApplyConcurrency = int(ac)
		if v := opts[0].Get("lease_duration"); v != "" {
			if c.LeaseDuration, err = parseLeaseDuration(v); err != nil {
				return nil, err
			}
		}
		if v := opts[0].Get("shards"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("config: shards must be a positive integer, got %q", v)
			}
			c.Shards = n
		}
		if v := opts[0].Get("sched_policy"); v != "" {
			if c.SchedPolicy, err = pbs.ParseSchedPolicy(v); err != nil {
				return nil, err
			}
		}
		nc, err := opts[0].Int("node_cpus", 0)
		if err != nil {
			return nil, err
		}
		c.NodeCPUs = int(nc)
		if v := opts[0].Get("node_mem"); v != "" {
			if c.NodeMem, err = pbs.ParseMem(v); err != nil {
				return nil, fmt.Errorf("config: node_mem: %v", err)
			}
		}
		if c.FairshareHalfLife, err = opts[0].Uint("fairshare_half_life", 0); err != nil {
			return nil, err
		}
		wAge, err := opts[0].Int("sched_weight_age", 0)
		if err != nil {
			return nil, err
		}
		wSize, err := opts[0].Int("sched_weight_size", 0)
		if err != nil {
			return nil, err
		}
		wUser, err := opts[0].Int("sched_weight_user", 0)
		if err != nil {
			return nil, err
		}
		wFair, err := opts[0].Int("sched_weight_fair", 0)
		if err != nil {
			return nil, err
		}
		c.SchedWeights = pbs.SchedWeights{Age: wAge, Size: wSize, User: wUser, Fair: wFair}
	}
	sort.Slice(c.Heads, func(i, j int) bool { return c.Heads[i].Name < c.Heads[j].Name })
	sort.Slice(c.Computes, func(i, j int) bool { return c.Computes[i].Name < c.Computes[j].Name })
	seen := map[string]bool{}
	for _, h := range c.Heads {
		if seen[h.Name] {
			return nil, fmt.Errorf("config: duplicate head %q", h.Name)
		}
		seen[h.Name] = true
	}
	for _, d := range c.Computes {
		if seen[d.Name] {
			return nil, fmt.Errorf("config: duplicate node name %q", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range c.Computes {
		if d.Shard >= 0 {
			c.explicitComputes = true
		}
	}
	if err := c.validateShards(); err != nil {
		return nil, err
	}
	return c, nil
}

// SetShards overrides the shard count after parsing (the joshuad
// -shards flag) and re-validates the placement. Round-robin compute
// assignments are re-derived for the new count; explicit ones must
// still fit it.
func (c *ClusterFile) SetShards(n int) error {
	if n < 1 {
		return fmt.Errorf("config: shards must be >= 1, got %d", n)
	}
	c.Shards = n
	if !c.explicitComputes {
		for i := range c.Computes {
			c.Computes[i].Shard = -1
		}
	}
	return c.validateShards()
}

// validateShards checks the shard placement: every head's shard in
// range, every shard populated with at least one head, and compute
// declarations either all explicit or all implicit.
func (c *ClusterFile) validateShards() error {
	if c.Shards == 1 {
		for _, h := range c.Heads {
			if h.Shard != 0 {
				return fmt.Errorf("config: head %q declares shard %d but the deployment has 1 shard", h.Name, h.Shard)
			}
		}
		for i := range c.Computes {
			if c.Computes[i].Shard > 0 {
				return fmt.Errorf("config: compute %q declares shard %d but the deployment has 1 shard", c.Computes[i].Name, c.Computes[i].Shard)
			}
			c.Computes[i].Shard = 0
		}
		return nil
	}
	populated := make([]bool, c.Shards)
	for _, h := range c.Heads {
		if h.Shard < 0 || h.Shard >= c.Shards {
			return fmt.Errorf("config: head %q shard %d out of range (shards = %d)", h.Name, h.Shard, c.Shards)
		}
		populated[h.Shard] = true
	}
	for s, ok := range populated {
		if !ok {
			return fmt.Errorf("config: shard %d has no head nodes", s)
		}
	}
	explicit := 0
	for _, d := range c.Computes {
		if d.Shard >= 0 {
			explicit++
			if d.Shard >= c.Shards {
				return fmt.Errorf("config: compute %q shard %d out of range (shards = %d)", d.Name, d.Shard, c.Shards)
			}
		}
	}
	if explicit != 0 && explicit != len(c.Computes) {
		return fmt.Errorf("config: either every [compute] section declares a shard or none does (%d of %d do)", explicit, len(c.Computes))
	}
	if explicit == 0 {
		// Deal round-robin in name order — the same partition the
		// simulated cluster and shard.PartitionNodes use.
		for i := range c.Computes {
			c.Computes[i].Shard = i % c.Shards
		}
	}
	return nil
}

// Resolver builds the logical-to-TCP address table for every declared
// service endpoint.
func (c *ClusterFile) Resolver() tcpnet.StaticResolver {
	res := tcpnet.StaticResolver{}
	for _, h := range c.Heads {
		res[h.GCSAddr()] = h.GCS
		res[h.ClientAddr()] = h.Client
		res[h.PBSAddr()] = h.PBS
	}
	for _, d := range c.Computes {
		res[d.MomAddr()] = d.Mom
	}
	return res
}

// Head returns the declaration for a head by name.
func (c *ClusterFile) Head(name string) (HeadDecl, bool) {
	for _, h := range c.Heads {
		if h.Name == name {
			return h, true
		}
	}
	return HeadDecl{}, false
}

// Compute returns the declaration for a compute node by name.
func (c *ClusterFile) Compute(name string) (ComputeDecl, bool) {
	for _, d := range c.Computes {
		if d.Name == name {
			return d, true
		}
	}
	return ComputeDecl{}, false
}

// GroupPeers maps every head member ID to its group logical address.
func (c *ClusterFile) GroupPeers() map[gcs.MemberID]transport.Addr {
	peers := make(map[gcs.MemberID]transport.Addr, len(c.Heads))
	for _, h := range c.Heads {
		peers[h.MemberID()] = h.GCSAddr()
	}
	return peers
}

// HeadClientAddrs lists every head's command address, in name order.
func (c *ClusterFile) HeadClientAddrs() []transport.Addr {
	addrs := make([]transport.Addr, 0, len(c.Heads))
	for _, h := range c.Heads {
		addrs = append(addrs, h.ClientAddr())
	}
	return addrs
}

// HeadPBSAddrs lists every head's mom-facing address.
func (c *ClusterFile) HeadPBSAddrs() []transport.Addr {
	addrs := make([]transport.Addr, 0, len(c.Heads))
	for _, h := range c.Heads {
		addrs = append(addrs, h.PBSAddr())
	}
	return addrs
}

// NodeNames lists the compute node names in order.
func (c *ClusterFile) NodeNames() []string {
	names := make([]string, 0, len(c.Computes))
	for _, d := range c.Computes {
		names = append(names, d.Name)
	}
	return names
}

// ShardHeads groups the head declarations by shard, in name order
// within each shard.
func (c *ClusterFile) ShardHeads() [][]HeadDecl {
	groups := make([][]HeadDecl, c.Shards)
	for _, h := range c.Heads {
		groups[h.Shard] = append(groups[h.Shard], h)
	}
	return groups
}

// ShardHeadClientAddrs lists every shard's head command addresses —
// the client-side shard map (joshua.ClientConfig.Shards).
func (c *ClusterFile) ShardHeadClientAddrs() [][]transport.Addr {
	groups := make([][]transport.Addr, c.Shards)
	for _, h := range c.Heads {
		groups[h.Shard] = append(groups[h.Shard], h.ClientAddr())
	}
	return groups
}

// ShardNodeNames lists every shard's compute node names — the
// client-side node partition (joshua.ClientConfig.ShardNodes).
func (c *ClusterFile) ShardNodeNames() [][]string {
	groups := make([][]string, c.Shards)
	for _, d := range c.Computes {
		groups[d.Shard] = append(groups[d.Shard], d.Name)
	}
	return groups
}

// ShardOfHead returns the shard a head belongs to (by name).
func (c *ClusterFile) ShardOfHead(name string) (int, bool) {
	h, ok := c.Head(name)
	return h.Shard, ok
}

// ShardNodeNamesOf lists the compute node names owned by one shard.
func (c *ClusterFile) ShardNodeNamesOf(s int) []string {
	var names []string
	for _, d := range c.Computes {
		if d.Shard == s {
			names = append(names, d.Name)
		}
	}
	return names
}

// ShardMomAddrs maps one shard's compute node names to mom addresses.
func (c *ClusterFile) ShardMomAddrs(s int) map[string]transport.Addr {
	m := make(map[string]transport.Addr)
	for _, d := range c.Computes {
		if d.Shard == s {
			m[d.Name] = d.MomAddr()
		}
	}
	return m
}

// ShardGroupPeers maps one shard's head member IDs to group addresses.
func (c *ClusterFile) ShardGroupPeers(s int) map[gcs.MemberID]transport.Addr {
	peers := make(map[gcs.MemberID]transport.Addr)
	for _, h := range c.Heads {
		if h.Shard == s {
			peers[h.MemberID()] = h.GCSAddr()
		}
	}
	return peers
}

// ShardHeadPBSAddrs lists one shard's head mom-facing addresses.
func (c *ClusterFile) ShardHeadPBSAddrs(s int) []transport.Addr {
	var addrs []transport.Addr
	for _, h := range c.Heads {
		if h.Shard == s {
			addrs = append(addrs, h.PBSAddr())
		}
	}
	return addrs
}

// MomAddrs maps compute node names to mom logical addresses.
func (c *ClusterFile) MomAddrs() map[string]transport.Addr {
	m := make(map[string]transport.Addr, len(c.Computes))
	for _, d := range c.Computes {
		m[d.Name] = d.MomAddr()
	}
	return m
}
