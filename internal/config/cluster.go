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
	"joshua/internal/wal"
)

// ClusterFile is the deployment description used by the joshuad,
// jmomd, and control-command binaries: which head nodes exist, where
// each of their services listens, and which compute nodes run moms.
//
// Deployment-wide keys may be set at top level (before any section) or
// under [options], which overrides the top level; the key each field
// reads is named in its comment. A key outside that set is an error.
type ClusterFile struct {
	// ServerName suffixes job IDs; identical on every head
	// ("server_name"; default "cluster").
	ServerName string
	// Shards is the number of independent replication groups the
	// deployment is partitioned into ("shards"; default 1). With more
	// than one shard every [head] section must carry a "shard = N" key
	// placing it in a group, and compute nodes either all declare
	// "shard = N" or are dealt round-robin across shards in name order.
	Shards   int
	Heads    []HeadDecl
	Computes []ComputeDecl
	// Exclusive selects the paper's one-job-per-node Maui policy
	// ("exclusive"; default true).
	Exclusive bool
	// SchedPolicy selects the scheduling pipeline ("sched_policy":
	// fifo, priority, or backfill; default fifo — the paper's
	// configuration).
	SchedPolicy pbs.SchedPolicy
	// SchedWeights are the priority-stage weights ("sched_weight_age",
	// "sched_weight_size", "sched_weight_user", "sched_weight_fair";
	// all-zero selects pbs.DefaultSchedWeights).
	SchedWeights pbs.SchedWeights
	// FairshareHalfLife is the fairshare decay half-life in logical
	// ticks ("fairshare_half_life"; 0 = no decay).
	FairshareHalfLife uint64
	// NodeCPUs / NodeMem set per-node schedulable capacity
	// ("node_cpus", "node_mem"; node_mem accepts PBS sizes like "4gb").
	NodeCPUs int
	NodeMem  int64
	// TimeScale scales simulated job wall time on the moms
	// ("time_scale"; default 1).
	TimeScale float64
	// ClientBind is the local TCP address control commands listen on
	// for replies ("client_bind"). Empty means an ephemeral loopback
	// port, which only works when the head nodes run on the same
	// machine; multi-machine deployments set it to an address the heads
	// can route back to, e.g. "10.0.0.7:0" or "0.0.0.0:0".
	ClientBind string
	// DataDir enables each head's durable write-ahead log and
	// checkpoints under <data_dir>/<head name> ("data_dir"). Empty runs
	// heads purely in-memory.
	DataDir string
	// SyncPolicy is the WAL fsync policy ("sync_policy": always,
	// interval, or none; default interval).
	SyncPolicy wal.SyncPolicy
	// CheckpointEvery is the applied-command cadence between
	// checkpoints ("checkpoint_every"; 0 = engine default).
	CheckpointEvery uint64
	// LeaseDuration is the sequencer-granted read-lease length
	// ("lease_duration", a Go duration like "500ms"; 0 = the group
	// engine's default; negative values are rejected).
	LeaseDuration time.Duration

	// explicitComputes records whether the compute shard placement
	// came from the file (every section declared "shard = N") or was
	// derived round-robin; SetShards re-derives only the latter.
	explicitComputes bool
}

// clusterKeys is every key a top-level line or [options] may set.
var clusterKeys = map[string]bool{
	"server_name": true, "shards": true, "exclusive": true,
	"sched_policy": true, "sched_weight_age": true, "sched_weight_size": true,
	"sched_weight_user": true, "sched_weight_fair": true, "fairshare_half_life": true,
	"node_cpus": true, "node_mem": true, "time_scale": true, "client_bind": true,
	"data_dir": true, "sync_policy": true, "checkpoint_every": true,
	"lease_duration": true,
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

// LoadCluster parses a deployment description.
func LoadCluster(path string) (*ClusterFile, error) {
	f, err := Load(path)
	if err != nil {
		return nil, err
	}
	return ClusterFromFile(f)
}

// options merges the top-level keys with the first [options]
// section's, which override them, and rejects an unknown key by line.
func options(f *File) (*Section, error) {
	merged := newSection("options", "", 0)
	srcs := []*Section{f.Globals}
	if opts := f.SectionsOf("options"); len(opts) > 0 {
		srcs = append(srcs, opts[0])
	}
	for _, src := range srcs {
		var unknown *ParseError
		for k, v := range src.Keys {
			if !clusterKeys[k] {
				if line := src.lines[k]; unknown == nil || line < unknown.Line {
					unknown = &ParseError{line, fmt.Sprintf("unknown key %q", k)}
				}
			}
			merged.Keys[k] = v
		}
		if unknown != nil {
			return nil, unknown
		}
	}
	return merged, nil
}

// keyReader reads typed keys from one section, keeping the first
// error so a run of reads needs one check.
type keyReader struct {
	s   *Section
	err error
}

func (r *keyReader) keep(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *keyReader) int(key string) int64 {
	v, err := r.s.Int(key, 0)
	r.keep(err)
	return v
}

func (r *keyReader) uint(key string) uint64 {
	v, err := r.s.Uint(key, 0)
	r.keep(err)
	return v
}

func (r *keyReader) bool(key string, def bool) bool {
	v, err := r.s.Bool(key, def)
	r.keep(err)
	return v
}

func (r *keyReader) float(key string, def float64) float64 {
	v, err := r.s.Float(key, def)
	r.keep(err)
	return v
}

// parsed returns parse(value) for a key that is set, and T's zero
// value for one that is not.
func parsed[T any](r *keyReader, key string, parse func(string) (T, error)) T {
	var v T
	if s := r.s.Get(key); s != "" {
		var err error
		if v, err = parse(s); err != nil {
			r.keep(fmt.Errorf("config: key %q: %v", key, err))
		}
	}
	return v
}

func positive(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("want a positive integer, got %q", s)
	}
	return n, nil
}

func nonNegative(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %v", d)
	}
	return d, err
}

// ClusterFromFile interprets a parsed configuration.
func ClusterFromFile(f *File) (*ClusterFile, error) {
	o, err := options(f)
	if err != nil {
		return nil, err
	}
	r := &keyReader{s: o}
	c := &ClusterFile{
		ServerName:        o.Get("server_name"),
		Shards:            parsed(r, "shards", positive),
		Exclusive:         r.bool("exclusive", true),
		SchedPolicy:       parsed(r, "sched_policy", pbs.ParseSchedPolicy),
		FairshareHalfLife: r.uint("fairshare_half_life"),
		SchedWeights: pbs.SchedWeights{
			Age:  r.int("sched_weight_age"),
			Size: r.int("sched_weight_size"),
			User: r.int("sched_weight_user"),
			Fair: r.int("sched_weight_fair"),
		},
		NodeCPUs:        int(r.int("node_cpus")),
		NodeMem:         parsed(r, "node_mem", pbs.ParseMem),
		TimeScale:       r.float("time_scale", 1),
		ClientBind:      o.Get("client_bind"),
		DataDir:         o.Get("data_dir"),
		SyncPolicy:      parsed(r, "sync_policy", wal.ParseSyncPolicy),
		CheckpointEvery: r.uint("checkpoint_every"),
		LeaseDuration:   parsed(r, "lease_duration", nonNegative),
	}
	if r.err != nil {
		return nil, r.err
	}
	if c.ServerName == "" {
		c.ServerName = "cluster"
	}
	if c.Shards == 0 {
		c.Shards = 1
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

// MomAddrs maps compute node names to mom logical addresses.
func (c *ClusterFile) MomAddrs() map[string]transport.Addr {
	m := make(map[string]transport.Addr, len(c.Computes))
	for _, d := range c.Computes {
		m[d.Name] = d.MomAddr()
	}
	return m
}
