package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/wal"
)

const sample = `
# JOSHUA cluster configuration
server_name = cluster

[head head0]
gcs    = 127.0.0.1:7000
client = 127.0.0.1:7001
pbs    = 127.0.0.1:7002

[head head1]
gcs    = 127.0.0.1:7010
client = 127.0.0.1:7011
pbs    = 127.0.0.1:7012

[compute compute0]
mom = 127.0.0.1:7100

[options]
exclusive  = true
time_scale = 0.5   # scaled-down job wall times
`

func TestParseSample(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Globals.Get("server_name"); got != "cluster" {
		t.Errorf("server_name = %q", got)
	}
	heads := f.SectionsOf("head")
	if len(heads) != 2 || heads[0].Name != "head0" || heads[1].Name != "head1" {
		t.Fatalf("heads = %+v", heads)
	}
	if got := heads[0].Get("client"); got != "127.0.0.1:7001" {
		t.Errorf("client = %q", got)
	}
	opts := f.SectionsOf("options")[0]
	b, err := opts.Bool("exclusive", false)
	if err != nil || !b {
		t.Errorf("exclusive = %v, %v", b, err)
	}
	fl, err := opts.Float("time_scale", 1)
	if err != nil || fl != 0.5 {
		t.Errorf("time_scale = %v, %v", fl, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"[unterminated":     "unterminated",
		"[]":                "empty section",
		"keywithoutvalue":   "expected key",
		"= value":           "empty key",
		"a = 1\na = 2":      "duplicate key",
		"[s]\nx = 1\nx = 2": "duplicate key",
	}
	for input, wantSub := range cases {
		_, err := Parse(strings.NewReader(input))
		if err == nil {
			t.Errorf("Parse(%q) should fail", input)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) err = %v, want mention of %q", input, err, wantSub)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse(strings.NewReader("ok = 1\nbroken line\n"))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
}

func TestSectionHelpers(t *testing.T) {
	f, _ := Parse(strings.NewReader("[s one]\nd = 250ms\n[s two]\n"))
	names := f.SectionNames("s")
	if len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Errorf("names = %v", names)
	}
	s := f.SectionsOf("s")[0]
	d, err := s.Duration("d", time.Second)
	if err != nil || d != 250*time.Millisecond {
		t.Errorf("Duration = %v, %v", d, err)
	}
	d, err = s.Duration("missing", time.Second)
	if err != nil || d != time.Second {
		t.Errorf("default Duration = %v, %v", d, err)
	}
	if _, err := s.Require("missing"); err == nil {
		t.Error("Require of missing key should fail")
	}
	if _, err := s.Bool("d", false); err == nil {
		t.Error("Bool of non-boolean should fail")
	}
}

func TestLoadCluster(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.conf")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCluster(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.ServerName != "cluster" || !c.Exclusive || c.TimeScale != 0.5 {
		t.Errorf("cluster = %+v", c)
	}
	if len(c.Heads) != 2 || len(c.Computes) != 1 {
		t.Fatalf("cluster topology = %+v", c)
	}

	res := c.Resolver()
	if got, ok := res.Resolve("head1/joshua"); !ok || got != "127.0.0.1:7011" {
		t.Errorf("resolver head1/joshua = %q, %v", got, ok)
	}
	if got, ok := res.Resolve("compute0/mom"); !ok || got != "127.0.0.1:7100" {
		t.Errorf("resolver compute0/mom = %q, %v", got, ok)
	}

	peers := c.GroupPeers()
	if peers["head0"] != "head0/gcs" || len(peers) != 2 {
		t.Errorf("peers = %v", peers)
	}
	if got := c.HeadClientAddrs(); len(got) != 2 || got[0] != "head0/joshua" {
		t.Errorf("client addrs = %v", got)
	}
	if got := c.NodeNames(); len(got) != 1 || got[0] != "compute0" {
		t.Errorf("node names = %v", got)
	}
	h, ok := c.Head("head1")
	if !ok || h.GCS != "127.0.0.1:7010" {
		t.Errorf("Head(head1) = %+v, %v", h, ok)
	}
	if _, ok := c.Head("nope"); ok {
		t.Error("Head(nope) should be absent")
	}
	if _, ok := c.Compute("compute0"); !ok {
		t.Error("Compute(compute0) missing")
	}
}

func TestClusterClientBind(t *testing.T) {
	head := "[head h]\ngcs=a\nclient=b\npbs=c\n"

	parse := func(input string) *ClusterFile {
		t.Helper()
		f, err := Parse(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ClusterFromFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	if c := parse(head); c.ClientBind != "" {
		t.Errorf("default ClientBind = %q, want empty", c.ClientBind)
	}
	if c := parse("client_bind = 10.0.0.7:0\n" + head); c.ClientBind != "10.0.0.7:0" {
		t.Errorf("global ClientBind = %q", c.ClientBind)
	}
	if c := parse(head + "[options]\nclient_bind = 0.0.0.0:0\n"); c.ClientBind != "0.0.0.0:0" {
		t.Errorf("options ClientBind = %q", c.ClientBind)
	}
	// The [options] key overrides the global.
	if c := parse("client_bind = 10.0.0.7:0\n" + head + "[options]\nclient_bind = 0.0.0.0:0\n"); c.ClientBind != "0.0.0.0:0" {
		t.Errorf("override ClientBind = %q", c.ClientBind)
	}
}

func TestClusterSchedulerOptions(t *testing.T) {
	head := "[head h]\ngcs=a\nclient=b\npbs=c\n"

	parse := func(input string) *ClusterFile {
		t.Helper()
		f, err := Parse(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ClusterFromFile(f)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := parse("sched_policy = backfill\n" + head + `[options]
node_cpus = 8
node_mem = 64gb
fairshare_half_life = 3600000000000
sched_weight_age = 2
sched_weight_size = 3
sched_weight_user = 500
sched_weight_fair = 7
`)
	if c.SchedPolicy != pbs.PolicyBackfill {
		t.Errorf("SchedPolicy = %v", c.SchedPolicy)
	}
	if c.NodeCPUs != 8 || c.NodeMem != 64<<30 {
		t.Errorf("NodeCPUs/NodeMem = %d/%d", c.NodeCPUs, c.NodeMem)
	}
	if c.FairshareHalfLife != 3600000000000 {
		t.Errorf("FairshareHalfLife = %d", c.FairshareHalfLife)
	}
	if w := (pbs.SchedWeights{Age: 2, Size: 3, User: 500, Fair: 7}); c.SchedWeights != w {
		t.Errorf("SchedWeights = %+v", c.SchedWeights)
	}
	// The [options] sched_policy overrides the global spelling.
	if c := parse("sched_policy = fifo\n" + head + "[options]\nsched_policy = priority\n"); c.SchedPolicy != pbs.PolicyPriority {
		t.Errorf("override SchedPolicy = %v", c.SchedPolicy)
	}
	// Defaults: fifo, 1-cpu nodes implied downstream by zero values.
	if c := parse(head); c.SchedPolicy != pbs.PolicyFIFO || c.NodeCPUs != 0 || c.NodeMem != 0 {
		t.Errorf("defaults = %v/%d/%d", c.SchedPolicy, c.NodeCPUs, c.NodeMem)
	}
	// Bad values are rejected with errors.
	for _, input := range []string{
		"sched_policy = roundrobin\n" + head,
		head + "[options]\nnode_mem = lots\n",
		head + "[options]\nnode_cpus = many\n",
	} {
		if f, err := Parse(strings.NewReader(input)); err == nil {
			if _, err := ClusterFromFile(f); err == nil {
				t.Errorf("ClusterFromFile(%q) should fail", input)
			}
		}
	}
}

func TestClusterValidation(t *testing.T) {
	bad := []string{
		"[head]\ngcs=a\nclient=b\npbs=c\n", // unnamed head
		"[head h]\nclient=b\npbs=c\n",      // missing gcs
		"[compute c]\n",                    // missing mom
		"x = 1\n",                          // no heads at all
		"[head h]\ngcs=a\nclient=b\npbs=c\n[compute h]\nmom=d", // duplicate name
	}
	for _, input := range bad {
		f, err := Parse(strings.NewReader(input))
		if err != nil {
			continue // parse-level failure also acceptable
		}
		if _, err := ClusterFromFile(f); err == nil {
			t.Errorf("ClusterFromFile(%q) should fail", input)
		}
	}
}

func TestClusterEngineOptions(t *testing.T) {
	head := "[head h]\ngcs=a\nclient=b\npbs=c\n"
	cluster := func(input string) (*ClusterFile, error) {
		t.Helper()
		f, err := Parse(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		return ClusterFromFile(f)
	}

	c, err := cluster(head + "[options]\napply_concurrency = 4\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.ApplyConcurrency != 4 {
		t.Errorf("ApplyConcurrency = %d, want 4", c.ApplyConcurrency)
	}
	// A pool size is never negative.
	if _, err := cluster(head + "[options]\napply_concurrency = -1\n"); err == nil {
		t.Error("apply_concurrency = -1 should be rejected")
	}

	// Every key is read at top level too, with [options] overriding.
	c, err = cluster("apply_concurrency = 4\ncheckpoint_every = 64\n" + head + "[options]\ncheckpoint_every = 128\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.ApplyConcurrency != 4 || c.CheckpointEvery != 128 {
		t.Errorf("ApplyConcurrency/CheckpointEvery = %d/%d, want 4/128", c.ApplyConcurrency, c.CheckpointEvery)
	}
	c, err = cluster(head + "[options]\nsync_policy = always\nlease_duration = 300ms\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.SyncPolicy != wal.SyncAlways || c.LeaseDuration != 300*time.Millisecond {
		t.Errorf("SyncPolicy/LeaseDuration = %v/%v, want always/300ms", c.SyncPolicy, c.LeaseDuration)
	}
}

func TestClusterRejectsUnknownKeys(t *testing.T) {
	head := "[head h]\ngcs=a\nclient=b\npbs=c\n"
	for input, line := range map[string]string{
		"server_name = x\napply_concurency = 4\n" + head:             "line 2:",
		head + "[options]\nexclusive = true\napply_concurency = 4\n": "line 7:",
		head + "[options]\nsync-policy = always\n":                   "line 6:",
		"checkpoint_compress = true\n" + head:                        "line 1:",
	} {
		f, err := Parse(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		_, err = ClusterFromFile(f)
		if err == nil || !strings.Contains(err.Error(), line) || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("ClusterFromFile(%q) = %v, want an unknown-key error at %s", input, err, line)
		}
	}
	// [head] and [compute] keys are not deployment-wide options.
	f, err := Parse(strings.NewReader(head + "shard = 0\n[compute n]\nmom = d\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ClusterFromFile(f); err != nil {
		t.Errorf("section keys rejected: %v", err)
	}
}

func TestClusterRejectsBadLeaseDuration(t *testing.T) {
	head := "[head h]\ngcs=a\nclient=b\npbs=c\n"
	for _, input := range []string{
		"lease_duration = off\n" + head,
		head + "[options]\nlease_duration = -1s\n",
	} {
		f, err := Parse(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ClusterFromFile(f); err == nil || !strings.Contains(err.Error(), "lease_duration") {
			t.Errorf("ClusterFromFile(%q) = %v, want an error naming lease_duration", input, err)
		}
	}
}
