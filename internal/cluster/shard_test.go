package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/shard"
	"joshua/internal/simnet"
)

func testShardOptions(shards, heads, computes int) Options {
	opts := testOptions(heads, computes)
	opts.Shards = shards
	return opts
}

// shardConsistent reports whether all live heads of one shard agree on
// the shard's full job listing.
func shardConsistent(c *Cluster, s int) (bool, string) {
	var ref string
	var refIdx int
	for n, i := range c.LiveHeadsOf(s) {
		d := dumpJobs(c.HeadOf(s, i).Daemon().StatusAll())
		if n == 0 {
			ref, refIdx = d, i
			continue
		}
		if d != ref {
			return false, fmt.Sprintf("shard %d head%d:\n%s\nhead%d:\n%s", s, refIdx, ref, i, d)
		}
	}
	return true, ""
}

// TestShardedScatterGatherNeverMissesAckedJobs is the central
// consistency property of the sharded read path: a job whose
// submission was acknowledged must appear in every subsequent
// whole-cluster jstat, even while one shard's head is crashed
// mid-listing (the client fails over within that shard and retries
// regressed snapshots).
func TestShardedScatterGatherNeverMissesAckedJobs(t *testing.T) {
	c := newCluster(t, testShardOptions(2, 2, 4))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 24
	var acked []pbs.JobID
	for k := 0; k < jobs; k++ {
		if k == jobs/2 {
			// Mid-run, kill one head of shard 1: listings must keep
			// covering shard 1's jobs via its surviving head.
			c.CrashHeadOf(1, c.LiveHeadsOf(1)[0])
		}
		j, err := cli.Submit(pbs.SubmitRequest{
			Name: fmt.Sprintf("sg%02d", k), Owner: "alice", Hold: true,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
		acked = append(acked, j.ID)

		listed, err := cli.StatAll()
		if err != nil {
			t.Fatalf("jstat-all after submit %d: %v", k, err)
		}
		have := make(map[pbs.JobID]bool, len(listed))
		for _, lj := range listed {
			have[lj.ID] = true
		}
		for _, id := range acked {
			if !have[id] {
				t.Fatalf("acked job %s missing from jstat-all after submit %d (head of shard 1 crashed: %v)\nlisting:\n%s",
					id, k, k >= jobs/2, dumpJobs(listed))
			}
		}
	}

	// Both shards contributed: the submit round-robin plus per-shard ID
	// minting means each shard owns only IDs that route to it.
	perShard := map[int]int{}
	for _, id := range acked {
		perShard[shard.RouteJob(id, c.Shards())]++
	}
	for s := 0; s < c.Shards(); s++ {
		if perShard[s] == 0 {
			t.Fatalf("shard %d owns no submitted jobs; routing is degenerate: %v", s, perShard)
		}
	}
}

// TestShardedJobsRouteAndReplicatePerShard checks the partition
// invariants: every job lands only on the replicas of the shard that
// owns its ID, replicas within each shard converge to identical
// listings, and cross-shard client operations (stat/delete by bare
// ID) reach the owning shard.
func TestShardedJobsRouteAndReplicatePerShard(t *testing.T) {
	c := newCluster(t, testShardOptions(2, 2, 4))
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	var ids []pbs.JobID
	for k := 0; k < 12; k++ {
		j, err := cli.Submit(pbs.SubmitRequest{
			Name: fmt.Sprintf("part%02d", k), Owner: "alice", Hold: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	// Each head holds exactly the jobs its shard owns.
	for s := 0; s < c.Shards(); s++ {
		for _, i := range c.LiveHeadsOf(s) {
			for _, j := range c.HeadOf(s, i).Daemon().StatusAll() {
				if owner := shard.RouteJob(j.ID, c.Shards()); owner != s {
					t.Fatalf("job %s lives on shard %d but routes to shard %d", j.ID, s, owner)
				}
			}
		}
	}
	for s := 0; s < c.Shards(); s++ {
		s := s
		waitFor(t, 15*time.Second, fmt.Sprintf("shard %d replicas to converge", s), func() bool {
			ok, _ := shardConsistent(c, s)
			return ok
		})
		if ok, diff := shardConsistent(c, s); !ok {
			t.Fatalf("shard replicas diverged:\n%s", diff)
		}
	}

	// Cross-shard single-job operations: stat and delete by ID work for
	// every job no matter which shard owns it.
	for _, id := range ids {
		j, err := cli.Stat(id)
		if err != nil {
			t.Fatalf("stat %s: %v", id, err)
		}
		if j.ID != id {
			t.Fatalf("stat %s returned job %s", id, j.ID)
		}
	}
	victim := ids[len(ids)-1]
	if _, err := cli.Delete(victim); err != nil {
		t.Fatalf("delete %s: %v", victim, err)
	}
	listed, err := cli.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range listed {
		if j.ID == victim {
			t.Fatalf("deleted job %s still listed:\n%s", victim, dumpJobs(listed))
		}
	}
	if len(listed) != len(ids)-1 {
		t.Fatalf("merged listing has %d jobs, want %d:\n%s", len(listed), len(ids)-1, dumpJobs(listed))
	}

	// Whole-cluster jnodes: every shard's nodes once, in shard order.
	var want, got []string
	for s := 0; s < c.Shards(); s++ {
		for _, n := range c.HeadOf(s, c.LiveHeadsOf(s)[0]).Daemon().Server().NodesStatus() {
			want = append(want, n.Name)
		}
	}
	nodes, err := cli.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		got = append(got, n.Name)
	}
	if len(want) != 4 || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("jnodes lists %v, want each shard's nodes in shard order %v", got, want)
	}
}

// TestShardedJobsExecuteOncePerShard runs real (non-hold) jobs through
// a 2-shard cluster: every job executes exactly once on a node of its
// owning shard, and completions replicate within each shard.
func TestShardedJobsExecuteOncePerShard(t *testing.T) {
	opts := testShardOptions(2, 2, 4)
	opts.Latency = simnet.Latency{Remote: time.Millisecond}
	c := newCluster(t, opts)
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 8
	for k := 0; k < jobs; k++ {
		if _, err := cli.Submit(pbs.SubmitRequest{
			Name: fmt.Sprintf("run%02d", k), Owner: "alice",
			WallTime: 20 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "all jobs to complete", func() bool {
		listed, err := cli.StatAll()
		if err != nil || len(listed) != jobs {
			return false
		}
		for _, j := range listed {
			if j.State != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
	if got := totalExecutions(c); got != jobs {
		t.Fatalf("jobs executed %d times in total, want exactly %d", got, jobs)
	}
	// A job must have run on a node owned by its shard.
	listed, err := cli.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range listed {
		owner := shard.RouteJob(j.ID, c.Shards())
		nodes := c.ShardNodes(owner)
		for _, n := range j.Nodes {
			ok := false
			for _, sn := range nodes {
				if n == sn {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("job %s (shard %d) ran on node %s, not in shard's partition %v",
					j.ID, owner, n, nodes)
			}
		}
	}
}

// TestShardedConcurrentClientsConsistency hammers a 2-shard cluster
// from several goroutines sharing routed clients and checks the
// merged listing and per-shard replica agreement afterwards.
func TestShardedConcurrentClientsConsistency(t *testing.T) {
	c := newCluster(t, testShardOptions(2, 2, 4))

	const workers, per = 4, 6
	clis := make([]*clientHandle, workers)
	for i := range clis {
		cli, err := c.Client()
		if err != nil {
			t.Fatal(err)
		}
		clis[i] = &clientHandle{cli: cli}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				j, err := clis[i].cli.Submit(pbs.SubmitRequest{
					Name: fmt.Sprintf("w%dj%d", i, k), Owner: "alice", Hold: true,
				})
				if err != nil {
					errs[i] = err
					return
				}
				clis[i].ids = append(clis[i].ids, j.ID)
				if _, err := clis[i].cli.StatAll(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	listed, err := clis[0].cli.StatAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != workers*per {
		t.Fatalf("merged listing has %d jobs, want %d:\n%s", len(listed), workers*per, dumpJobs(listed))
	}
	have := map[pbs.JobID]bool{}
	for _, j := range listed {
		have[j.ID] = true
	}
	for i, h := range clis {
		for _, id := range h.ids {
			if !have[id] {
				t.Fatalf("worker %d's acked job %s missing from final listing", i, id)
			}
		}
	}
	// Merged listing is sorted by submission sequence within shards
	// merged into one run; IDs must be unique.
	seen := map[pbs.JobID]bool{}
	for _, j := range listed {
		if seen[j.ID] {
			t.Fatalf("duplicate job %s in merged listing:\n%s", j.ID, dumpJobs(listed))
		}
		seen[j.ID] = true
	}
	for s := 0; s < c.Shards(); s++ {
		s := s
		waitFor(t, 15*time.Second, fmt.Sprintf("shard %d replicas to converge", s), func() bool {
			ok, _ := shardConsistent(c, s)
			return ok
		})
	}
}

type clientHandle struct {
	cli interface {
		Submit(pbs.SubmitRequest) (pbs.Job, error)
		StatAll() ([]pbs.Job, error)
	}
	ids []pbs.JobID
}

// TestShardedClusterSingleShardMatchesLegacy guards the refactor: a
// 1-shard cluster behaves exactly like the pre-sharding harness —
// legacy accessors work and host names are unchanged.
func TestShardedClusterSingleShardMatchesLegacy(t *testing.T) {
	c := newCluster(t, testOptions(2, 1))
	if c.Shards() != 1 {
		t.Fatalf("default cluster has %d shards, want 1", c.Shards())
	}
	cli, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	j, err := cli.Submit(pbs.SubmitRequest{Name: "legacy", Owner: "alice", Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(j.ID), ".cluster") {
		t.Fatalf("unexpected job ID %q", j.ID)
	}
	info, err := cli.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info["shard"] != "0" || info["shards"] != "1" {
		t.Fatalf("info reports shard=%q shards=%q, want 0/1", info["shard"], info["shards"])
	}
}
