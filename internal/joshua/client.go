package joshua

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/shard"
	"joshua/internal/transport"
)

// Client is the control-command library behind jsub, jdel, and jstat
// (and the mom's jdone epilogue). It connects to the JOSHUA server
// group over the network and may be pointed at any or all of the
// active head nodes: the rsm client engine retries a request against
// the next head when one stops answering, and the servers'
// deduplication table makes retries idempotent, so a command submitted
// during a head-node failure is executed exactly once and answered as
// soon as a survivor picks it up — the "continuous availability
// without any interruption of service" the paper demonstrates.
//
// A deployment may run several independent replicated groups
// ("shards", see internal/shard), each owning a slice of the job
// space and node pool. The client owns all routing, so submitters
// still see one logical scheduler: job-addressed commands go sticky
// to the owning shard (computed locally from the job ID hash),
// submissions spread round-robin, and whole-cluster queries (jstat
// with no arguments, jnodes) scatter-gather across every shard and
// merge the per-shard prefix-consistent snapshots. Each shard is one
// of the engine's groups, so head failover and health tracking run
// independently per shard.
type Client struct {
	rc *rsm.Client[*rpcResponse]
	// nodes is the compute-node partition (may be nil: node commands
	// then fan out).
	nodes [][]string
	// submitRR spreads submissions (which carry no job ID yet) across
	// shards; each shard mints IDs that route back to itself, so any
	// shard may take any submission.
	submitRR atomic.Uint64
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Endpoint is the client's transport attachment; the client owns
	// and closes it.
	Endpoint transport.Endpoint
	// Heads lists the client-RPC addresses of the head nodes, in
	// preference order — the single-group deployment. Exactly one of
	// Heads or Shards must be set.
	Heads []transport.Addr
	// Shards lists the head addresses of every replication group in a
	// sharded deployment: Shards[s] are shard s's heads in preference
	// order (shard.Map.Heads). Routing is deterministic per
	// internal/shard; every client and server must agree on the shard
	// order.
	Shards [][]transport.Addr
	// ShardNodes is the compute-node partition (shard.Map.Nodes),
	// used to route node commands (jnodes -o/-c) to the owning shard.
	// Optional: without it node commands fan out across shards.
	ShardNodes [][]string

	// The client engine's settings: see rsm.ClientConfig.
	AttemptTimeout time.Duration
	Rounds         int
	RedeemAfter    time.Duration
}

// Errors returned by the client, shared with every rsm client.
var (
	ErrNoHeads        = rsm.ErrNoHeads
	ErrUnreached      = rsm.ErrUnreached
	ErrNoHealthyHeads = rsm.ErrNoHealthyHeads
	ErrClosed         = rsm.ErrClosed
)

// clientCodec is what the rsm client engine needs of a head's replies.
var clientCodec = rsm.ClientCodec[*rpcResponse]{
	Decode: func(b []byte) (*rpcResponse, string, error) {
		resp := respPool.Get().(*rpcResponse)
		if err := decodeResponse(b, resp); err != nil {
			releaseResponse(resp)
			return nil, "", err
		}
		return resp, resp.ReqID, nil
	},
	NotPrimary: func(r *rpcResponse) bool { return !r.OK && r.ErrMsg == ErrNotPrimary.Error() },
	Epoch:      func(r *rpcResponse) uint64 { return r.Epoch },
	Release:    releaseResponse,
	Probe:      func(reqID string) []byte { return (&rpcRequest{ReqID: reqID, Op: OpInfoLocal}).encode() },
}

// NewClient creates a client and starts its receive loop.
func NewClient(cfg ClientConfig) (*Client, error) {
	groups := cfg.Shards
	if len(groups) == 0 && len(cfg.Heads) > 0 {
		groups = [][]transport.Addr{cfg.Heads}
	} else if len(cfg.Heads) > 0 {
		return nil, errors.New("joshua: set ClientConfig.Heads or Shards, not both")
	}
	if cfg.ShardNodes != nil && len(cfg.ShardNodes) != len(groups) {
		return nil, fmt.Errorf("joshua: ShardNodes covers %d shards, Shards has %d", len(cfg.ShardNodes), len(groups))
	}
	rc, err := rsm.NewClient(rsm.ClientConfig{
		Endpoint:       cfg.Endpoint,
		Groups:         groups,
		AttemptTimeout: cfg.AttemptTimeout,
		Rounds:         cfg.Rounds,
		RedeemAfter:    cfg.RedeemAfter,
	}, clientCodec)
	if err != nil {
		return nil, err
	}
	c := &Client{rc: rc, nodes: cfg.ShardNodes}
	// Each client starts its submission rotation at a random shard: a
	// fleet of submitters created together would otherwise convoy
	// through the shards in lockstep, every client queued on the same
	// group while the others sit idle.
	c.submitRR.Store(rand.Uint64())
	return c, nil
}

// routeJob returns the shard owning a job ID.
func (c *Client) routeJob(id pbs.JobID) int {
	return shard.RouteJob(id, c.rc.Groups())
}

// anyShard picks the shard for a submission.
func (c *Client) anyShard() int {
	return int(c.submitRR.Add(1) % uint64(c.rc.Groups()))
}

// Close shuts the client down; in-flight calls fail promptly.
func (c *Client) Close() { c.rc.Close() }

// call sends one request to shard s with head failover and waits for
// the reply.
func (c *Client) call(s int, op Op, args cmdArgs) (*rpcResponse, error) {
	return c.callReq(s, &rpcRequest{Op: op, Args: args})
}

// callReq sends req through the engine, first giving it the client's
// next request ID if it has none. A req whose ReqID is already set
// keeps it — the cross-shard fan-out path reuses one request ID so
// every shard's deduplication table collapses retries of the same
// logical command. One pooled encode serves every failover attempt;
// the transport does not retain payloads after Send, so the buffer
// goes back to the pool when the call returns.
func (c *Client) callReq(s int, req *rpcRequest) (*rpcResponse, error) {
	if req.ReqID == "" {
		req.ReqID = c.rc.NextID()
	}
	enc := req.encodeTo()
	defer enc.Release()
	return c.rc.Call(s, req.ReqID, req.Op.mutating(), enc.Bytes())
}

// rpcErr converts a failed response into an error.
func rpcErr(resp *rpcResponse) error {
	if resp.OK {
		return nil
	}
	return errors.New(resp.ErrMsg)
}

// jobReply is the outcome of a one-job command: the job, whose strings
// are views into the reply's datagram, and the error. The response
// goes back for reuse, so nothing else of it may be kept.
func jobReply(resp *rpcResponse, err error) (pbs.Job, error) {
	if err != nil {
		return pbs.Job{}, err
	}
	var j pbs.Job
	if len(resp.Jobs) > 0 {
		j = resp.Jobs[0]
	}
	err = rpcErr(resp)
	releaseResponse(resp)
	return j, err
}

// jobsReply is the outcome of a command answered by a job list, whose
// strings are views into the reply's datagram. The response is not
// released: a one-job list is its inline slot.
func jobsReply(resp *rpcResponse, err error) ([]pbs.Job, error) {
	if err != nil {
		return nil, err
	}
	return resp.Jobs, rpcErr(resp)
}

// replyErr is the outcome of a command answered by OK or an error; the
// response goes back for reuse.
func replyErr(resp *rpcResponse, err error) error {
	if err != nil {
		return err
	}
	err = rpcErr(resp)
	releaseResponse(resp)
	return err
}

// isUnknownJob matches the batch service's qdel/qsig/qstat diagnosis
// for a job the shard does not hold — the trigger for the cross-shard
// fan-out fallback.
func isUnknownJob(msg string) bool {
	return strings.Contains(msg, "Unknown Job Id")
}

// callJob routes one job-addressed command to the owning shard. If
// that shard does not know the job — an ID minted under a different
// shard count, or a stale map — the command fans out to the remaining
// shards and collects the first hit. At most one shard holds any job,
// so the command still executes at most once; the fan-out reuses one
// request ID, so per-shard deduplication keeps retries exactly-once.
func (c *Client) callJob(op Op, args cmdArgs) (*rpcResponse, error) {
	home := c.routeJob(args.JobID)
	resp, err := c.call(home, op, args)
	if err != nil || resp.OK || !isUnknownJob(resp.ErrMsg) || c.rc.Groups() == 1 {
		return resp, err
	}
	reqID := resp.ReqID
	for s := range c.rc.Groups() {
		if s == home {
			continue
		}
		r, err := c.callReq(s, &rpcRequest{ReqID: reqID, Op: op, Args: args})
		if err != nil {
			return nil, err
		}
		if r.OK || !isUnknownJob(r.ErrMsg) {
			return r, nil
		}
	}
	return resp, nil // unknown everywhere: report the home shard's answer
}

// Submit runs jsub: replicate a qsub to all active head nodes of one
// shard. Submissions carry no job ID yet, so any shard may take them;
// they spread round-robin and the chosen shard mints an ID that
// routes back to it.
func (c *Client) Submit(req pbs.SubmitRequest) (pbs.Job, error) {
	return jobReply(c.call(c.anyShard(), OpSubmit, submitArgs(req)))
}

// submitArgs maps a SubmitRequest onto the wire argument record.
func submitArgs(req pbs.SubmitRequest) cmdArgs {
	return cmdArgs{
		Name:       req.Name,
		Owner:      req.Owner,
		Script:     req.Script,
		NodeCount:  req.NodeCount,
		WallTime:   req.WallTime,
		Hold:       req.Hold,
		NCPUs:      req.Resources.NCPUs,
		Mem:        req.Resources.Mem,
		Priority:   req.Priority,
		ArraySet:   req.Array.Set,
		ArrayStart: req.Array.Start,
		ArrayEnd:   req.Array.End,
	}
}

// SubmitArray runs jsub -t: one replicated command expands into the
// array's sub-jobs ("seq[idx].server") on the owning shard. IDs
// canonicalize to the base sequence for routing, so the whole array
// lands on one scheduler.
func (c *Client) SubmitArray(req pbs.SubmitRequest) ([]pbs.Job, error) {
	if !req.Array.Set {
		j, err := c.Submit(req)
		if err != nil {
			return nil, err
		}
		return []pbs.Job{j}, nil
	}
	return jobsReply(c.call(c.anyShard(), OpSubmit, submitArgs(req)))
}

// SubmitMany submits n identical jobs one command at a time — the
// paper's Figure 11 workload (sequential jsub invocations).
func (c *Client) SubmitMany(req pbs.SubmitRequest, n int) ([]pbs.Job, error) {
	jobs := make([]pbs.Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := c.Submit(req)
		if err != nil {
			return jobs, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// SubmitBatch carries n identical jobs in a single replicated command,
// paying the total-order cost once — the throughput remedy the paper
// mentions ("a command line job submission to contain a number of
// individual jobs").
func (c *Client) SubmitBatch(req pbs.SubmitRequest, n int) ([]pbs.Job, error) {
	args := submitArgs(req)
	args.Count = n
	return jobsReply(c.call(c.anyShard(), OpSubmit, args))
}

// Delete runs jdel, routed to the shard owning the job.
func (c *Client) Delete(id pbs.JobID) (pbs.Job, error) {
	return jobReply(c.callJob(OpDelete, cmdArgs{JobID: id}))
}

// Hold runs jhold (qhold equivalent).
func (c *Client) Hold(id pbs.JobID) (pbs.Job, error) {
	return jobReply(c.callJob(OpHold, cmdArgs{JobID: id}))
}

// Release runs jrls (qrls equivalent).
func (c *Client) Release(id pbs.JobID) (pbs.Job, error) {
	return jobReply(c.callJob(OpRelease, cmdArgs{JobID: id}))
}

// Signal runs jsig (qsig equivalent).
func (c *Client) Signal(id pbs.JobID, sig string) (pbs.Job, error) {
	return jobReply(c.callJob(OpSignal, cmdArgs{JobID: id, Signal: sig}))
}

// Stat runs jstat for one job. Queries stay outside the total order
// (the paper keeps jstat unordered): the answer comes from one head's
// local state on the owning shard, round-robined across that shard's
// group, and may trail a mutation still in flight. Use StatOrdered
// for a linearizable read.
func (c *Client) Stat(id pbs.JobID) (pbs.Job, error) {
	return jobReply(c.callJob(OpStat, cmdArgs{JobID: id}))
}

// StatAll runs jstat with no arguments; same read semantics as Stat.
// Sharded deployments scatter-gather: every shard's listing is
// fetched concurrently off the local-read path, each one a
// prefix-consistent snapshot of that shard tagged with its epoch
// (re-fetched if a lagging head answers below an epoch this client
// already observed), and the merge is ordered by global submission
// sequence. There is no serialization *between* shards — two jobs on
// different shards may appear in either completion state, exactly as
// two independent clusters would.
//
// The jobs decoded from one response share one backing string (their
// IDs, names, scripts and outputs are substrings of it), so keeping
// any one job, or any one of its strings, keeps that whole listing in
// memory; copy what outlives the listing.
func (c *Client) StatAll() ([]pbs.Job, error) { return c.statAll(false) }

// StatOrdered runs jstat for one job through the owning shard's total
// order, so the result is serialized with every mutation of that job
// (a linearizable read, at one total-order round of cost).
func (c *Client) StatOrdered(id pbs.JobID) (pbs.Job, error) {
	return jobReply(c.callReq(c.routeJob(id), &rpcRequest{Op: OpStat, Ordered: true, Args: cmdArgs{JobID: id}}))
}

// StatAllOrdered is the linearizable variant of StatAll: each shard's
// listing is serialized with that shard's mutations. Across shards the
// listings remain independent snapshots (no cross-shard order exists
// to serialize against).
func (c *Client) StatAllOrdered() ([]pbs.Job, error) { return c.statAll(true) }

// statAll gathers every shard's listing concurrently and merges them by
// submission sequence; one shard's listing is returned as it is.
func (c *Client) statAll(ordered bool) ([]pbs.Job, error) {
	if c.rc.Groups() == 1 {
		return jobsReply(c.callReq(0, &rpcRequest{Op: OpStatAll, Ordered: ordered}))
	}
	lists, err := gatherShards(c.rc.Groups(), func(s int) ([]pbs.Job, error) {
		return c.statShard(s, ordered)
	})
	if err != nil {
		return nil, err
	}
	return mergeJobs(lists), nil
}

// gatherShards runs fetch for shards 0..n-1 concurrently and returns
// their results in shard order, or the lowest-numbered shard's error.
func gatherShards[T any](n int, fetch func(s int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[s], errs[s] = fetch(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// statShard fetches one shard's full listing, retrying past heads
// whose snapshot epoch regressed below what this client already saw
// for the shard (at most one extra pass over the shard's heads).
func (c *Client) statShard(s int, ordered bool) ([]pbs.Job, error) {
	tries := 1
	if !ordered {
		tries += len(c.rc.Heads(s))
	}
	var resp *rpcResponse
	for t := 0; t < tries; t++ {
		var err error
		resp, err = c.callReq(s, &rpcRequest{Op: OpStatAll, Ordered: ordered})
		if err != nil {
			return nil, err
		}
		if e := rpcErr(resp); e != nil {
			return nil, e
		}
		if !c.rc.ObserveEpoch(s, resp.Epoch) {
			break // fresh enough (or epoch untagged)
		}
		// A lagging head answered below an epoch we already observed:
		// rotate to another head for a non-regressing snapshot.
	}
	return resp.Jobs, nil
}

// mergeJobs interleaves per-shard listings into one deterministic
// whole-cluster listing, ordered by global submission sequence
// (shards mint IDs from disjoint slices of one sequence space, so
// Seq is a total tiebreaker-free order across shards).
func mergeJobs(lists [][]pbs.Job) []pbs.Job {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]pbs.Job, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Seq != merged[j].Seq {
			return merged[i].Seq < merged[j].Seq
		}
		return merged[i].ID < merged[j].ID
	})
	return merged
}

// callNode routes a node-management command to the shard scheduling
// the node, falling back to trying every shard when the partition is
// unknown to this client.
func (c *Client) callNode(op Op, node string) (*rpcResponse, error) {
	if s := (&shard.Map{Heads: nil, Nodes: c.nodes}).RouteNode(node); s >= 0 && s < c.rc.Groups() {
		return c.call(s, op, cmdArgs{Node: node})
	}
	var last *rpcResponse
	var lastErr error
	for s := range c.rc.Groups() {
		resp, err := c.call(s, op, cmdArgs{Node: node})
		if err != nil {
			lastErr = err
			continue
		}
		if resp.OK || !strings.Contains(resp.ErrMsg, "unknown node") {
			return resp, nil
		}
		last = resp
	}
	if last != nil {
		return last, nil
	}
	return nil, lastErr
}

// SetNodeOffline marks a compute node offline for maintenance
// (pbsnodes -o), replicated so every head of the owning shard
// excludes it from new allocations.
func (c *Client) SetNodeOffline(node string) error {
	return replyErr(c.callNode(OpNodeOffline, node))
}

// SetNodeOnline clears a node's offline state (pbsnodes -c).
func (c *Client) SetNodeOnline(node string) error {
	return replyErr(c.callNode(OpNodeOnline, node))
}

// Nodes lists the compute nodes with state and allocation (pbsnodes),
// concatenating every shard's local view in shard order.
func (c *Client) Nodes() ([]pbs.NodeStatus, error) {
	lists, err := gatherShards(c.rc.Groups(), func(s int) ([]pbs.NodeStatus, error) {
		resp, err := c.call(s, OpNodesLocal, cmdArgs{})
		if err != nil {
			return nil, err
		}
		return resp.Nodes, rpcErr(resp)
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(lists...), nil
}

// Info queries one head's operator report (jadmin): view, protocol
// counters, and queue gauges. Sharded deployments answer from shard 0
// (jadmin queries every head of every shard directly).
func (c *Client) Info() (map[string]string, error) {
	resp, err := c.call(0, OpInfoLocal, cmdArgs{})
	if err != nil {
		return nil, err
	}
	return resp.Info, rpcErr(resp)
}

// JDone runs the jdone script for a job that node executed: its exit
// code and output become one command in the owning shard's total order,
// applied on every head. The request ID is derived from the job ID, so
// a retry, whichever head it reaches, applies once. A refusal because
// node is not the job's first node wraps pbs.ErrNotFirstNode.
func (c *Client) JDone(id pbs.JobID, node string, exitCode int, output string) error {
	resp, err := c.callReq(c.routeJob(id), &rpcRequest{
		ReqID: "jdone/" + string(id),
		Op:    OpJDone,
		Args:  cmdArgs{JobID: id, Node: node, ExitCode: exitCode, Output: output},
	})
	if err != nil {
		return err
	}
	if rest, refused := strings.CutPrefix(resp.ErrMsg, pbs.ErrNotFirstNode.Error()); refused {
		return fmt.Errorf("%w%s", pbs.ErrNotFirstNode, rest)
	}
	return replyErr(resp, nil)
}

// MomHooks builds the Complete hook that wires a pbs.Mom into JOSHUA,
// as the paper's jdone script does from the PBS mom job epilogue: each
// job the mom executed ends with one JDone under the mom's name. In a
// sharded deployment each mom belongs to exactly one shard and its
// client is configured with only that shard's heads — every job
// reaching the mom is owned by that shard by construction.
func MomHooks(c *Client, momName string) func(pbs.Job, int, string) error {
	return func(j pbs.Job, exitCode int, output string) error {
		return c.JDone(j.ID, momName, exitCode, output)
	}
}
