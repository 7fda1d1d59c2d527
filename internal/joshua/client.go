package joshua

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/shard"
	"joshua/internal/transport"
)

// Client is the control-command library behind jsub, jdel, and jstat
// (and the mom's jdone epilogue). It connects to the JOSHUA server
// group over the network and may be pointed at any or all of the
// active head nodes: requests are retried against the next head when
// one stops answering, and the servers' deduplication table makes
// retries idempotent, so a command submitted during a head-node
// failure is executed exactly once and answered as soon as a survivor
// picks it up — the "continuous availability without any interruption
// of service" the paper demonstrates. Writes go first to the head a
// reply revealed as the sequencer (see waiter).
//
// A deployment may run several independent replicated groups
// ("shards", see internal/shard), each owning a slice of the job
// space and node pool. The client owns all routing, so submitters
// still see one logical scheduler: job-addressed commands go sticky
// to the owning shard (computed locally from the job ID hash),
// submissions spread round-robin, and whole-cluster queries (jstat
// with no arguments, jnodes) scatter-gather across every shard and
// merge the per-shard prefix-consistent snapshots. Head failover and
// health tracking run independently per shard.
type Client struct {
	cfg ClientConfig
	ep  transport.Endpoint

	// shards holds one failover state per replication group; the
	// unsharded deployment is the one-shard special case.
	shards []*headSet
	// nodes is the compute-node partition (may be nil: node commands
	// then fan out).
	nodes [][]string

	// reqSeq numbers request IDs: blocks of idBlock (ids) and probes.
	reqSeq atomic.Uint64
	// submitRR spreads submissions (which carry no job ID yet) across
	// shards; each shard mints IDs that route back to itself, so any
	// shard may take any submission.
	submitRR atomic.Uint64
	// readRR rotates the starting head for read-only queries, spreading
	// poller load across each shard's group instead of pinning it on
	// the sticky head every mutation chose.
	readRR atomic.Uint64

	mu      sync.Mutex
	waiters map[string]*waiter
	// free holds retired waiters for reuse: nothing can reach them, and
	// their channel is empty and their timer stopped.
	free   []*waiter
	closed bool
	// ids holds the request IDs minted ahead but not yet handed out,
	// back to back, the first numbered idSeq; idBuf is the buffer the
	// next block is rendered in (see nextReqIDLocked).
	ids   string
	idSeq uint64
	idBuf []byte

	done chan struct{}
	once sync.Once
}

// headSet is the per-shard failover state: the shard's head address
// book, the sticky head, and per-head health marks. Guarded by the
// client's mu.
type headSet struct {
	addrs []transport.Addr
	// preferred is where mutations start: the sequencer, once a reply
	// has named it (see waiter), else the last head that answered one.
	preferred int
	// healthy marks which heads have been answering: down on a send
	// error, an attempt timeout or a connection-loss hint, up on any
	// reply. Reads rotate over healthy heads only, the failover walk
	// visits down-marked heads last, and the background prober
	// (ClientConfig.RedeemAfter) re-probes them so a recovered head
	// rejoins the read rotation.
	healthy []bool
	// minEpoch is the highest batch-state version this client has
	// observed from the shard — raised by both reads and acked
	// mutations; scatter-gather listings refuse to regress below it
	// (per-shard monotonic reads plus read-your-writes).
	minEpoch uint64
	// lastMut, the last finished mutation, stays registered for a
	// sequencer copy that trails the reply which ended the call.
	lastMut *waiter
}

// waiter is one outstanding request. The view's sequencer replies to
// every ordered command, and so does the head that intercepted it
// (rsm's output rule), so a reply from a head the request was never
// sent to names the sequencer.
//
// A waiter, with its channels and its attempt timer, is recycled once
// its call has retired it (unregister): by then it is out of the
// waiters map, so the receive loop cannot reach it, and retire drains
// whatever reached it late (a hedged duplicate, the sequencer's
// trailing copy, an answer after the attempt timeout, a loss hint).
type waiter struct {
	reqID    string
	ch       chan *rpcResponse
	lost     chan int    // index of a head the call was sent to whose connection was lost
	timer    *time.Timer // the call's attempt timer; stopped when idle
	hs       *headSet
	sent     uint64 // bit i: sent to hs.addrs[i]
	mutating bool
	answered bool // a non-rejection reply has arrived
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
	// AttemptTimeout bounds one head's answer before the client marks
	// it down and moves to the next head. A mutation is also hedged to
	// the next head after AttemptTimeout/16, or at once when the
	// transport reports the connection to its head lost. Default 1s.
	AttemptTimeout time.Duration
	// Rounds is how many times the full head list is tried before
	// giving up. Default 3.
	Rounds int
	// RedeemAfter is the interval of the client's background health
	// prober: an initial round probes every configured address (so
	// spare slots with no head behind them are discovered off the
	// request path instead of costing an attempt timeout each in the
	// failover walk), then every RedeemAfter it re-probes each
	// down-marked head, and any reply puts the head back into the
	// read rotation. A client call never waits on a probe, so
	// permanently absent addresses cost nothing beyond the probe
	// datagram. Zero defaults to 5s; negative disables the prober (a
	// down mark then lasts until a failover reply revives the head).
	RedeemAfter time.Duration
}

// Errors returned by the client.
var (
	ErrNoHeads   = errors.New("joshua: no head nodes configured")
	ErrUnreached = errors.New("joshua: no head node answered")
	// ErrNoHealthyHeads is the all-heads-down diagnosis: not one of the
	// configured heads produced a reply across every retry round. It
	// wraps ErrUnreached, so existing errors.Is checks keep matching.
	ErrNoHealthyHeads = errors.New("joshua: no healthy head nodes")
	ErrClosed         = errors.New("joshua: client closed")
)

// defaultRedeemAfter is how long an unhealthy mark lasts when
// ClientConfig.RedeemAfter is zero.
const defaultRedeemAfter = 5 * time.Second

// NewClient creates a client and starts its receive loop.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("joshua: ClientConfig.Endpoint required")
	}
	groups := cfg.Shards
	if len(groups) == 0 {
		if len(cfg.Heads) == 0 {
			return nil, ErrNoHeads
		}
		groups = [][]transport.Addr{cfg.Heads}
	} else if len(cfg.Heads) > 0 {
		return nil, errors.New("joshua: set ClientConfig.Heads or Shards, not both")
	}
	for s, heads := range groups {
		if len(heads) == 0 {
			return nil, fmt.Errorf("%w (shard %d)", ErrNoHeads, s)
		}
		if len(heads) > 64 { // a call's sent and tried sets are 64-bit masks
			return nil, fmt.Errorf("joshua: shard %d lists %d heads, at most 64", s, len(heads))
		}
	}
	if cfg.ShardNodes != nil && len(cfg.ShardNodes) != len(groups) {
		return nil, fmt.Errorf("joshua: ShardNodes covers %d shards, Shards has %d", len(cfg.ShardNodes), len(groups))
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = time.Second
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.RedeemAfter == 0 {
		cfg.RedeemAfter = defaultRedeemAfter
	}
	c := &Client{
		cfg:     cfg,
		ep:      cfg.Endpoint,
		nodes:   cfg.ShardNodes,
		waiters: make(map[string]*waiter),
		done:    make(chan struct{}),
	}
	for _, heads := range groups {
		hs := &headSet{
			addrs:   append([]transport.Addr(nil), heads...),
			healthy: make([]bool, len(heads)),
		}
		for i := range hs.healthy {
			hs.healthy[i] = true
		}
		c.shards = append(c.shards, hs)
	}
	// Stagger the rotation starting points per client (hashing the
	// endpoint address, which is unique per client): a fleet of
	// submitters created together would otherwise all start at shard 0
	// and convoy through the shards in lockstep — every client queued
	// on the same group while the others sit idle — capping aggregate
	// throughput at a single group's capacity no matter the shard
	// count.
	h := fnv.New64a()
	h.Write([]byte(cfg.Endpoint.Addr()))
	seed := h.Sum64()
	c.submitRR.Store(seed)
	c.readRR.Store(seed >> 32)
	go c.recvLoop()
	if cfg.RedeemAfter > 0 {
		go c.probeLoop()
	}
	return c, nil
}

// ShardCount reports how many replication groups the client routes
// across (1 for the unsharded deployment).
func (c *Client) ShardCount() int { return len(c.shards) }

// routeJob returns the shard owning a job ID.
func (c *Client) routeJob(id pbs.JobID) int {
	return shard.RouteJob(id, len(c.shards))
}

// Close shuts the client down; in-flight calls fail promptly.
func (c *Client) Close() {
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.done)
		c.ep.Close()
	})
}

// recvLoop decodes each reply into a recycled response and hands it to
// its waiter; a reply nobody takes goes straight back. A
// connection-loss hint goes to headLost.
func (c *Client) recvLoop() {
	for dg := range c.ep.Recv() {
		if dg.Lost {
			c.headLost(dg.From)
			continue
		}
		resp := getResponse()
		if decodeResponse(dg.Payload, resp) != nil {
			releaseResponse(resp)
			continue
		}
		c.mu.Lock()
		if w := c.waiters[resp.ReqID]; w != nil {
			c.learnLocked(w, dg.From, resp)
			select {
			case w.ch <- resp:
				resp = nil
			default: // duplicate reply; the first one won
			}
		}
		c.mu.Unlock()
		if resp != nil {
			releaseResponse(resp)
		}
	}
}

// headLost acts on a connection-loss hint for a head, as its crash
// raises: the head is marked down, mutations move to the next healthy
// head, and every unanswered call that was sent to it is told, so that
// it hedges or moves on now rather than when its timer fires (see
// callReq). A live head the hint wronged is revived by its next reply
// or by the prober.
func (c *Client) headLost(from transport.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, hs := range c.shards {
		idx := slices.Index(hs.addrs, from)
		if idx < 0 {
			continue
		}
		hs.healthy[idx] = false
		if hs.preferred == idx {
			n := len(hs.addrs)
			hs.preferred = (idx + 1) % n
			for j := 1; j < n; j++ {
				if k := (idx + j) % n; hs.healthy[k] {
					hs.preferred = k
					break
				}
			}
		}
	}
	for _, w := range c.waiters {
		idx := slices.Index(w.hs.addrs, from)
		if idx < 0 || w.sent&(1<<idx) == 0 || w.answered {
			continue
		}
		select {
		case w.lost <- idx:
		default: // the call has yet to take an earlier one
		}
	}
}

// learnLocked applies one reply to its shard's routing state. The
// replier is healthy. A head answering a request it was never sent is
// the sequencer, and mutations start there from now on; otherwise the
// first head to answer a mutation becomes sticky. Replies arrive in
// order, so an origin's late reply cannot undo a learned sequencer.
// Callers hold c.mu.
func (c *Client) learnLocked(w *waiter, from transport.Addr, resp *rpcResponse) {
	idx := slices.Index(w.hs.addrs, from)
	if idx < 0 {
		return
	}
	w.hs.healthy[idx] = true
	if !resp.OK && resp.ErrMsg == ErrNotPrimary.Error() {
		return
	}
	first := !w.answered
	w.answered = true
	if w.sent&(1<<idx) == 0 || (first && w.mutating) {
		w.hs.preferred = idx
	}
}

// register adds a waiter for req on shard hs, recycling a retired one
// when there is one, and first gives req the client's next request ID
// if it has none.
func (c *Client) register(req *rpcRequest, hs *headSet, mutating bool) (*waiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if req.ReqID == "" {
		req.ReqID = c.nextReqIDLocked()
	}
	var w *waiter
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		w = &waiter{ch: make(chan *rpcResponse, 1), lost: make(chan int, 1), timer: time.NewTimer(time.Hour)}
		w.timer.Stop()
	}
	*w = waiter{reqID: req.ReqID, ch: w.ch, lost: w.lost, timer: w.timer, hs: hs, mutating: mutating}
	c.waiters[req.ReqID] = w
	return w, nil
}

// unregister ends a finished call: its timer stops, and the waiter is
// retired, except that a mutation's waiter lingers as its shard's
// lastMut and retires the previous one.
func (c *Client) unregister(w *waiter) {
	w.timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	retire := w
	if w.mutating {
		retire, w.hs.lastMut = w.hs.lastMut, w
	}
	if retire != nil {
		c.retireLocked(retire)
	}
}

// retireLocked takes a waiter out of the map and onto the free list,
// dropping any reply that reached it after its call took the first.
// The identity check matters because a cross-shard fan-out reuses one
// ReqID. The receive loop sends only under c.mu to a registered
// waiter, so once retired nothing can reach it. Callers hold c.mu.
func (c *Client) retireLocked(w *waiter) {
	if c.waiters[w.reqID] == w {
		delete(c.waiters, w.reqID)
	}
	select {
	case resp := <-w.ch:
		releaseResponse(resp)
	default:
	}
	select {
	case <-w.lost:
	default:
	}
	*w = waiter{ch: w.ch, lost: w.lost, timer: w.timer}
	c.free = append(c.free, w)
}

// send transmits a request to head idx, recording the target first so
// a fast reply is attributed correctly. A send error marks the head
// down.
func (c *Client) send(w *waiter, idx int, payload []byte) error {
	c.mu.Lock()
	w.sent |= 1 << idx
	c.mu.Unlock()
	err := c.ep.Send(w.hs.addrs[idx], payload)
	if err != nil {
		c.markHealth(w.hs, idx, false)
	}
	return err
}

// call sends one request to shard s with head failover and waits for
// the reply.
func (c *Client) call(s int, op Op, args cmdArgs) (*rpcResponse, error) {
	return c.callReq(s, &rpcRequest{Op: op, Args: args})
}

// callOrdered forces a query through shard s's total order (the
// linearizable-read variant).
func (c *Client) callOrdered(s int, op Op, args cmdArgs) (*rpcResponse, error) {
	return c.callReq(s, &rpcRequest{Op: op, Ordered: true, Args: args})
}

// idBlock is how many request IDs the client mints at a time.
const idBlock = 64

// appendReqID appends a request ID, "<addr>#<tag><seq>", to b.
func appendReqID(b []byte, addr transport.Addr, tag string, seq uint64) []byte {
	b = append(b, addr...)
	b = append(b, '#')
	b = append(b, tag...)
	return strconv.AppendUint(b, seq, 10)
}

// nextReqIDLocked hands out the client's next request ID,
// "<addr>#<seq>". IDs are minted idBlock at a time into one string and
// handed out as substrings of it, so a call allocates no ID of its own;
// a block stays alive while any of its IDs is referenced. Callers hold
// c.mu.
func (c *Client) nextReqIDLocked() string {
	addr := c.ep.Addr()
	if c.ids == "" {
		c.idSeq = c.reqSeq.Add(idBlock) - idBlock + 1
		b := c.idBuf[:0]
		for i := uint64(0); i < idBlock; i++ {
			b = appendReqID(b, addr, "", c.idSeq+i)
		}
		c.ids, c.idBuf = string(b), b
	}
	n := len(addr) + 1 + decimalLen(c.idSeq)
	id := c.ids[:n]
	c.ids = c.ids[n:]
	c.idSeq++
	return id
}

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// callReq runs the per-shard failover loop. A req whose ReqID is
// already set keeps it — the cross-shard fan-out path reuses one
// request ID so every shard's deduplication table collapses retries
// of the same logical command.
func (c *Client) callReq(s int, req *rpcRequest) (*rpcResponse, error) {
	// Reads — ordered ones included — rotate their starting head:
	// under leasing any caught-up head serves an ordered read locally
	// (and a leaseless head transparently falls back to broadcasting
	// it), so pinning them to the sticky mutation head would waste the
	// other heads' leases.
	readOnly := !req.Op.mutating()
	hs := c.shards[s]

	w, err := c.register(req, hs, !readOnly)
	if err != nil {
		return nil, err
	}
	defer c.unregister(w)
	// One pooled encode serves every failover attempt; the transport
	// does not retain payloads after Send, so the buffer goes back to
	// the pool when the call returns.
	enc := req.encodeTo()
	defer enc.Release()
	payload := enc.Bytes()
	c.mu.Lock()
	start := hs.preferred
	if readOnly {
		start = c.readStartLocked(hs)
	}
	c.mu.Unlock()

	// The failover walk covers every head each round, but visits
	// down-marked heads last (nextHead). A mutation unanswered after a
	// sixteenth of the attempt timeout is hedged: the same payload, whose
	// ReqID keeps it exactly-once, goes to the next head while the call
	// keeps waiting on the first; only the full timeout marks the silent
	// head down. The hedge matters when the sequencer crashes after the
	// survivors applied a write it intercepted but before it replied: it
	// fetches that answer from a survivor's dedup table. A loss hint for
	// the head an attempt waits on (headLost) sends the hedge at once,
	// and moves a call that has no hedge to the next head; survivors
	// expel a crashed head within milliseconds, so even the short delay
	// would be most of the outage.
	n := len(hs.addrs)
	hedges := !readOnly && n > 1
	var tried uint64
	var lastErr error
	replies := 0
	attempts := c.cfg.Rounds * n
	timer := w.timer
	for i := 0; i < attempts; i++ {
		idx := c.nextHead(hs, start, &tried)
		if err := c.send(w, idx, payload); err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil, ErrClosed
			}
			lastErr = err
			continue
		}
		wait, hedge := c.cfg.AttemptTimeout, hedges
		if hedge {
			wait /= 16
		}
		timer.Reset(wait)
	await:
		for {
			select {
			case resp := <-w.ch:
				replies++
				if resp.OK || resp.ErrMsg != ErrNotPrimary.Error() {
					// Raise this shard's epoch floor: statShard rotates
					// past heads that answer below it.
					c.observeEpoch(s, resp.Epoch)
					return resp, nil
				}
				releaseResponse(resp)
				break await // alive but outside the primary component
			case <-timer.C:
				if !hedge {
					c.markHealth(hs, idx, false) // silent: try the next head
					break await
				}
			case h := <-w.lost:
				switch {
				case h != idx || n == 1 || (hedges && !hedge):
					continue // not this attempt's head, no other head, or hedged already
				case !hedge:
					break await // headLost marked it down: try the next head
				}
			case <-c.done:
				return nil, ErrClosed
			}
			// The hedge is due.
			hedge = false
			if err := c.send(w, c.nextHead(hs, start, &tried), payload); err != nil {
				lastErr = err
			}
			timer.Reset(c.cfg.AttemptTimeout - wait)
		}
	}
	if replies == 0 {
		// Not a single head replied — a crashed or partitioned-away
		// shard, not one slow head. Name what was tried so the
		// operator can tell a bad head list from a down cluster.
		if lastErr != nil {
			return nil, fmt.Errorf("%w (%w): tried %v over %d attempts (%v): last send error: %v",
				ErrNoHealthyHeads, ErrUnreached, hs.addrs, attempts, req.Op, lastErr)
		}
		return nil, fmt.Errorf("%w (%w): tried %v over %d attempts (%v), all silent",
			ErrNoHealthyHeads, ErrUnreached, hs.addrs, attempts, req.Op)
	}
	return nil, fmt.Errorf("%w after %d attempts (%v)", ErrUnreached, attempts, req.Op)
}

// nextHead picks the walk's next head from start: the first untried
// healthy one, else the first untried one, judged against the
// *current* health map, which the background prober may be updating
// while a call waits. Once every head has been tried, all are eligible
// again.
func (c *Client) nextHead(hs *headSet, start int, tried *uint64) int {
	n := len(hs.addrs)
	if *tried == ^uint64(0)>>(64-n) {
		*tried = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := -1
	for j := 0; j < n; j++ {
		if k := (start + j) % n; *tried&(1<<k) == 0 && (idx < 0 || hs.healthy[k]) {
			if idx = k; hs.healthy[k] {
				break
			}
		}
	}
	*tried |= 1 << idx
	return idx
}

// readStartLocked picks the next read's starting head for one shard,
// rotating over the heads currently believed healthy (over all of
// them when none are). Down-marked heads are re-admitted only by the
// background prober (or a failover reply), never by the rotation
// itself, so reads don't pay timeouts re-probing dead heads.
// Callers hold c.mu.
func (c *Client) readStartLocked(hs *headSet) int {
	var buf [64]int // a shard has at most 64 heads (see NewClient)
	alive := buf[:0]
	for i, ok := range hs.healthy {
		if ok {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return int(c.readRR.Add(1) % uint64(len(hs.addrs)))
	}
	return alive[int(c.readRR.Add(1)%uint64(len(alive)))]
}

func (c *Client) markHealth(hs *headSet, idx int, up bool) {
	c.mu.Lock()
	hs.healthy[idx] = up
	c.mu.Unlock()
}

// probeLoop re-probes heads with a cheap local read (jadmin info) off
// the request path. The first round covers every address, so spare
// slots in a static head list are marked down before a call's failover
// walk would wait out a timeout on each; later rounds, every
// RedeemAfter, cover only down-marked heads, so a recovered head
// rejoins its shard's read rotation.
func (c *Client) probeLoop() {
	type target struct{ s, i int }
	probeRound := func(all bool) {
		var targets []target
		c.mu.Lock()
		for s, hs := range c.shards {
			for i, ok := range hs.healthy {
				if all || !ok {
					targets = append(targets, target{s, i})
				}
			}
		}
		c.mu.Unlock()
		for _, tg := range targets {
			go c.probe(tg.s, tg.i)
		}
	}
	probeRound(true)
	tick := time.NewTicker(c.cfg.RedeemAfter)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-tick.C:
		}
		probeRound(false)
	}
}

// probe sends one health-check read to a head and records the
// outcome: healthy if it answers within the attempt timeout, down if
// it doesn't (or the send fails outright).
func (c *Client) probe(s, i int) {
	hs := c.shards[s]
	var buf [96]byte
	req := &rpcRequest{
		ReqID: string(appendReqID(buf[:0], c.ep.Addr(), "probe", c.reqSeq.Add(1))),
		Op:    OpInfoLocal,
	}
	w, err := c.register(req, hs, false)
	if err != nil {
		return
	}
	defer c.unregister(w)
	penc := req.encodeTo()
	err = c.send(w, i, penc.Bytes())
	penc.Release()
	if err != nil {
		return
	}
	// The receive loop marks the head healthy when it answers.
	w.timer.Reset(c.cfg.AttemptTimeout)
	select {
	case resp := <-w.ch:
		releaseResponse(resp)
	case <-w.timer.C:
		c.markHealth(hs, i, false)
	case <-c.done:
	}
}

// observeEpoch records a shard's batch-state version and reports
// whether the response regressed below what this client already saw
// (a lagging head answering after a fresher one).
func (c *Client) observeEpoch(s int, epoch uint64) (regressed bool) {
	if epoch == 0 {
		return false
	}
	hs := c.shards[s]
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < hs.minEpoch {
		return true
	}
	hs.minEpoch = epoch
	return false
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

// isUnknownNode matches the node-management diagnosis for a node the
// shard does not schedule.
func isUnknownNode(msg string) bool {
	return strings.Contains(msg, "unknown node")
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
	if err != nil || resp.OK || !isUnknownJob(resp.ErrMsg) || len(c.shards) == 1 {
		return resp, err
	}
	reqID := resp.ReqID
	for s := range c.shards {
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
	s := int(c.submitRR.Add(1) % uint64(len(c.shards)))
	return jobReply(c.call(s, OpSubmit, submitArgs(req)))
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
	s := int(c.submitRR.Add(1) % uint64(len(c.shards)))
	resp, err := c.call(s, OpSubmit, submitArgs(req))
	if err != nil {
		return nil, err
	}
	return resp.Jobs, rpcErr(resp)
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
	s := int(c.submitRR.Add(1) % uint64(len(c.shards)))
	args := submitArgs(req)
	args.Count = n
	resp, err := c.call(s, OpSubmit, args)
	if err != nil {
		return nil, err
	}
	return resp.Jobs, rpcErr(resp)
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
func (c *Client) StatAll() ([]pbs.Job, error) {
	if len(c.shards) == 1 {
		resp, err := c.call(0, OpStatAll, cmdArgs{})
		if err != nil {
			return nil, err
		}
		return resp.Jobs, rpcErr(resp)
	}
	return c.statAllShards(false)
}

// StatOrdered runs jstat for one job through the owning shard's total
// order, so the result is serialized with every mutation of that job
// (a linearizable read, at one total-order round of cost).
func (c *Client) StatOrdered(id pbs.JobID) (pbs.Job, error) {
	return jobReply(c.callOrdered(c.routeJob(id), OpStat, cmdArgs{JobID: id}))
}

// StatAllOrdered is the linearizable variant of StatAll: each shard's
// listing is serialized with that shard's mutations. Across shards the
// listings remain independent snapshots (no cross-shard order exists
// to serialize against).
func (c *Client) StatAllOrdered() ([]pbs.Job, error) {
	if len(c.shards) == 1 {
		resp, err := c.callOrdered(0, OpStatAll, cmdArgs{})
		if err != nil {
			return nil, err
		}
		return resp.Jobs, rpcErr(resp)
	}
	return c.statAllShards(true)
}

// statAllShards gathers every shard's listing concurrently and merges
// by submission sequence.
func (c *Client) statAllShards(ordered bool) ([]pbs.Job, error) {
	lists, err := gatherShards(len(c.shards), func(s int) ([]pbs.Job, error) {
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
		tries += len(c.shards[s].addrs)
	}
	var resp *rpcResponse
	var err error
	for t := 0; t < tries; t++ {
		if ordered {
			resp, err = c.callOrdered(s, OpStatAll, cmdArgs{})
		} else {
			resp, err = c.call(s, OpStatAll, cmdArgs{})
		}
		if err != nil {
			return nil, err
		}
		if e := rpcErr(resp); e != nil {
			return nil, e
		}
		if !c.observeEpoch(s, resp.Epoch) {
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
	if s := (&shard.Map{Heads: nil, Nodes: c.nodes}).RouteNode(node); s >= 0 && s < len(c.shards) {
		return c.call(s, op, cmdArgs{Node: node})
	}
	var last *rpcResponse
	var lastErr error
	for s := range c.shards {
		resp, err := c.call(s, op, cmdArgs{Node: node})
		if err != nil {
			lastErr = err
			continue
		}
		if resp.OK || !isUnknownNode(resp.ErrMsg) {
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
	if len(c.shards) == 1 {
		resp, err := c.call(0, OpNodesLocal, cmdArgs{})
		if err != nil {
			return nil, err
		}
		return resp.Nodes, rpcErr(resp)
	}
	lists, err := gatherShards(len(c.shards), func(s int) ([]pbs.NodeStatus, error) {
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
// counters, and queue gauges. Sharded deployments answer from shard
// 0; use InfoShard for a specific shard (jadmin queries every head of
// every shard directly).
func (c *Client) Info() (map[string]string, error) {
	return c.InfoShard(0)
}

// InfoShard queries one head of the given shard for its operator
// report.
func (c *Client) InfoShard(s int) (map[string]string, error) {
	if s < 0 || s >= len(c.shards) {
		return nil, fmt.Errorf("joshua: shard %d out of range (have %d)", s, len(c.shards))
	}
	resp, err := c.call(s, OpInfoLocal, cmdArgs{})
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
