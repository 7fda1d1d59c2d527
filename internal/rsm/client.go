package rsm

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/transport"
)

// Client is the client half of the exactly-once contract, shared by
// every service on the engine: it sends each command to any head of a
// replicated group, fails over when one stops answering, and relies on
// the heads' deduplication table to make every retry of a request ID
// collapse into one execution. A service wraps it with its own
// operations and supplies a ClientCodec for its replies, R.
//
// A client may route across several independent groups (joshua's
// shards); head failover and health tracking run per group. Writes go
// first to the head a reply revealed as the sequencer (see waiter).
type Client[R any] struct {
	cfg    ClientConfig
	codec  ClientCodec[R]
	groups []*headSet[R]

	// inc is the client's incarnation, rendered once: every request ID
	// it mints starts with it (see NewClient).
	inc string
	// reqSeq numbers request IDs: blocks of idBlock (ids) and probes.
	reqSeq atomic.Uint64
	// readRR rotates the starting head for reads, spreading poller load
	// across a group instead of pinning it on the head writes chose.
	readRR atomic.Uint64

	mu      sync.Mutex
	waiters map[string]*waiter[R]
	// free holds retired waiters for reuse: nothing can reach them, and
	// their channel is empty and their timer stopped.
	free []*waiter[R]
	// ids holds the request IDs minted ahead but not yet handed out;
	// idBuf is the buffer the next block is rendered in (see NextID).
	ids   string
	idBuf []byte

	done chan struct{}
	once sync.Once
}

// ClientCodec is what a service supplies to its Client: how its reply
// datagrams decode and what they say about the head that sent them.
// The client may call these under its lock; none may block.
type ClientCodec[R any] struct {
	// Decode decodes a reply datagram, which it may keep, and returns
	// the reply with its request ID (a view into the datagram).
	Decode func(payload []byte) (r R, reqID string, err error)
	// NotPrimary reports the "not in the primary component" rejection:
	// the head is alive, but the call must move on to another.
	NotPrimary func(R) bool
	// Epoch reads the state version a reply carries, 0 if none.
	Epoch func(R) uint64
	// Release takes back a reply no call returns.
	Release func(R)
	// Probe encodes the prober's health check, a local read, under
	// reqID.
	Probe func(reqID string) []byte
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Endpoint is the client's transport attachment; the client owns
	// and closes it.
	Endpoint transport.Endpoint
	// Groups lists each replicated group's heads in preference order,
	// at most 64 per group.
	Groups [][]transport.Addr
	// AttemptTimeout bounds one head's answer before the client marks
	// it down and moves to the next head. A mutation is also hedged to
	// the next head after AttemptTimeout/16, or at once when the
	// transport reports the connection to its head lost. Default 1s.
	AttemptTimeout time.Duration
	// Rounds is how many times a group's full head list is tried
	// before giving up. Default 3.
	Rounds int
	// RedeemAfter is the interval of the background health prober,
	// which probes every head once at the start and every down-marked
	// head each RedeemAfter; a reply puts the head back into the read
	// rotation. Zero defaults to 5s; negative disables the prober (a
	// down mark then lasts until a failover reply revives the head).
	RedeemAfter time.Duration
}

// Errors returned by a Client.
var (
	ErrNoHeads   = errors.New("rsm: no head nodes configured")
	ErrUnreached = errors.New("rsm: no head node answered")
	// ErrNoHealthyHeads is the all-heads-down diagnosis: not one of a
	// group's heads replied across every retry round. It wraps
	// ErrUnreached, so errors.Is checks for that keep matching.
	ErrNoHealthyHeads = errors.New("rsm: no healthy head nodes")
	ErrClosed         = errors.New("rsm: client closed")
)

// headSet is one group's failover state: its head address book, the
// sticky head, and per-head health marks. Guarded by the client's mu.
type headSet[R any] struct {
	addrs []transport.Addr
	// preferred is where mutations start: the sequencer, once a reply
	// has named it (see waiter), else the last head that answered one.
	preferred int
	// down marks the heads that stopped answering: set on a send error,
	// an attempt timeout or a connection-loss hint, cleared by any
	// reply. Reads rotate over the other heads only, the failover walk
	// visits down-marked heads last, and the prober re-probes them.
	down []bool
	// minEpoch is the highest state version the client has observed
	// from the group, raised by reads and acked mutations alike.
	minEpoch uint64
	// lastMut, the last finished mutation, stays registered for a
	// sequencer copy that trails the reply which ended the call.
	lastMut *waiter[R]
}

// waiter is one outstanding request. The view's sequencer replies to
// every ordered command, and so does the head that intercepted it (the
// output rule), so a reply from a head the request was never sent to
// names the sequencer.
//
// A waiter, with its channels and its attempt timer, is recycled once
// its call has retired it (unregister): by then it is out of the
// waiters map, so the receive loop cannot reach it, and retire drains
// whatever reached it late (a hedged duplicate, the sequencer's
// trailing copy, an answer after the attempt timeout, a loss hint).
type waiter[R any] struct {
	reqID    string
	ch       chan R
	lost     chan int    // index of a head the call was sent to whose connection was lost
	timer    *time.Timer // the call's attempt timer; stopped when idle
	hs       *headSet[R]
	sent     uint64 // bit i: sent to hs.addrs[i]
	mutating bool
	answered bool // a reply other than a rejection has arrived
}

// NewClient creates a client and starts its receive loop and prober.
//
// Each client draws a random 64-bit incarnation, and every request ID
// it mints is "<incarnation>.<seq>" (probes "<incarnation>.p<seq>"), so
// a client that reuses an earlier client's address, as a restarted
// process may, never collides with the IDs the heads remember of the
// earlier one. IDs are opaque: nothing parses them.
func NewClient[R any](cfg ClientConfig, codec ClientCodec[R]) (*Client[R], error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("rsm: ClientConfig.Endpoint required")
	}
	if len(cfg.Groups) == 0 {
		return nil, ErrNoHeads
	}
	for g, heads := range cfg.Groups {
		if len(heads) == 0 {
			return nil, fmt.Errorf("%w (group %d)", ErrNoHeads, g)
		}
		if len(heads) > 64 { // a call's sent and tried sets are 64-bit masks
			return nil, fmt.Errorf("rsm: group %d lists %d heads, at most 64", g, len(heads))
		}
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = time.Second
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 3
	}
	if cfg.RedeemAfter == 0 {
		cfg.RedeemAfter = 5 * time.Second
	}
	inc := rand.Uint64()
	c := &Client[R]{
		cfg:     cfg,
		codec:   codec,
		inc:     base64.RawURLEncoding.EncodeToString(binary.BigEndian.AppendUint64(nil, inc)),
		waiters: make(map[string]*waiter[R]),
		done:    make(chan struct{}),
	}
	for _, heads := range cfg.Groups {
		c.groups = append(c.groups, &headSet[R]{addrs: slices.Clone(heads), down: make([]bool, len(heads))})
	}
	// Clients created together start their read rotations apart.
	c.readRR.Store(inc)
	go c.recvLoop()
	if cfg.RedeemAfter > 0 {
		go c.probeLoop()
	}
	return c, nil
}

// Groups reports how many groups the client routes across.
func (c *Client[R]) Groups() int { return len(c.groups) }

// Heads returns group g's head addresses, which the caller must not modify.
func (c *Client[R]) Heads(g int) []transport.Addr { return c.groups[g].addrs }

// Close shuts the client down; in-flight calls fail promptly.
func (c *Client[R]) Close() {
	c.once.Do(func() {
		close(c.done)
		c.cfg.Endpoint.Close()
	})
}

// recvLoop decodes each reply and hands it to its waiter; a reply
// nobody takes goes straight back. A connection-loss hint goes to
// headLost.
func (c *Client[R]) recvLoop() {
	for dg := range c.cfg.Endpoint.Recv() {
		if dg.Lost {
			c.headLost(dg.From)
			continue
		}
		r, reqID, err := c.codec.Decode(dg.Payload)
		if err != nil {
			continue
		}
		taken := false
		c.mu.Lock()
		if w := c.waiters[reqID]; w != nil {
			c.learnLocked(w, dg.From, r)
			select {
			case w.ch <- r:
				taken = true
			default: // duplicate reply; the first one won
			}
		}
		c.mu.Unlock()
		if !taken {
			c.codec.Release(r)
		}
	}
}

// headLost acts on a connection-loss hint for a head, as its crash
// raises: the head is marked down, mutations move to the next healthy
// head, and every unanswered call that was sent to it is told, so that
// it hedges or moves on now rather than when its timer fires (see
// Call). A live head the hint wronged is revived by its next reply or
// by the prober.
func (c *Client[R]) headLost(from transport.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, hs := range c.groups {
		idx := slices.Index(hs.addrs, from)
		if idx < 0 {
			continue
		}
		hs.down[idx] = true
		if hs.preferred == idx {
			tried := uint64(1) << idx
			hs.preferred = nextHeadLocked(hs, idx+1, &tried)
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

// learnLocked applies one reply to its group's routing state. The
// replier is healthy. A head answering a request it was never sent is
// the sequencer, and mutations start there from now on; otherwise the
// first head to answer a mutation becomes sticky. Replies arrive in
// order, so an origin's late reply cannot undo a learned sequencer.
// Callers hold c.mu.
func (c *Client[R]) learnLocked(w *waiter[R], from transport.Addr, r R) {
	idx := slices.Index(w.hs.addrs, from)
	if idx < 0 {
		return
	}
	w.hs.down[idx] = false
	if c.codec.NotPrimary(r) {
		return
	}
	first := !w.answered
	w.answered = true
	if w.sent&(1<<idx) == 0 || (first && w.mutating) {
		w.hs.preferred = idx
	}
}

// register adds a waiter for reqID on group hs, recycling a retired
// one when there is one.
func (c *Client[R]) register(reqID string, hs *headSet[R], mutating bool) (*waiter[R], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.done:
		return nil, ErrClosed
	default:
	}
	var w *waiter[R]
	if n := len(c.free); n > 0 {
		w, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w = &waiter[R]{ch: make(chan R, 1), lost: make(chan int, 1), timer: time.NewTimer(time.Hour)}
		w.timer.Stop()
	}
	*w = waiter[R]{reqID: reqID, ch: w.ch, lost: w.lost, timer: w.timer, hs: hs, mutating: mutating}
	c.waiters[reqID] = w
	return w, nil
}

// unregister ends a finished call: its timer stops, and the waiter is
// retired, except that a mutation's waiter lingers as its group's
// lastMut and retires the previous one.
func (c *Client[R]) unregister(w *waiter[R]) {
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
// The identity check matters because a call to several groups may
// reuse one request ID. The receive loop sends only under c.mu to a
// registered waiter, so once retired nothing can reach it. Callers
// hold c.mu.
func (c *Client[R]) retireLocked(w *waiter[R]) {
	if c.waiters[w.reqID] == w {
		delete(c.waiters, w.reqID)
	}
	select {
	case r := <-w.ch:
		c.codec.Release(r)
	default:
	}
	select {
	case <-w.lost:
	default:
	}
	*w = waiter[R]{ch: w.ch, lost: w.lost, timer: w.timer}
	c.free = append(c.free, w)
}

// send transmits a request to head idx, recording the target first so
// a fast reply is attributed correctly. A send error marks the head
// down.
func (c *Client[R]) send(w *waiter[R], idx int, payload []byte) error {
	c.mu.Lock()
	w.sent |= 1 << idx
	c.mu.Unlock()
	err := c.cfg.Endpoint.Send(w.hs.addrs[idx], payload)
	if err != nil {
		c.markDown(w.hs, idx)
	}
	return err
}

// idBlock is how many request IDs the client mints at a time.
const idBlock = 64

// appendReqID appends a request ID, "<inc>.<tag><seq>", to b.
func appendReqID(b []byte, inc, tag string, seq uint64) []byte {
	b = append(b, inc...)
	b = append(b, '.')
	b = append(b, tag...)
	return strconv.AppendUint(b, seq, 10)
}

// NextID hands out the client's next request ID, "<inc>.<seq>". IDs
// are minted idBlock at a time into one string, each followed by a
// space, and handed out as substrings of it, so a call allocates no ID
// of its own; a block stays alive while any of its IDs is referenced.
func (c *Client[R]) NextID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ids == "" {
		first := c.reqSeq.Add(idBlock) - idBlock + 1
		b := c.idBuf[:0]
		for i := uint64(0); i < idBlock; i++ {
			b = append(appendReqID(b, c.inc, "", first+i), ' ')
		}
		c.ids, c.idBuf = string(b), b
	}
	id, rest, _ := strings.Cut(c.ids, " ")
	c.ids = rest
	return id
}

// Call sends payload, a request carrying reqID, to group g and returns
// its reply, failing over across the group's heads. Reads (mutating
// false) rotate their starting head: under leasing any caught-up head
// serves even an ordered read locally, so pinning reads to the head
// writes chose would waste the other heads' leases. A reply raises the
// group's epoch floor (see ObserveEpoch). The transport does not retain
// payload after Send, so the caller may reuse it once Call returns.
func (c *Client[R]) Call(g int, reqID string, mutating bool, payload []byte) (R, error) {
	var none R
	hs := c.groups[g]
	w, err := c.register(reqID, hs, mutating)
	if err != nil {
		return none, err
	}
	defer c.unregister(w)
	c.mu.Lock()
	start := hs.preferred
	if !mutating {
		start = c.readStartLocked(hs)
	}
	c.mu.Unlock()

	// The failover walk covers every head each round, but visits
	// down-marked heads last (nextHead). A mutation unanswered after a
	// sixteenth of the attempt timeout is hedged: the same payload, whose
	// request ID keeps it exactly-once, goes to the next head while the
	// call keeps waiting on the first; only the full timeout marks the
	// silent head down. The hedge matters when the sequencer crashes
	// after the survivors applied a write it intercepted but before it
	// replied: it fetches that answer from a survivor's dedup table. A
	// loss hint for the head an attempt waits on (headLost) sends the
	// hedge at once, and moves a call that has no hedge to the next
	// head; survivors expel a crashed head within milliseconds, so even
	// the short delay would be most of the outage.
	n := len(hs.addrs)
	hedges := mutating && n > 1
	var tried uint64
	var lastErr error
	replies := 0
	attempts := c.cfg.Rounds * n
	timer := w.timer
	for i := 0; i < attempts; i++ {
		idx := c.nextHead(hs, start, &tried)
		if err := c.send(w, idx, payload); err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return none, ErrClosed
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
			case r := <-w.ch:
				replies++
				if !c.codec.NotPrimary(r) {
					c.ObserveEpoch(g, c.codec.Epoch(r))
					return r, nil
				}
				c.codec.Release(r)
				break await // alive but outside the primary component
			case <-timer.C:
				if !hedge {
					c.markDown(hs, idx) // silent: try the next head
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
				return none, ErrClosed
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
		// Not a single head replied: a crashed or partitioned-away
		// group, not one slow head. Name what was tried so the operator
		// can tell a bad head list from a down cluster.
		why := "all silent"
		if lastErr != nil {
			why = "last send error: " + lastErr.Error()
		}
		return none, fmt.Errorf("%w (%w): tried %v over %d attempts, %s",
			ErrNoHealthyHeads, ErrUnreached, hs.addrs, attempts, why)
	}
	return none, fmt.Errorf("%w after %d attempts", ErrUnreached, attempts)
}

// nextHead is nextHeadLocked under c.mu.
func (c *Client[R]) nextHead(hs *headSet[R], start int, tried *uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nextHeadLocked(hs, start, tried)
}

// nextHeadLocked picks a walk's next head from start: the first untried
// healthy one, else the first untried one, judged against the
// *current* health map, which the prober may be updating while a call
// waits. Once every head has been tried, all are eligible again.
// Callers hold c.mu.
func nextHeadLocked[R any](hs *headSet[R], start int, tried *uint64) int {
	n := len(hs.addrs)
	if *tried == ^uint64(0)>>(64-n) {
		*tried = 0
	}
	idx := -1
	for j := 0; j < n; j++ {
		if k := (start + j) % n; *tried&(1<<k) == 0 && (idx < 0 || !hs.down[k]) {
			if idx = k; !hs.down[k] {
				break
			}
		}
	}
	*tried |= 1 << idx
	return idx
}

// readStartLocked picks the next read's starting head in a group,
// rotating over the heads currently believed healthy (over all of them
// when none are). Down-marked heads are re-admitted only by the prober
// (or a failover reply), never by the rotation itself, so reads don't
// pay timeouts re-probing dead heads. Callers hold c.mu.
func (c *Client[R]) readStartLocked(hs *headSet[R]) int {
	var buf [64]int // a group has at most 64 heads (see NewClient)
	alive := buf[:0]
	for i, down := range hs.down {
		if !down {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return int(c.readRR.Add(1) % uint64(len(hs.addrs)))
	}
	return alive[int(c.readRR.Add(1)%uint64(len(alive)))]
}

func (c *Client[R]) markDown(hs *headSet[R], idx int) {
	c.mu.Lock()
	hs.down[idx] = true
	c.mu.Unlock()
}

// probeLoop re-probes heads off the request path. The first round
// covers every address, so spare slots in a static head list are
// marked down before a call's failover walk would wait out a timeout on
// each; later rounds, every RedeemAfter, cover only down-marked heads,
// so a recovered head rejoins its group's read rotation.
func (c *Client[R]) probeLoop() {
	probeRound := func(all bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for g, hs := range c.groups {
			for i, down := range hs.down {
				if all || down {
					go c.probe(g, i)
				}
			}
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

// probe sends one health check to a head and records the outcome:
// healthy if it answers within the attempt timeout, down if it doesn't
// (or the send fails outright).
func (c *Client[R]) probe(g, i int) {
	hs := c.groups[g]
	var buf [32]byte
	reqID := string(appendReqID(buf[:0], c.inc, "p", c.reqSeq.Add(1)))
	w, err := c.register(reqID, hs, false)
	if err != nil {
		return
	}
	defer c.unregister(w)
	if c.send(w, i, c.codec.Probe(reqID)) != nil {
		return
	}
	// The receive loop marks the head healthy when it answers.
	w.timer.Reset(c.cfg.AttemptTimeout)
	select {
	case r := <-w.ch:
		c.codec.Release(r)
	case <-w.timer.C:
		c.markDown(hs, i)
	case <-c.done:
	}
}

// ObserveEpoch records a state version group g answered with and
// reports whether it regressed below one the client already saw (a
// lagging head answering after a fresher one).
func (c *Client[R]) ObserveEpoch(g int, epoch uint64) (regressed bool) {
	if epoch == 0 {
		return false
	}
	hs := c.groups[g]
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < hs.minEpoch {
		return true
	}
	hs.minEpoch = epoch
	return false
}
