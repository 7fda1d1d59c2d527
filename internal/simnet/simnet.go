// Package simnet is an in-memory message-passing network with a
// configurable latency, loss, partition, and crash model.
//
// It stands in for the physical test cluster of the JOSHUA paper (four
// head nodes and two compute nodes on a Fast Ethernet hub): addresses
// carry a "host/service" structure, and the latency model distinguishes
// intra-host IPC from LAN hops so that the paper's latency shape —
// cheap single-head replication, an expensive jump to two heads, modest
// increments after — emerges from message counts rather than from
// hard-coded results.
//
// Failure injection mirrors the paper's methodology ("failures were
// simulated by unplugging network cables and by forcibly shutting down
// individual processes"): Partition corresponds to the former and
// CrashHost to the latter. The two differ in what the survivors see. A
// cut cable is silent: the peer's datagrams just stop. A killed
// process's kernel resets its connections, so CrashHost also hands
// every live endpoint elsewhere a connection-loss hint
// (transport.Message.Lost) for each endpoint on the crashed host, and
// a later Send to the crashed host fails with ErrHostDown, as a dial
// to a dead process is refused.
package simnet

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"joshua/internal/transport"
)

// Latency describes one-way datagram delay.
type Latency struct {
	// Local applies when sender and receiver share a host (IPC).
	Local time.Duration
	// Remote applies when the datagram crosses the LAN.
	Remote time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter)
	// to every datagram.
	Jitter time.Duration
}

// Config parameterizes a Network.
type Config struct {
	Latency Latency
	// DropRate is the probability in [0,1] that a remote datagram is
	// silently lost. Local (same-host) datagrams are never dropped.
	DropRate float64
	// Seed makes loss and jitter reproducible. Zero selects a fixed
	// default seed, so experiments are deterministic unless a caller
	// opts into variation.
	Seed int64
	// QueueLen bounds each endpoint's receive queue; datagrams
	// arriving at a full queue are dropped (as a kernel socket buffer
	// would). Zero selects a generous default.
	QueueLen int
}

const defaultQueueLen = 4096

// ErrHostDown is Send's error for a datagram to a crashed host: the
// network knows the host is down, as a TCP sender learns of a refused
// connection, so a failover caller can move to its next peer at once.
// A partition or random loss stays silent, as a cut cable does.
var ErrHostDown = errors.New("simnet: destination host down")

// Network is an in-memory transport.Network with fault injection.
type Network struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[transport.Addr]*endpoint
	// cut holds severed host pairs (unplugged cables). Keys are
	// ordered pairs; both directions are stored.
	cut map[[2]string]bool
	// downHosts holds crashed hosts; all their endpoints drop
	// traffic both ways until RestartHost.
	downHosts map[string]bool
	// flows holds one ordered delivery queue per (src, dst) pair so
	// that jitter never reorders datagrams within a flow, matching
	// the per-pair FIFO most real links provide.
	flows  map[flowKey]*flow
	closed bool

	stats Stats
}

type flowKey struct {
	from, to transport.Addr
}

// flow delivers datagrams of one (src, dst) pair strictly in send
// order, sleeping until each one's scheduled arrival.
type flow struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []scheduledMsg
	done  bool
}

type scheduledMsg struct {
	at  time.Time
	msg transport.Message
}

func newFlow() *flow {
	f := &flow{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *flow) push(at time.Time, msg transport.Message) {
	f.mu.Lock()
	f.queue = append(f.queue, scheduledMsg{at, msg})
	f.mu.Unlock()
	f.cond.Signal()
}

func (f *flow) stop() {
	f.mu.Lock()
	f.done = true
	f.mu.Unlock()
	f.cond.Signal()
}

// run drains the flow, delivering each datagram at (or after) its
// scheduled arrival time via deliver.
func (f *flow) run(deliver func(transport.Message)) {
	for {
		f.mu.Lock()
		for len(f.queue) == 0 && !f.done {
			f.cond.Wait()
		}
		if f.done {
			f.mu.Unlock()
			return
		}
		next := f.queue[0]
		f.queue = f.queue[1:]
		f.mu.Unlock()

		if wait := time.Until(next.at); wait > 0 {
			time.Sleep(wait)
		}
		deliver(next.msg)
	}
}

// Stats counts network activity since creation. Retrieve a snapshot
// with (*Network).Stats.
type Stats struct {
	Sent        uint64 // datagrams accepted by Send
	Delivered   uint64 // datagrams and connection-loss hints handed to a receive queue
	DroppedLoss uint64 // lost to random loss
	DroppedCut  uint64 // lost to partitions
	DroppedDown uint64 // lost to crashed hosts or closed endpoints
	DroppedFull uint64 // lost to full receive queues, hints included
	Bytes       uint64 // payload bytes accepted by Send
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = defaultQueueLen
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x05C847 // arbitrary fixed default for reproducibility
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[transport.Addr]*endpoint),
		cut:       make(map[[2]string]bool),
		downHosts: make(map[string]bool),
		flows:     make(map[flowKey]*flow),
	}
}

// Close stops the network's internal delivery goroutines. Datagrams
// still queued are discarded. Endpoints become unusable.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, f := range n.flows {
		f.stop()
	}
	for _, ep := range n.endpoints {
		if !ep.closed {
			ep.closed = true
			close(ep.recv)
		}
	}
	n.endpoints = make(map[transport.Addr]*endpoint)
}

// Endpoint attaches an endpoint at addr.
func (n *Network) Endpoint(addr transport.Addr) (transport.Endpoint, error) {
	return n.EndpointWithQueue(addr, 0)
}

// EndpointWithQueue attaches an endpoint whose receive queue holds
// queueLen datagrams instead of the network-wide Config.QueueLen
// (zero or negative selects that default). The 10k-client benchmarks
// need the asymmetry: a head's queue must absorb a whole client
// fleet's burst, while each client sees single-digit outstanding
// replies — at that fleet size, fleet-wide deep queues would cost
// gigabytes of idle channel buffer.
func (n *Network) EndpointWithQueue(addr transport.Addr, queueLen int) (transport.Endpoint, error) {
	if queueLen <= 0 {
		queueLen = n.cfg.QueueLen
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		return nil, transport.ErrAddrInUse
	}
	ep := &endpoint{
		net:  n,
		addr: addr,
		recv: make(chan transport.Message, queueLen),
	}
	n.endpoints[addr] = ep
	return ep, nil
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Partition severs the link between two hosts in both directions, as
// if the cable between them were unplugged. It is idempotent.
func (n *Network) Partition(hostA, hostB string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]string{hostA, hostB}] = true
	n.cut[[2]string{hostB, hostA}] = true
}

// Isolate severs a host from every other host currently attached.
func (n *Network) Isolate(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hosts := n.hostsLocked()
	for _, h := range hosts {
		if h != host {
			n.cut[[2]string{host, h}] = true
			n.cut[[2]string{h, host}] = true
		}
	}
}

// Heal restores the link between two hosts.
func (n *Network) Heal(hostA, hostB string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, [2]string{hostA, hostB})
	delete(n.cut, [2]string{hostB, hostA})
}

// HealAll removes every partition.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[[2]string]bool)
}

// CrashHost fail-stops every endpoint on a host: in-flight and future
// datagrams to and from the host are discarded until RestartHost, and a
// Send to the host returns ErrHostDown. The endpoints themselves remain
// attached; their owners are presumed dead and receive nothing.
//
// As a killed process's kernel resets its connections, every live
// endpoint on another host receives one connection-loss hint
// (transport.Message.Lost) per endpoint on the crashed host. All the
// hints go out together one Latency.Remote later (at once on a
// zero-latency network). A hint crosses no severed link, reaches no
// crashed or closed endpoint, and is dropped at a full receive queue
// like any datagram. Crashing a host that is already down raises none.
func (n *Network) CrashHost(host string) {
	n.mu.Lock()
	var hints []transport.Message
	if !n.downHosts[host] {
		for from := range n.endpoints {
			if from.Host() != host {
				continue
			}
			for to := range n.endpoints {
				if h := to.Host(); h != host && !n.downHosts[h] {
					hints = append(hints, transport.Message{From: from, To: to, Lost: true})
				}
			}
		}
	}
	n.downHosts[host] = true
	delay := n.cfg.Latency.Remote
	n.mu.Unlock()

	send := func() {
		for _, m := range hints {
			n.deliverAddr(m)
		}
	}
	if delay <= 0 {
		send()
		return
	}
	time.AfterFunc(delay, send)
}

// RestartHost undoes CrashHost. The host's endpoints resume receiving;
// anything sent while it was down is lost (fail-stop, no replay).
func (n *Network) RestartHost(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downHosts, host)
}

// HostDown reports whether the host is currently crashed.
func (n *Network) HostDown(host string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.downHosts[host]
}

func (n *Network) hostsLocked() []string {
	seen := make(map[string]bool)
	var hosts []string
	for addr := range n.endpoints {
		h := addr.Host()
		if !seen[h] {
			seen[h] = true
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// send routes one datagram from e. The payload is copied only once the
// datagram is on its way (the caller may reuse its buffer, and delivery
// is asynchronous), so a drop decided here costs no allocation.
func (n *Network) send(e *endpoint, to transport.Addr, payload []byte) error {
	n.mu.Lock()
	if e.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(len(payload))

	from := e.addr
	srcHost, dstHost := from.Host(), to.Host()
	if n.downHosts[dstHost] {
		n.stats.DroppedDown++
		n.mu.Unlock()
		return ErrHostDown
	}
	if n.downHosts[srcHost] {
		n.stats.DroppedDown++
		n.mu.Unlock()
		return nil
	}
	local := srcHost == dstHost
	if !local && n.cut[[2]string{srcHost, dstHost}] {
		n.stats.DroppedCut++
		n.mu.Unlock()
		return nil
	}
	if !local && n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		n.stats.DroppedLoss++
		n.mu.Unlock()
		return nil
	}
	dst, ok := n.endpoints[to]
	if !ok || dst.closed {
		n.stats.DroppedDown++
		n.mu.Unlock()
		return nil
	}

	delay := n.cfg.Latency.Remote
	if local {
		delay = n.cfg.Latency.Local
	}
	if n.cfg.Latency.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Latency.Jitter)))
	}

	var f *flow
	if delay > 0 {
		fk := flowKey{from, to}
		if f, ok = n.flows[fk]; !ok {
			f = newFlow()
			n.flows[fk] = f
			go f.run(func(m transport.Message) { n.deliverAddr(m) })
		}
	}
	n.mu.Unlock()

	p := make([]byte, len(payload))
	copy(p, payload)
	msg := transport.Message{From: from, To: to, Payload: p}
	if f == nil {
		// Fast path: synchronous delivery preserves order trivially.
		n.deliver(dst, msg)
		return nil
	}
	f.push(time.Now().Add(delay), msg)
	return nil
}

// deliverAddr re-resolves the destination endpoint at arrival time so
// a flow queued before an endpoint closed does not deliver to it.
func (n *Network) deliverAddr(msg transport.Message) {
	n.mu.Lock()
	dst, ok := n.endpoints[msg.To]
	n.mu.Unlock()
	if !ok {
		n.mu.Lock()
		n.stats.DroppedDown++
		n.mu.Unlock()
		return
	}
	n.deliver(dst, msg)
}

// deliver hands msg to dst's receive queue unless the network lost it
// on the way. A connection-loss hint comes from a crashed host by
// design, so only a datagram is dropped for its sender being down.
func (n *Network) deliver(dst *endpoint, msg transport.Message) {
	n.mu.Lock()
	if dst.closed || n.downHosts[msg.To.Host()] || (n.downHosts[msg.From.Host()] && !msg.Lost) {
		n.stats.DroppedDown++
		n.mu.Unlock()
		return
	}
	// Re-check partitions at arrival time: a cable unplugged while
	// the datagram was "on the wire" loses it, as on a real network.
	srcHost, dstHost := msg.From.Host(), msg.To.Host()
	if srcHost != dstHost && n.cut[[2]string{srcHost, dstHost}] {
		n.stats.DroppedCut++
		n.mu.Unlock()
		return
	}
	select {
	case dst.recv <- msg:
		n.stats.Delivered++
		n.mu.Unlock()
	default:
		n.stats.DroppedFull++
		n.mu.Unlock()
	}
}

// endpoint implements transport.Endpoint on a Network.
type endpoint struct {
	net    *Network
	addr   transport.Addr
	recv   chan transport.Message
	closed bool // guarded by net.mu
}

func (e *endpoint) Addr() transport.Addr { return e.addr }

func (e *endpoint) Recv() <-chan transport.Message { return e.recv }

func (e *endpoint) Send(to transport.Addr, payload []byte) error {
	return e.net.send(e, to, payload)
}

func (e *endpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	delete(e.net.endpoints, e.addr)
	close(e.recv)
	return nil
}

var _ transport.Network = (*Network)(nil)
