// Package tcpnet carries the transport datagram abstraction over TCP,
// so the joshuad daemon and the control commands can run as separate
// processes on separate machines.
//
// Each endpoint listens on its own TCP address and maintains one
// asynchronous sender per peer: Send encodes the datagram into a
// pooled buffer, appends it to the peer's bounded queue, and returns
// immediately; a per-peer writer goroutine dials off the hot path and
// flushes adjacent frames with a single writev (net.Buffers). A slow
// or dead peer therefore never stalls the caller — in particular the
// group communication event loop — it only fills that peer's queue,
// which sheds oldest-first like a congested UDP socket would.
//
// Delivery stays best-effort — the group communication layer supplies
// reliability — but Send still surfaces drops it can detect locally:
// unknown peers synchronously, and dial failures, write failures, and
// queue overflow asynchronously on the next Send to that peer. A
// client doing head failover thus skips a dead head after one failed
// attempt instead of waiting out a timeout, even though the failure
// now belongs to an earlier datagram.
//
// When a connection ends because the peer closed or reset it, as a
// dead process's kernel does, the endpoint hands its receiver a
// connection-loss hint (transport.Message.Lost) for that peer. A local
// close — Close, a dead connection being dropped, the writer giving up
// after a failed write — and a framing error raise none.
//
// Logical addresses ("host/service") are mapped to TCP addresses by a
// Resolver, typically a static table loaded from the cluster
// configuration file, mirroring how the original JOSHUA prototype
// distributed a node list via libconfuse configuration.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

const (
	// defaultQueueLen bounds each peer's outbound frame queue. At the
	// gcs layer a full queue looks like datagram loss, which NACK
	// retransmission absorbs.
	defaultQueueLen = 1024
	// maxWritev bounds how many queued frames one writev combines.
	maxWritev = 64
	// dialTimeout bounds the writer's connection attempt; the frames
	// queued behind a dead peer are dropped when it expires.
	dialTimeout = 2 * time.Second
)

// Resolver maps logical addresses to TCP dial targets.
type Resolver interface {
	// Resolve returns the "host:port" for a logical address, or
	// ok=false if the address is unknown.
	Resolve(addr transport.Addr) (string, bool)
}

// StaticResolver is a fixed address table.
type StaticResolver map[transport.Addr]string

// Resolve implements Resolver.
func (s StaticResolver) Resolve(addr transport.Addr) (string, bool) {
	tcp, ok := s[addr]
	return tcp, ok
}

// Stats counts transport-level events since the endpoint was created.
type Stats struct {
	QueueDrops    uint64 // frames shed oldest-first on queue overflow
	DialFailures  uint64 // writer dial attempts that failed
	WriteFailures uint64 // connection writes that failed
}

// Endpoint is a TCP-backed transport.Endpoint.
type Endpoint struct {
	addr     transport.Addr
	resolver Resolver
	listener net.Listener
	recv     chan transport.Message
	queueLen int // per-peer send queue bound (tests shrink it)

	queueDrops    atomic.Uint64
	dialFailures  atomic.Uint64
	writeFailures atomic.Uint64

	mu      sync.Mutex
	senders map[transport.Addr]*peerSender
	closed  bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Listen creates an endpoint with logical address addr accepting TCP
// connections on tcpAddr (e.g. ":7001"). The resolver maps peer
// logical addresses for outbound sends.
func Listen(addr transport.Addr, tcpAddr string, resolver Resolver) (*Endpoint, error) {
	l, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		addr:     addr,
		resolver: resolver,
		listener: l,
		recv:     make(chan transport.Message, 4096),
		queueLen: defaultQueueLen,
		senders:  make(map[transport.Addr]*peerSender),
	}
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's logical address.
func (e *Endpoint) Addr() transport.Addr { return e.addr }

// TCPAddr returns the actual listen address, useful when the endpoint
// was created with port 0.
func (e *Endpoint) TCPAddr() string { return e.listener.Addr().String() }

// Recv returns the incoming datagram channel.
func (e *Endpoint) Recv() <-chan transport.Message { return e.recv }

// Stats returns a snapshot of the transport counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		QueueDrops:    e.queueDrops.Load(),
		DialFailures:  e.dialFailures.Load(),
		WriteFailures: e.writeFailures.Load(),
	}
}

// Send queues one datagram for the peer with the given logical
// address and returns without waiting for the network. A non-nil
// error reports a drop detected locally: an unknown peer (this
// datagram), or a dial/write failure or queue overflow on this peer's
// sender (possibly an earlier datagram). Callers wanting the plain
// best-effort contract ignore the error; failover callers use it to
// advance to the next peer.
func (e *Endpoint) Send(to transport.Addr, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	s := e.senders[to]
	if s == nil {
		tcp, ok := e.resolver.Resolve(to)
		if !ok {
			e.mu.Unlock()
			return fmt.Errorf("tcpnet: unknown peer %s", to)
		}
		s = e.newSender(to, tcp, nil)
	}
	e.mu.Unlock()

	enc := codec.GetEncoder(len(payload) + len(e.addr) + len(to) + 16)
	enc.PutString(string(e.addr))
	enc.PutString(string(to))
	enc.PutBytes(payload)
	if enc.Len() > codec.MaxFrameSize {
		n := enc.Len()
		enc.Release()
		return fmt.Errorf("tcpnet: %w: frame of %d bytes", codec.ErrTooLarge, n)
	}
	return s.enqueue(enc)
}

// newSender registers and starts a sender for a peer. Caller holds
// e.mu. conn is non-nil when adopting an inbound connection.
func (e *Endpoint) newSender(to transport.Addr, dialAddr string, conn net.Conn) *peerSender {
	s := &peerSender{ep: e, to: to, dialAddr: dialAddr, conn: conn}
	s.cond = sync.NewCond(&s.mu)
	e.senders[to] = s
	go s.writeLoop()
	return s
}

// evict removes a sender from the table, so a later Send starts fresh.
func (e *Endpoint) evict(s *peerSender) {
	e.mu.Lock()
	if e.senders[s.to] == s {
		delete(e.senders, s.to)
	}
	e.mu.Unlock()
}

// Close shuts down the listener, all peer senders, and their
// connections.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	senders := e.senders
	e.senders = map[transport.Addr]*peerSender{}
	close(e.recv)
	e.mu.Unlock()

	err := e.listener.Close()
	for _, s := range senders {
		s.shutdown()
	}
	return err
}

// peerSender owns the outbound path to one peer: a bounded queue of
// encoded frames and the goroutine that dials and writes them.
type peerSender struct {
	ep       *Endpoint
	to       transport.Addr
	dialAddr string // empty for adopted inbound connections (cannot redial)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*codec.Encoder
	err    error // sticky: reported by the next enqueue, then cleared
	conn   net.Conn
	closed bool

	// The writer's scratch, reused by every writev: the frames taken
	// off the queue, their length headers, and the [hdr, frame] run.
	// wv is the copy of bufs that WriteTo consumes.
	batch [maxWritev]*codec.Encoder
	hdrs  [4 * maxWritev]byte
	bufs  net.Buffers
	wv    net.Buffers
}

// enqueue appends a frame, shedding the oldest when the queue is
// full, and surfaces any failure recorded since the previous call.
func (s *peerSender) enqueue(enc *codec.Encoder) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		enc.Release()
		return fmt.Errorf("tcpnet: send to %s: connection closed", s.to)
	}
	sticky := s.err
	s.err = nil
	var overflow error
	if len(s.queue) >= s.ep.queueLen {
		oldest := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		oldest.Release()
		s.ep.queueDrops.Add(1)
		overflow = fmt.Errorf("tcpnet: send queue to %s full, oldest frame dropped", s.to)
	}
	s.queue = append(s.queue, enc)
	s.mu.Unlock()
	s.cond.Signal()
	if sticky != nil {
		return fmt.Errorf("tcpnet: send to %s: %w", s.to, sticky)
	}
	return overflow
}

// fail records an error for the next enqueue to surface and drops the
// queued frames (they would only arrive out of order after redial;
// the reliability layer above retransmits).
func (s *peerSender) fail(err error) {
	s.mu.Lock()
	s.err = err
	for _, f := range s.queue {
		f.Release()
	}
	s.queue = nil
	s.mu.Unlock()
}

// shutdown stops the writer and releases everything. Called on
// endpoint close.
func (s *peerSender) shutdown() {
	s.mu.Lock()
	s.closed = true
	for _, f := range s.queue {
		f.Release()
	}
	s.queue = nil
	if s.conn != nil {
		s.conn.Close()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// connBroken tells the sender its connection died (reported by the
// read side). Redialable senders just drop the connection — the
// writer redials on the next frame; adopted inbound connections
// cannot be redialed, so the sender retires.
func (s *peerSender) connBroken(conn net.Conn) {
	s.mu.Lock()
	if s.closed || s.conn != conn {
		s.mu.Unlock()
		return
	}
	s.conn = nil
	conn.Close()
	retire := s.dialAddr == ""
	if retire {
		s.closed = true
		for _, f := range s.queue {
			f.Release()
		}
		s.queue = nil
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	if retire {
		s.ep.evict(s)
	}
}

// writeLoop is the per-peer writer goroutine: it waits for frames,
// establishes the connection when needed, and flushes up to maxWritev
// adjacent frames with one writev.
func (s *peerSender) writeLoop() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		conn := s.conn
		dialAddr := s.dialAddr
		s.mu.Unlock()

		if conn == nil {
			if dialAddr == "" {
				// Adopted connection died and there is nothing to
				// dial; retire (connBroken normally already did).
				s.fail(fmt.Errorf("peer connection lost"))
				s.ep.evict(s)
				s.mu.Lock()
				s.closed = true
				s.mu.Unlock()
				return
			}
			c, err := net.DialTimeout("tcp", dialAddr, dialTimeout)
			if err != nil {
				s.ep.dialFailures.Add(1)
				s.fail(fmt.Errorf("dial: %w", err))
				continue // stay alive; a later frame triggers a redial
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conn = c
			s.mu.Unlock()
			conn = c
			// Read replies multiplexed on this outbound connection
			// (servers answer clients over the inbound socket).
			go s.ep.readLoop(c, s)
		}

		// Take up to maxWritev frames and shift the rest down in
		// place, so the queue reuses one backing array instead of
		// creeping along it and reallocating.
		s.mu.Lock()
		n := copy(s.batch[:], s.queue)
		rest := copy(s.queue, s.queue[n:])
		clear(s.queue[rest:])
		s.queue = s.queue[:rest]
		s.mu.Unlock()

		// One writev for the whole run of frames: [hdr, payload]
		// pairs, each header a 4-byte big-endian length.
		batch := s.batch[:n]
		s.bufs = s.bufs[:0]
		for i, f := range batch {
			b := f.Bytes()
			hdr := s.hdrs[4*i : 4*i+4]
			binary.BigEndian.PutUint32(hdr, uint32(len(b)))
			s.bufs = append(s.bufs, hdr, b)
		}
		s.wv = s.bufs
		_, err := s.wv.WriteTo(conn)
		for _, f := range batch {
			f.Release()
		}
		clear(batch)
		clear(s.bufs)
		if err != nil {
			s.ep.writeFailures.Add(1)
			conn.Close()
			s.mu.Lock()
			if s.conn == conn {
				s.conn = nil
			}
			retire := s.dialAddr == "" || s.closed
			if retire {
				s.closed = true
			}
			s.mu.Unlock()
			s.fail(fmt.Errorf("write: %w", err))
			if retire {
				s.ep.evict(s)
				return
			}
		}
	}
}

func (e *Endpoint) acceptLoop() {
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go e.readLoop(conn, nil)
	}
}

// push hands one message to the receiver, dropping it when the receive
// queue is full, as a UDP socket would. The closed check and the
// channel send share the mutex with Close, which closes e.recv under
// the same lock; this keeps the send from racing a channel close. It
// reports false once the endpoint is closed.
func (e *Endpoint) push(m transport.Message) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	select {
	case e.recv <- m:
	default:
	}
	return true
}

// peerClosed reports whether a read failed because the peer closed or
// reset the connection, rather than because this side closed it or the
// stream was malformed.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET)
}

// readLoop consumes frames from one connection. owner is the sender
// that dialed it, nil for inbound connections; either way the bound
// sender is told when the connection dies so a later Send redials
// instead of writing into a dead socket. When the peer closed or reset
// the connection, the receiver gets a connection-loss hint for it; an
// inbound connection names its peer only once a frame has arrived.
func (e *Endpoint) readLoop(conn net.Conn, owner *peerSender) {
	var adopted *peerSender
	defer func() {
		conn.Close()
		if owner != nil {
			owner.connBroken(conn)
		}
		if adopted != nil {
			adopted.connBroken(conn)
		}
	}()
	// One length-prefix buffer per connection, and the sender's
	// address, converted again only when a frame names another.
	hdr := new([4]byte)
	var from transport.Addr
	if owner != nil {
		from = owner.to
	}
	for {
		frame, err := codec.ReadFrame(conn, hdr)
		if err != nil {
			if from != "" && peerClosed(err) {
				e.push(transport.Message{From: from, To: e.addr, Lost: true})
			}
			return
		}
		dec := codec.NewDecoder(frame)
		fromB := dec.Bytes()
		to := dec.Bytes()
		payload := dec.Bytes()
		if dec.Finish() != nil || string(to) != string(e.addr) {
			continue // malformed or misrouted: drop
		}
		if string(fromB) != string(from) {
			from = transport.Addr(fromB)
		}
		if owner == nil && adopted == nil && from != "" {
			// Learn the inbound peer so replies can reuse this
			// connection — clients (jsub, jstat, the mom's jdone)
			// are not in the static resolver table. The adopted
			// sender cannot redial (dialAddr empty): when this
			// connection dies it retires, and the next Send goes back
			// through the resolver.
			e.mu.Lock()
			if !e.closed {
				if _, ok := e.senders[from]; !ok {
					adopted = e.newSender(from, "", conn)
				}
			}
			e.mu.Unlock()
		}

		// The payload aliases the frame, which this read allocated
		// and no other Message shares.
		if !e.push(transport.Message{From: from, To: e.addr, Payload: payload}) {
			return
		}
	}
}
