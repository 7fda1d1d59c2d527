package tcpnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"joshua/internal/transport"
)

// pair creates two endpoints on loopback that can resolve each other.
func pair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	res := StaticResolver{}
	a, err := Listen("h1/a", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("h2/b", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	res["h1/a"] = a.TCPAddr()
	res["h2/b"] = b.TCPAddr()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func recvWithin(t *testing.T, ep transport.Endpoint, d time.Duration) (transport.Message, bool) {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		return m, ok
	case <-time.After(d):
		return transport.Message{}, false
	}
}

func TestRoundTrip(t *testing.T) {
	a, b := pair(t)
	if err := a.Send("h2/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithin(t, b, 2*time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if m.From != "h1/a" || string(m.Payload) != "hello" {
		t.Errorf("got %+v", m)
	}
	// Reply in the other direction (separate connection).
	if err := b.Send("h1/a", []byte("world")); err != nil {
		t.Fatal(err)
	}
	m, ok = recvWithin(t, a, 2*time.Second)
	if !ok || string(m.Payload) != "world" {
		t.Fatalf("reply: %+v ok=%v", m, ok)
	}
}

// TestReceivedPayloadIsOwned pins the transport.Message contract the
// group layer's zero-copy decode relies on, and so do the joshua
// client's and the pbs mom's in-place decodes: a received payload
// survives the sender overwriting and resending its buffer, and no two
// received payloads share memory.
func TestReceivedPayloadIsOwned(t *testing.T) {
	a, b := pair(t)
	buf := []byte("first!")
	if err := a.Send("h2/b", buf); err != nil {
		t.Fatal(err)
	}
	first, ok := recvWithin(t, b, 2*time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	copy(buf, "second")
	if err := a.Send("h2/b", buf); err != nil {
		t.Fatal(err)
	}
	second, ok := recvWithin(t, b, 2*time.Second)
	if !ok {
		t.Fatal("no second delivery")
	}
	if string(first.Payload) != "first!" || string(second.Payload) != "second" {
		t.Fatalf("payloads %q, %q", first.Payload, second.Payload)
	}
	// Overwrite the first payload up to its capacity.
	for i, all := 0, first.Payload[:cap(first.Payload)]; i < len(all); i++ {
		all[i] = 'X'
	}
	if string(second.Payload) != "second" || string(buf) != "second" {
		t.Fatal("received payloads share memory")
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	a, b := pair(t)
	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send("h2/b", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		m, ok := recvWithin(t, b, 2*time.Second)
		if !ok {
			t.Fatalf("missing message %d", i)
		}
		if string(m.Payload) != fmt.Sprintf("%d", i) {
			t.Fatalf("message %d out of order: %q", i, m.Payload)
		}
	}
}

func TestUnknownPeerReportsError(t *testing.T) {
	a, _ := pair(t)
	if err := a.Send("nowhere/x", []byte("lost")); err == nil {
		t.Error("Send to unknown peer should report the drop")
	}
}

func TestUnreachablePeerReportsError(t *testing.T) {
	res := StaticResolver{"gone/x": "127.0.0.1:1"} // nothing listens there
	a, err := Listen("h1/a", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Dialing happens off the Send path, so the failure surfaces on a
	// subsequent Send to the same peer rather than the first one.
	var got error
	for i := 0; i < 100 && got == nil; i++ {
		got = a.Send("gone/x", []byte("lost"))
		time.Sleep(10 * time.Millisecond)
	}
	if got == nil {
		t.Error("Send to unreachable peer should report the drop")
	}
	if a.Stats().DialFailures == 0 {
		t.Error("dial failure not counted")
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _ := pair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("h2/b", []byte("x")); err != transport.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	res := StaticResolver{}
	a, err := Listen("h1/a", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("h2/b", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	res["h2/b"] = b.TCPAddr()

	a.Send("h2/b", []byte("one"))
	if _, ok := recvWithin(t, b, 2*time.Second); !ok {
		t.Fatal("first delivery failed")
	}
	tcpAddr := b.TCPAddr()
	b.Close()

	// First send after the peer died may be eaten by the dead cached
	// connection (best-effort), which also evicts it.
	a.Send("h2/b", []byte("lost"))

	b2, err := Listen("h2/b", tcpAddr, res)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// Following sends must eventually get through on a new connection.
	var got bool
	for i := 0; i < 20 && !got; i++ {
		a.Send("h2/b", []byte("again"))
		_, got = recvWithin(t, b2, 100*time.Millisecond)
	}
	if !got {
		t.Fatal("no delivery after peer restart")
	}
}

func TestMisroutedFrameIgnored(t *testing.T) {
	// A frame addressed to someone else must be dropped, not surfaced.
	res := StaticResolver{}
	a, _ := Listen("h1/a", "127.0.0.1:0", res)
	b, _ := Listen("h2/b", "127.0.0.1:0", res)
	defer a.Close()
	defer b.Close()
	// Point the resolver's entry for a third party at b's socket.
	res["h3/c"] = b.TCPAddr()
	res["h2/b"] = b.TCPAddr()
	a.Send("h3/c", []byte("misrouted"))
	if _, ok := recvWithin(t, b, 200*time.Millisecond); ok {
		t.Fatal("endpoint accepted a frame addressed to another endpoint")
	}
	// Correctly addressed traffic still works on the same socket.
	a.Send("h2/b", []byte("ok"))
	if _, ok := recvWithin(t, b, 2*time.Second); !ok {
		t.Fatal("valid frame lost")
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b := pair(t)
	const goroutines = 8
	const per = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Send("h2/b", []byte("m"))
			}
		}()
	}
	wg.Wait()
	got := 0
	for got < goroutines*per {
		if _, ok := recvWithin(t, b, 2*time.Second); !ok {
			break
		}
		got++
	}
	// TCP is reliable once connected; all sends share one connection.
	if got != goroutines*per {
		t.Fatalf("received %d of %d", got, goroutines*per)
	}
}

func TestStalledPeerDoesNotBlockSend(t *testing.T) {
	// A peer that stops reading (e.g. a wedged head) fills its TCP
	// buffers; the old synchronous Send would block the caller — and
	// with it the gcs event loop — indefinitely. The async sender must
	// keep returning promptly and shed frames instead.
	res := StaticResolver{}
	a, err := Listen("h1/a", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A raw accept-and-never-read listener stands in for the stalled
	// peer.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			<-stop // hold the connection open, never read
			c.Close()
		}
	}()
	res["stalled/x"] = l.Addr().String()

	// Push far more than the TCP buffers plus the send queue can hold.
	payload := make([]byte, 64<<10)
	start := time.Now()
	for i := 0; i < 2000; i++ {
		before := time.Now()
		a.Send("stalled/x", payload) // errors (overflow) are expected
		if d := time.Since(before); d > time.Second {
			t.Fatalf("Send %d blocked for %v", i, d)
		}
	}
	if total := time.Since(start); total > 10*time.Second {
		t.Fatalf("2000 sends to a stalled peer took %v", total)
	}
	if a.Stats().QueueDrops == 0 {
		t.Error("expected queue drops against a stalled peer")
	}
}

func TestQueueOverflowSurfacesError(t *testing.T) {
	res := StaticResolver{}
	a, err := Listen("h1/a", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			<-stop
			c.Close()
		}
	}()
	res["stalled/x"] = l.Addr().String()
	a.queueLen = 8 // tiny queue so overflow is immediate

	payload := make([]byte, 64<<10) // larger than socket buffers absorb quickly
	var overflow error
	for i := 0; i < 1000 && overflow == nil; i++ {
		overflow = a.Send("stalled/x", payload)
	}
	if overflow == nil {
		t.Fatal("queue overflow never surfaced an error")
	}
}

func TestPeerDeathMidStreamRecovers(t *testing.T) {
	// Kill the peer in the middle of a stream: the dead connection
	// must be detected and evicted so later sends redial, and an error
	// must surface in between (the client-failover contract).
	res := StaticResolver{}
	a, err := Listen("h1/a", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("h2/b", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr := b.TCPAddr()
	res["h2/b"] = tcpAddr

	for i := 0; i < 10; i++ {
		if err := a.Send("h2/b", []byte("stream")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, ok := recvWithin(t, b, 2*time.Second); !ok {
			t.Fatalf("delivery %d failed", i)
		}
	}
	b.Close() // mid-stream death

	// Keep sending; an error must surface once the failure is
	// detected (dead connection or refused redial).
	var sawError bool
	for i := 0; i < 100 && !sawError; i++ {
		sawError = a.Send("h2/b", []byte("into the void")) != nil
		time.Sleep(10 * time.Millisecond)
	}
	if !sawError {
		t.Fatal("no error surfaced after peer died mid-stream")
	}

	// Restart the peer on the same address: sends must recover on a
	// fresh connection.
	b2, err := Listen("h2/b", tcpAddr, res)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	var got bool
	for i := 0; i < 50 && !got; i++ {
		a.Send("h2/b", []byte("recovered"))
		_, got = recvWithin(t, b2, 100*time.Millisecond)
	}
	if !got {
		t.Fatal("no delivery after peer restarted")
	}
}

func TestReplyToUnregisteredPeer(t *testing.T) {
	// A server must be able to answer a client that is absent from its
	// resolver table, by reusing the client's inbound connection —
	// this is how jsub/jstat receive their replies.
	serverRes := StaticResolver{} // knows nobody
	server, err := Listen("head/joshua", "127.0.0.1:0", serverRes)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	clientRes := StaticResolver{"head/joshua": server.TCPAddr()}
	client, err := Listen("cli-1/client", "127.0.0.1:0", clientRes)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Send("head/joshua", []byte("request")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithin(t, server, 2*time.Second)
	if !ok || string(m.Payload) != "request" {
		t.Fatalf("server recv: %+v ok=%v", m, ok)
	}
	// Reply to the learned peer address.
	if err := server.Send(m.From, []byte("response")); err != nil {
		t.Fatal(err)
	}
	r, ok := recvWithin(t, client, 2*time.Second)
	if !ok || string(r.Payload) != "response" {
		t.Fatalf("client recv: %+v ok=%v", r, ok)
	}
	// Several round trips over the same multiplexed connection.
	for i := 0; i < 10; i++ {
		client.Send("head/joshua", []byte("ping"))
		if _, ok := recvWithin(t, server, 2*time.Second); !ok {
			t.Fatalf("ping %d lost", i)
		}
		server.Send("cli-1/client", []byte("pong"))
		if _, ok := recvWithin(t, client, 2*time.Second); !ok {
			t.Fatalf("pong %d lost", i)
		}
	}
}

// TestSendRecvAllocs sends datagrams one at a time over loopback and
// counts the allocations of the whole round — Send, the writer, the
// reader — per datagram: the frame the reader reads into, which the
// received payload aliases, is the budget. Under -race, where
// allocation counts mean nothing, it checks only the payloads.
func TestSendRecvAllocs(t *testing.T) {
	a, b := pair(t)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	var bad error
	round := func() {
		if err := a.Send("h2/b", payload); err != nil && bad == nil {
			bad = err
		}
		m, ok := <-b.Recv()
		if (!ok || m.From != "h1/a" || m.To != "h2/b" || string(m.Payload) != string(payload)) && bad == nil {
			bad = fmt.Errorf("received %q from %q to %q (open %v)", m.Payload, m.From, m.To, ok)
		}
	}
	round() // dial and learn the peer outside the count
	got := testing.AllocsPerRun(5000, round)
	if bad != nil {
		t.Fatal(bad)
	}
	if !raceEnabled && got > 1 {
		t.Errorf("%v allocations per datagram, want <= 1", got)
	}
	t.Logf("%v allocations per datagram", got)
}

// lostWithin returns the first connection-loss hint ep receives within
// d, skipping datagrams.
func lostWithin(ep *Endpoint, d time.Duration) (transport.Message, bool) {
	deadline := time.After(d)
	for {
		select {
		case m, ok := <-ep.Recv():
			if !ok {
				return transport.Message{}, false
			}
			if m.Lost {
				return m, true
			}
		case <-deadline:
			return transport.Message{}, false
		}
	}
}

// TestPeerExitRaisesLost: a peer whose endpoint closes, as its process
// exiting would, is reported lost, over a connection either side
// dialed.
func TestPeerExitRaisesLost(t *testing.T) {
	for _, dir := range []string{"a dialed", "b dialed"} {
		t.Run(dir, func(t *testing.T) {
			a, b := pair(t)
			if dir == "a dialed" {
				a.Send("h2/b", []byte("hello"))
				if _, ok := recvWithin(t, b, 2*time.Second); !ok {
					t.Fatal("no delivery")
				}
			} else {
				b.Send("h1/a", []byte("hello"))
				if _, ok := recvWithin(t, a, 2*time.Second); !ok {
					t.Fatal("no delivery")
				}
			}
			b.Close()
			m, ok := lostWithin(a, 2*time.Second)
			if !ok {
				t.Fatal("no connection-loss hint after the peer closed")
			}
			if m.From != "h2/b" || m.To != "h1/a" || m.Payload != nil {
				t.Errorf("hint = %+v, want From h2/b, To h1/a, no payload", m)
			}
		})
	}
}

// holdPeer is a raw TCP peer that accepts connections and keeps each
// open, reading and discarding, until the test ends: a live peer that
// never closes or resets a connection.
type holdPeer struct {
	ln    net.Listener
	conns chan net.Conn
}

func newHoldPeer(t *testing.T) *holdPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &holdPeer{ln: ln, conns: make(chan net.Conn, 16)}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			h.conns <- c
			go io.Copy(io.Discard, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return h
}

// dialedConn waits for e's sender to peer to hold a connection and
// returns it.
func dialedConn(t *testing.T, e *Endpoint, peer transport.Addr) net.Conn {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		e.mu.Lock()
		s := e.senders[peer]
		e.mu.Unlock()
		if s != nil {
			s.mu.Lock()
			c := s.conn
			s.mu.Unlock()
			if c != nil {
				return c
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no connection to %s", peer)
	return nil
}

// TestLocalCloseRaisesNoLost: a connection this side closes — by Close,
// by dropping it as broken, or after a failed write — or abandons on a
// framing error raises no hint; the peer is still alive.
func TestLocalCloseRaisesNoLost(t *testing.T) {
	const peer = "h9/peer"
	setup := func(t *testing.T) (*Endpoint, *holdPeer, net.Conn) {
		h := newHoldPeer(t)
		e, err := Listen("h1/a", "127.0.0.1:0", StaticResolver{peer: h.ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if err := e.Send(peer, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		return e, h, dialedConn(t, e, peer)
	}
	noLost := func(t *testing.T, e *Endpoint) {
		t.Helper()
		if m, ok := lostWithin(e, 200*time.Millisecond); ok {
			t.Errorf("hint %+v raised for a live peer", m)
		}
	}

	t.Run("Close", func(t *testing.T) {
		e, _, _ := setup(t)
		e.Close()
		noLost(t, e)
	})
	t.Run("connBroken", func(t *testing.T) {
		e, _, c := setup(t)
		e.mu.Lock()
		s := e.senders[peer]
		e.mu.Unlock()
		s.connBroken(c)
		noLost(t, e)
	})
	t.Run("failed write", func(t *testing.T) {
		e, _, c := setup(t)
		// Shut our sending half, so the writer's next write fails and it
		// closes the connection; the peer keeps its side open.
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for e.Stats().WriteFailures == 0 && time.Now().Before(deadline) {
			e.Send(peer, []byte("into a shut socket"))
			time.Sleep(5 * time.Millisecond)
		}
		if e.Stats().WriteFailures == 0 {
			t.Fatal("no write failed")
		}
		noLost(t, e)
	})
	t.Run("framing error", func(t *testing.T) {
		e, h, _ := setup(t)
		c := <-h.conns
		if _, err := c.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil { // oversized frame
			t.Fatal(err)
		}
		noLost(t, e)
	})
}
