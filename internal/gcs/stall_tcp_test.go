package gcs

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// stallProxy is a TCP forwarder interposed on the path into one head.
// While stalled it stops reading from the sender side, so the kernel
// buffers toward that head fill up exactly as they would against a
// wedged process — the scenario where a synchronous sender would block
// the group's event loop.
type stallProxy struct {
	ln      net.Listener
	target  string
	stalled atomic.Bool
	done    chan struct{}
}

func newStallProxy(t *testing.T, target string) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target, done: make(chan struct{})}
	go p.acceptLoop()
	t.Cleanup(func() {
		close(p.done)
		ln.Close()
	})
	return p
}

func (p *stallProxy) addr() string { return p.ln.Addr().String() }

func (p *stallProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.forward(c)
	}
}

func (p *stallProxy) forward(c net.Conn) {
	defer c.Close()
	t, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer t.Close()
	buf := make([]byte, 4096)
	for {
		for p.stalled.Load() {
			select {
			case <-p.done:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		if _, err := t.Write(buf[:n]); err != nil {
			return
		}
	}
}

// TestStalledHeadDoesNotBlockSequencing is the acceptance scenario for
// the asynchronous transport path: one head stops reading from the
// network mid-view, and the surviving heads keep sequencing and
// delivering — while the wedged head is still a group member — because
// sends to it queue and drop in its per-peer writer instead of
// blocking the protocol loop.
func TestStalledHeadDoesNotBlockSequencing(t *testing.T) {
	ids := []MemberID{"b0", "b1", "b2"}
	logical := map[MemberID]transport.Addr{
		"b0": "bhost0/gcs", "b1": "bhost1/gcs", "b2": "bhost2/gcs",
	}

	// Real listeners for all three heads, plus the stall proxy fronting
	// b2. Heads b0/b1 resolve b2 through the proxy; b2 resolves
	// everyone directly.
	eps := make(map[MemberID]*tcpnet.Endpoint, 3)
	direct := tcpnet.StaticResolver{}
	proxied := tcpnet.StaticResolver{}
	for _, id := range ids {
		res := direct
		if id != "b2" {
			res = proxied
		}
		ep, err := tcpnet.Listen(logical[id], "127.0.0.1:0", res)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[id] = ep
	}
	proxy := newStallProxy(t, eps["b2"].TCPAddr())
	for _, id := range ids {
		direct[logical[id]] = eps[id].TCPAddr()
		proxied[logical[id]] = eps[id].TCPAddr()
	}
	proxied[logical["b2"]] = proxy.addr()

	// FailTimeout is far beyond the test window: the stalled head must
	// remain a member the whole time, so continued delivery cannot be
	// explained by its exclusion from the view. The group runs agreed
	// delivery on purpose: under safe delivery nobody may deliver what
	// a member has not acknowledged receiving, so a member that stops
	// reading stalls delivery until it is excluded, and the transport
	// property under test (a stalled peer never blocks the sender's
	// loop) could not be told apart from that wait.
	mkcfg := func(id MemberID) Config {
		cfg := Config{
			Self:           id,
			Endpoint:       eps[id],
			Peers:          logical,
			InitialMembers: ids,
			SafeDelivery:   false,
		}
		fastTimings(&cfg)
		cfg.FailTimeout = 30 * time.Second
		cfg.FlushTimeout = 2 * time.Second
		return cfg
	}
	// b0 and b1 first, so their senders toward b2 are created through
	// the proxy before b2's own direct connections appear.
	var obs [3]*observer
	for i, id := range []MemberID{"b0", "b1"} {
		p, err := Start(mkcfg(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		obs[i] = observe(p)
	}
	time.Sleep(200 * time.Millisecond)
	p2, err := Start(mkcfg("b2"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p2.Close)
	obs[2] = observe(p2)

	waitFor(t, 15*time.Second, "three-member view over TCP", func() bool {
		for _, o := range obs {
			if v, ok := o.lastView(); !ok || len(v.Members) != 3 || !v.Primary {
				return false
			}
		}
		return true
	})
	// Sanity: the proxied path works while unstalled.
	if err := obs[1].p.Broadcast([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup delivery everywhere", func() bool {
		for _, o := range obs {
			if len(o.deliveredPayloads()) != 1 {
				return false
			}
		}
		return true
	})

	// b2 stops reading. Push enough bulk through the group to overrun
	// the kernel buffers toward it many times over: a blocking sender
	// would wedge the sequencer loop partway through this burst.
	proxy.stalled.Store(true)
	const burst = 64
	payload := make([]byte, 32<<10)
	start := time.Now()
	for k := 0; k < burst; k++ {
		copy(payload, fmt.Sprintf("bulk-%d", k))
		if err := obs[1].p.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "survivors deliver past the stalled head", func() bool {
		return len(obs[0].deliveredPayloads()) == 1+burst &&
			len(obs[1].deliveredPayloads()) == 1+burst
	})
	elapsed := time.Since(start)

	// The stalled head must still be in the installed view: delivery
	// continued around it, not after its removal.
	for _, i := range []int{0, 1} {
		if v, _ := obs[i].lastView(); len(v.Members) != 3 {
			t.Fatalf("member %d view shrank to %v during the stall", i, v.Members)
		}
	}
	t.Logf("delivered %d×32KiB past a stalled member in %v", burst, elapsed)
}

// TestTCPProcessExitDetectedByHint: over TCP, a member whose process
// exits closes its connections, and the survivors' transports turn
// that into connection-loss hints, so the member is excluded in a
// fraction of FailTimeout.
func TestTCPProcessExitDetectedByHint(t *testing.T) {
	ids := []MemberID{"c0", "c1", "c2"}
	logical := map[MemberID]transport.Addr{
		"c0": "chost0/gcs", "c1": "chost1/gcs", "c2": "chost2/gcs",
	}
	res := tcpnet.StaticResolver{}
	eps := make(map[MemberID]*tcpnet.Endpoint, len(ids))
	for _, id := range ids {
		ep, err := tcpnet.Listen(logical[id], "127.0.0.1:0", res)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[id] = ep
		res[logical[id]] = ep.TCPAddr()
	}
	var obs []*observer
	for _, id := range ids {
		cfg := Config{Self: id, Endpoint: eps[id], Peers: logical, InitialMembers: ids, SafeDelivery: true}
		fastTimings(&cfg)
		cfg.FailTimeout = 2 * time.Second
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		obs = append(obs, observe(p))
	}
	waitThreeMembers(t, obs)
	// Let every member hear every other, so each inbound connection
	// names its peer.
	time.Sleep(100 * time.Millisecond)

	t0 := time.Now()
	obs[2].p.Close() // the process exits: its endpoint closes every connection
	took := waitExcluded(t, obs[:2], "c2", t0, 10*time.Second)
	if limit := 500 * time.Millisecond; took >= limit {
		t.Errorf("exited member excluded after %v, want under %v", took, limit)
	}
	if n := hintSuspicions(obs[:2]); n < 1 {
		t.Errorf("HintSuspicions = %d, want >= 1", n)
	}
	t.Logf("process exit to view without it: %v", took)
}
