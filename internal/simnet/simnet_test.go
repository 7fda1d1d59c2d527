package simnet

import (
	"errors"
	"testing"
	"time"

	"joshua/internal/transport"
)

func recvWithin(t *testing.T, ep transport.Endpoint, d time.Duration) (transport.Message, bool) {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		return m, ok
	case <-time.After(d):
		return transport.Message{}, false
	}
}

func TestBasicDelivery(t *testing.T) {
	n := New(Config{})
	a, err := n.Endpoint("h1/a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("h2/b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("h2/b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithin(t, b, time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if m.From != "h1/a" || m.To != "h2/b" || string(m.Payload) != "ping" {
		t.Errorf("got %+v", m)
	}
}

func TestDuplicateAddr(t *testing.T) {
	n := New(Config{})
	if _, err := n.Endpoint("h/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("h/x"); err != transport.ErrAddrInUse {
		t.Errorf("err = %v, want ErrAddrInUse", err)
	}
}

func TestAddrHost(t *testing.T) {
	cases := map[transport.Addr]string{
		"h1/joshua":   "h1",
		"h1/a/b":      "h1",
		"plainhost":   "plainhost",
		"":            "",
		"/noservice":  "",
		"compute0/m1": "compute0",
	}
	for addr, want := range cases {
		if got := addr.Host(); got != want {
			t.Errorf("Host(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	buf := []byte("original")
	if err := a.Send("h2/b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "MUTATED!")
	m, ok := recvWithin(t, b, time.Second)
	if !ok {
		t.Fatal("no delivery")
	}
	if string(m.Payload) != "original" {
		t.Errorf("payload aliased sender buffer: %q", m.Payload)
	}
}

// TestReceivedPayloadIsOwned pins the transport.Message contract the
// group layer's zero-copy decode relies on: a received payload survives
// the sender overwriting and resending its buffer, on both delivery
// paths, and no two received payloads share memory.
func TestReceivedPayloadIsOwned(t *testing.T) {
	for _, lat := range []Latency{{}, {Remote: time.Millisecond}} {
		n := New(Config{Latency: lat})
		a, _ := n.Endpoint("h1/a")
		b, _ := n.Endpoint("h2/b")
		buf := []byte("first!")
		if err := a.Send("h2/b", buf); err != nil {
			t.Fatal(err)
		}
		first, ok := recvWithin(t, b, time.Second)
		if !ok {
			t.Fatal("no delivery")
		}
		copy(buf, "second")
		if err := a.Send("h2/b", buf); err != nil {
			t.Fatal(err)
		}
		second, ok := recvWithin(t, b, time.Second)
		if !ok {
			t.Fatal("no second delivery")
		}
		if string(first.Payload) != "first!" || string(second.Payload) != "second" {
			t.Fatalf("latency %+v: payloads %q, %q", lat, first.Payload, second.Payload)
		}
		// Overwrite the first payload up to its capacity.
		for i, all := 0, first.Payload[:cap(first.Payload)]; i < len(all); i++ {
			all[i] = 'X'
		}
		if string(second.Payload) != "second" || string(buf) != "second" {
			t.Fatalf("latency %+v: received payloads share memory", lat)
		}
	}
}

func TestLatencyLocalVsRemote(t *testing.T) {
	n := New(Config{Latency: Latency{Local: 0, Remote: 50 * time.Millisecond}})
	a, _ := n.Endpoint("h1/a")
	local, _ := n.Endpoint("h1/b")
	remote, _ := n.Endpoint("h2/b")

	start := time.Now()
	a.Send("h1/b", []byte("l"))
	if _, ok := recvWithin(t, local, time.Second); !ok {
		t.Fatal("no local delivery")
	}
	localD := time.Since(start)

	start = time.Now()
	a.Send("h2/b", []byte("r"))
	if _, ok := recvWithin(t, remote, time.Second); !ok {
		t.Fatal("no remote delivery")
	}
	remoteD := time.Since(start)

	if remoteD < 45*time.Millisecond {
		t.Errorf("remote delivery took %v, want >= ~50ms", remoteD)
	}
	if localD > 30*time.Millisecond {
		t.Errorf("local delivery took %v, want ~0", localD)
	}
}

func TestPerFlowFIFOUnderJitter(t *testing.T) {
	n := New(Config{Latency: Latency{Remote: time.Millisecond, Jitter: 10 * time.Millisecond}})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	const count = 100
	for i := 0; i < count; i++ {
		a.Send("h2/b", []byte{byte(i)})
	}
	for i := 0; i < count; i++ {
		m, ok := recvWithin(t, b, time.Second)
		if !ok {
			t.Fatalf("missing datagram %d", i)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("datagram %d arrived out of order (got %d)", i, m.Payload[0])
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")

	n.Partition("h1", "h2")
	a.Send("h2/b", []byte("lost"))
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("datagram crossed a partition")
	}

	n.Heal("h1", "h2")
	a.Send("h2/b", []byte("ok"))
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("datagram lost after heal")
	}
	st := n.Stats()
	if st.DroppedCut != 1 {
		t.Errorf("DroppedCut = %d, want 1", st.DroppedCut)
	}
}

func TestIsolateAndHealAll(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	c, _ := n.Endpoint("h3/c")

	n.Isolate("h1")
	a.Send("h2/b", []byte("x"))
	a.Send("h3/c", []byte("x"))
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("isolated host reached h2")
	}
	if _, ok := recvWithin(t, c, 50*time.Millisecond); ok {
		t.Fatal("isolated host reached h3")
	}
	// Other hosts still talk to each other.
	b.Send("h3/c", []byte("y"))
	if _, ok := recvWithin(t, c, time.Second); !ok {
		t.Fatal("h2->h3 should be unaffected")
	}

	n.HealAll()
	a.Send("h2/b", []byte("z"))
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("HealAll did not restore connectivity")
	}
}

func TestPartitionLosesInFlight(t *testing.T) {
	n := New(Config{Latency: Latency{Remote: 100 * time.Millisecond}})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	a.Send("h2/b", []byte("in flight"))
	n.Partition("h1", "h2") // unplug while on the wire
	if _, ok := recvWithin(t, b, 300*time.Millisecond); ok {
		t.Fatal("in-flight datagram survived cable pull")
	}
}

func TestCrashAndRestartHost(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")

	n.CrashHost("h2")
	if !n.HostDown("h2") {
		t.Fatal("HostDown should report true")
	}
	a.Send("h2/b", []byte("lost"))
	if _, ok := recvWithin(t, b, 50*time.Millisecond); ok {
		t.Fatal("crashed host received datagram")
	}
	// A crashed host cannot send either: a sees the crash's one
	// connection-loss hint, never the datagram.
	if m, ok := recvWithin(t, a, 50*time.Millisecond); !ok || !m.Lost || m.From != "h2/b" {
		t.Fatalf("want the crash's connection-loss hint from h2/b, got %+v (ok %v)", m, ok)
	}
	b.Send("h1/a", []byte("ghost"))
	if _, ok := recvWithin(t, a, 50*time.Millisecond); ok {
		t.Fatal("crashed host sent datagram")
	}

	n.RestartHost("h2")
	a.Send("h2/b", []byte("alive"))
	if m, ok := recvWithin(t, b, time.Second); !ok || string(m.Payload) != "alive" {
		t.Fatal("restarted host should receive again")
	}
}

// TestSendToCrashedHostFails checks that Send reports a datagram to a
// crashed host as ErrHostDown, counted in DroppedDown and without an
// allocation, while a partition and random loss stay silent, and that
// a restarted host is reachable again.
func TestSendToCrashedHostFails(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	n.Endpoint("h3/c")

	n.CrashHost("h2")
	if err := a.Send("h2/b", []byte("x")); !errors.Is(err, ErrHostDown) {
		t.Fatalf("Send to a crashed host = %v, want ErrHostDown", err)
	}
	if st := n.Stats(); st.DroppedDown != 1 {
		t.Errorf("DroppedDown = %d, want 1", st.DroppedDown)
	}
	payload := []byte("payload")
	if allocs := testing.AllocsPerRun(100, func() { a.Send("h2/b", payload) }); allocs != 0 {
		t.Errorf("Send to a crashed host allocates %.1f times, want 0", allocs)
	}
	// The crashed host's own sends are lost without an error: its
	// process is presumed dead.
	if err := b.Send("h1/a", []byte("ghost")); err != nil {
		t.Errorf("Send from a crashed host = %v, want nil", err)
	}

	n.Partition("h1", "h3")
	if err := a.Send("h3/c", []byte("cut")); err != nil {
		t.Errorf("Send across a partition = %v, want nil", err)
	}
	lossy := New(Config{DropRate: 1})
	la, _ := lossy.Endpoint("h1/a")
	lossy.Endpoint("h2/b")
	if err := la.Send("h2/b", []byte("lost")); err != nil || lossy.Stats().DroppedLoss != 1 {
		t.Errorf("Send under random loss = %v (DroppedLoss %d), want nil and 1", err, lossy.Stats().DroppedLoss)
	}

	n.RestartHost("h2")
	if err := a.Send("h2/b", []byte("alive")); err != nil {
		t.Fatalf("Send to a restarted host = %v", err)
	}
	if m, ok := recvWithin(t, b, time.Second); !ok || string(m.Payload) != "alive" {
		t.Fatalf("restarted host received %+v (ok %v), want the datagram", m, ok)
	}
}

func TestRandomLossDeterministic(t *testing.T) {
	run := func() Stats {
		n := New(Config{DropRate: 0.5, Seed: 42})
		a, _ := n.Endpoint("h1/a")
		b, _ := n.Endpoint("h2/b")
		for i := 0; i < 200; i++ {
			a.Send("h2/b", []byte{1})
		}
		deadline := time.After(time.Second)
		got := 0
	loop:
		for {
			select {
			case <-b.Recv():
				got++
			case <-deadline:
				break loop
			default:
				if got+int(n.Stats().DroppedLoss) == 200 {
					break loop
				}
				time.Sleep(time.Millisecond)
			}
		}
		return n.Stats()
	}
	s1, s2 := run(), run()
	if s1.DroppedLoss == 0 || s1.DroppedLoss == 200 {
		t.Errorf("DroppedLoss = %d, want strictly between 0 and 200", s1.DroppedLoss)
	}
	if s1.DroppedLoss != s2.DroppedLoss {
		t.Errorf("loss not deterministic: %d vs %d", s1.DroppedLoss, s2.DroppedLoss)
	}
}

func TestLocalNeverDropped(t *testing.T) {
	n := New(Config{DropRate: 1.0})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h1/b")
	a.Send("h1/b", []byte("ipc"))
	if _, ok := recvWithin(t, b, time.Second); !ok {
		t.Fatal("local datagram dropped despite DropRate applying to remote only")
	}
}

func TestSendAfterClose(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("h2/b", nil); err != transport.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Address is reusable after close.
	if _, err := n.Endpoint("h1/a"); err != nil {
		t.Errorf("re-attach after close: %v", err)
	}
}

func TestSendToClosedEndpointDropped(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	b.Close()
	if err := a.Send("h2/b", []byte("x")); err != nil {
		t.Fatalf("Send to closed endpoint should not error locally: %v", err)
	}
	if n.Stats().DroppedDown != 1 {
		t.Errorf("DroppedDown = %d, want 1", n.Stats().DroppedDown)
	}
}

func TestQueueOverflow(t *testing.T) {
	n := New(Config{QueueLen: 4})
	a, _ := n.Endpoint("h1/a")
	n.Endpoint("h2/b") // receiver never drains
	for i := 0; i < 10; i++ {
		a.Send("h2/b", []byte{byte(i)})
	}
	// Deliveries are synchronous at zero latency, so stats are final.
	st := n.Stats()
	if st.Delivered != 4 {
		t.Errorf("Delivered = %d, want 4", st.Delivered)
	}
	if st.DroppedFull != 6 {
		t.Errorf("DroppedFull = %d, want 6", st.DroppedFull)
	}
}

func TestStatsCounts(t *testing.T) {
	n := New(Config{})
	a, _ := n.Endpoint("h1/a")
	b, _ := n.Endpoint("h2/b")
	a.Send("h2/b", []byte("1234"))
	recvWithin(t, b, time.Second)
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Bytes != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// drain returns everything ep receives within d.
func drain(ep transport.Endpoint, d time.Duration) []transport.Message {
	var got []transport.Message
	deadline := time.After(d)
	for {
		select {
		case m := <-ep.Recv():
			got = append(got, m)
		case <-deadline:
			return got
		}
	}
}

// TestCrashHostHintsPeers checks the crash's connection-loss hints:
// one per (live endpoint elsewhere, crashed endpoint) pair, none
// earlier than one remote hop, none from the silent failures, and at
// once on a zero-latency network.
func TestCrashHostHintsPeers(t *testing.T) {
	t.Run("one per pair after one hop", func(t *testing.T) {
		const remote = 40 * time.Millisecond
		n := New(Config{Latency: Latency{Local: time.Millisecond, Remote: remote}})
		defer n.Close()
		// h3 goes down before the others attach, so its own crash hints
		// nobody.
		down, _ := n.Endpoint("h3/down")
		n.CrashHost("h3")
		for _, a := range []transport.Addr{"dead/a", "dead/b"} {
			if _, err := n.Endpoint(a); err != nil {
				t.Fatal(err)
			}
		}
		x, _ := n.Endpoint("h1/x")
		y, _ := n.Endpoint("h1/y")
		z, _ := n.Endpoint("h2/z")
		closed, _ := n.Endpoint("h4/closed")
		closed.Close()

		t0 := time.Now()
		n.CrashHost("dead")
		n.CrashHost("dead") // already down: no second round
		for _, ep := range []transport.Endpoint{x, y, z} {
			from := map[transport.Addr]int{}
			for i := 0; i < 2; i++ {
				m, ok := recvWithin(t, ep, time.Second)
				if !ok {
					t.Fatalf("%s: hint %d never arrived", ep.Addr(), i)
				}
				if early := remote - time.Since(t0); early > 0 {
					t.Errorf("%s: hint arrived %v before one remote hop", ep.Addr(), early)
				}
				if !m.Lost || m.Payload != nil || m.To != ep.Addr() {
					t.Errorf("%s: got %+v, want a hint", ep.Addr(), m)
				}
				from[m.From]++
			}
			if from["dead/a"] != 1 || from["dead/b"] != 1 {
				t.Errorf("%s: hints from %v, want one each from dead/a and dead/b", ep.Addr(), from)
			}
			if extra := drain(ep, 2*remote); len(extra) != 0 {
				t.Errorf("%s: %d messages beyond the two hints: %+v", ep.Addr(), len(extra), extra)
			}
		}
		if got := drain(down, 0); len(got) != 0 {
			t.Errorf("an endpoint on a crashed host received %+v", got)
		}
	})

	t.Run("silent failures raise none", func(t *testing.T) {
		n := New(Config{})
		defer n.Close()
		a, _ := n.Endpoint("h1/a")
		b, _ := n.Endpoint("h2/b")
		c, _ := n.Endpoint("h3/c")
		n.Partition("h1", "h2")
		n.Isolate("h3")
		n.Heal("h1", "h2")
		n.HealAll()
		n.CrashHost("h3")
		drain(a, 10*time.Millisecond) // the crash's own hints
		drain(b, 10*time.Millisecond)
		n.RestartHost("h3")
		c.Close()
		for _, ep := range []transport.Endpoint{a, b} {
			if got := drain(ep, 50*time.Millisecond); len(got) != 0 {
				t.Errorf("%s received %+v", ep.Addr(), got)
			}
		}
	})

	t.Run("zero latency hints at once", func(t *testing.T) {
		n := New(Config{})
		defer n.Close()
		a, _ := n.Endpoint("h1/a")
		n.Endpoint("h2/b")
		n.CrashHost("h2")
		select {
		case m := <-a.Recv():
			if !m.Lost || m.From != "h2/b" {
				t.Fatalf("got %+v, want a hint from h2/b", m)
			}
		default:
			t.Fatal("no hint queued when CrashHost returned")
		}
	})

	t.Run("full queue drops the hint", func(t *testing.T) {
		n := New(Config{QueueLen: 1})
		defer n.Close()
		a, _ := n.Endpoint("h1/a")
		b, _ := n.Endpoint("h2/b")
		b.Send("h1/a", []byte("fills the queue"))
		n.CrashHost("h2")
		got := drain(a, 20*time.Millisecond)
		if len(got) != 1 || got[0].Lost {
			t.Fatalf("got %+v, want only the datagram", got)
		}
	})
}
