package simnet

import (
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
	// A crashed host cannot send either.
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
