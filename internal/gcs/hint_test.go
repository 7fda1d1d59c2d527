package gcs

import (
	"slices"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// hintTimings is fastTimings with a FailTimeout far above what the
// connection-loss hint needs, so the two detection paths cannot be
// confused.
func hintTimings(c *Config) {
	c.FailTimeout = time.Second
}

// hintSuspicions sums the members' HintSuspicions.
func hintSuspicions(obs []*observer) uint64 {
	var n uint64
	for _, o := range obs {
		n += o.p.Stats().HintSuspicions
	}
	return n
}

// waitThreeMembers waits for every observer's first three-member view.
func waitThreeMembers(t *testing.T, obs []*observer) {
	t.Helper()
	waitFor(t, 5*time.Second, "three-member view", func() bool {
		for _, o := range obs {
			if v, ok := o.lastView(); !ok || len(v.Members) != 3 {
				return false
			}
		}
		return true
	})
}

// waitExcluded waits up to d for obs to install a view without m and
// returns how long that took from t0.
func waitExcluded(t *testing.T, obs []*observer, m MemberID, t0 time.Time, d time.Duration) time.Duration {
	t.Helper()
	waitFor(t, d, "view without "+string(m), func() bool {
		for _, o := range obs {
			if v, ok := o.lastView(); !ok || v.Includes(m) {
				return false
			}
		}
		return true
	})
	return time.Since(t0)
}

// TestCrashHintShortensDetection: a crashed member's hint gets it
// excluded in a fraction of FailTimeout.
func TestCrashHintShortensDetection(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, func(_ int, c *Config) { hintTimings(c) })
	waitThreeMembers(t, obs)

	t0 := time.Now()
	net.CrashHost("host2")
	obs[2].p.Close()
	took := waitExcluded(t, obs[:2], "m2", t0, 10*time.Second)
	if limit := time.Second / 2; took >= limit {
		t.Errorf("crashed member excluded after %v, want under FailTimeout/2 = %v", took, limit)
	}
	if n := hintSuspicions(obs[:2]); n < 1 {
		t.Errorf("HintSuspicions = %d, want >= 1", n)
	}
	t.Logf("crash to view without it: %v", took)
}

// TestPartitionRaisesNoHint: a cut cable is silent, so the isolated
// member is excluded by the timeout and not before.
func TestPartitionRaisesNoHint(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	obs := group(t, net, 3, func(_ int, c *Config) { hintTimings(c) })
	waitThreeMembers(t, obs)
	views := obs[0].viewCount()

	t0 := time.Now()
	net.Isolate("host2")
	took := waitExcluded(t, obs[:2], "m2", t0, 10*time.Second)
	// FailTimeout runs from m2's last frame, which may precede the cut
	// by a heartbeat or more under load; a hint would have taken two.
	if limit := 3 * time.Second / 4; took < limit {
		t.Errorf("isolated member excluded after %v, well before FailTimeout", took)
	}
	if got := obs[0].viewCount(); got != views+1 {
		t.Errorf("%d view changes, want 1", got-views)
	}
	if n := hintSuspicions(obs); n != 0 {
		t.Errorf("HintSuspicions = %d, want 0", n)
	}
}

// hintingEndpoint lets a test inject connection-loss hints into an
// endpoint's receive stream, as a transport whose connection to a live
// peer breaks and is redialed would.
type hintingEndpoint struct {
	transport.Endpoint
	recv chan transport.Message
	lost chan transport.Addr
}

func newHintingEndpoint(inner transport.Endpoint) *hintingEndpoint {
	h := &hintingEndpoint{
		Endpoint: inner,
		recv:     make(chan transport.Message, 256),
		lost:     make(chan transport.Addr),
	}
	go func() {
		defer close(h.recv)
		in := inner.Recv()
		for {
			var m transport.Message
			select {
			case dg, ok := <-in:
				if !ok {
					return
				}
				m = dg
			case from := <-h.lost:
				m = transport.Message{From: from, To: inner.Addr(), Lost: true}
			}
			select {
			case h.recv <- m:
			default: // full: dropped, as a transport would
			}
		}
	}()
	return h
}

func (h *hintingEndpoint) Recv() <-chan transport.Message { return h.recv }

// TestHintForLivePeerExpelsNobody: a hint about a member that keeps
// heartbeating is cancelled by its next frame, so nobody is suspected —
// not while the hints keep coming, and not when the member later falls
// silent for longer than the hint window but less than FailTimeout.
func TestHintForLivePeerExpelsNobody(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	const heartbeat = 40 * time.Millisecond
	var ep *hintingEndpoint
	obs := group(t, net, 3, func(i int, c *Config) {
		hintTimings(c)
		c.Heartbeat = heartbeat
		if i == 0 {
			ep = newHintingEndpoint(c.Endpoint)
			c.Endpoint = ep
		}
	})
	waitThreeMembers(t, obs)
	views := obs[0].viewCount()

	for i := 0; i < 40; i++ { // 20 heartbeats
		ep.lost <- "host1/gcs"
		time.Sleep(heartbeat / 2)
	}
	time.Sleep(5 * heartbeat) // m1's frames overtake the last hint
	net.Partition("host0", "host1")
	time.Sleep(5 * heartbeat)
	net.HealAll()
	time.Sleep(2 * heartbeat)

	for i, o := range obs {
		if got := o.viewCount(); got != views {
			v, _ := o.lastView()
			t.Errorf("member %d installed %d more views (now %v)", i, got-views, v.Members)
		}
	}
	if n := hintSuspicions(obs); n != 0 {
		t.Errorf("HintSuspicions = %d, want 0", n)
	}
}

// TestMajorityHintWaitsLeaseFence: under Majority an excluded member
// may be alive across a partition and still hold a read lease, so a
// view that excludes a hinted member waits out the lease fence even
// though the hint made the suspicion early.
func TestMajorityHintWaitsLeaseFence(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	const lease = 300 * time.Millisecond
	obs := group(t, net, 3, func(_ int, c *Config) {
		hintTimings(c)
		c.PartitionPolicy = Majority
		c.LeaseDuration = lease
		c.FlushTimeout = 2 * lease // one attempt outlasts the fence
	})
	waitThreeMembers(t, obs)
	waitFor(t, 5*time.Second, "read leases granted", func() bool {
		return obs[0].p.Stats().LeaseGrants > 0 && obs[2].p.LeaseValid()
	})

	t0 := time.Now()
	net.CrashHost("host2")
	obs[2].p.Close()
	took := waitExcluded(t, obs[:2], "m2", t0, 10*time.Second)
	if took < lease {
		t.Errorf("view without the hinted member installed after %v, before the %v lease fence", took, lease)
	}
	if took >= time.Second {
		t.Errorf("view installed after %v, not before FailTimeout", took)
	}
	if n := hintSuspicions(obs[:2]); n < 1 {
		t.Errorf("HintSuspicions = %d, want >= 1", n)
	}
	t.Logf("crash to view without it: %v (lease %v)", took, lease)
}

// TestCorroboratedHintExpelsWithinOneHeartbeat: when every survivor's
// transport hints that the crashed member's connection is gone, the
// member is suspected as the reports arrive, so the view without it
// comes within one heartbeat. The two-heartbeat rule alone needs more
// than one heartbeat of silence before it even suspects.
func TestCorroboratedHintExpelsWithinOneHeartbeat(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	const heartbeat = 200 * time.Millisecond
	obs := group(t, net, 3, func(_ int, c *Config) {
		hintTimings(c)
		c.Heartbeat = heartbeat
		c.FailTimeout = 5 * time.Second
	})
	waitThreeMembers(t, obs)

	t0 := time.Now()
	net.CrashHost("host2")
	obs[2].p.Close()
	took := waitExcluded(t, obs[:2], "m2", t0, 10*time.Second)
	if took >= heartbeat {
		t.Errorf("crashed member excluded after %v, want under one Heartbeat = %v", took, heartbeat)
	}
	var n uint64
	for _, o := range obs[:2] {
		n += o.p.Stats().CorroboratedSuspicions
	}
	if n < 1 {
		t.Errorf("CorroboratedSuspicions = %d, want >= 1", n)
	}
	t.Logf("crash to view without it: %v", took)
}

// TestTwoMemberViewKeepsHeartbeatRule: with no other member to
// corroborate it, a hint gets the crashed member suspected only after
// two heartbeats of silence. m1 heartbeats every 10 ms, so its last
// frame precedes the crash by no more than that; the rule under test
// runs on m0's own 200 ms Heartbeat.
func TestTwoMemberViewKeepsHeartbeatRule(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	const heartbeat = 200 * time.Millisecond
	obs := group(t, net, 2, func(i int, c *Config) {
		hintTimings(c)
		c.FailTimeout = 5 * time.Second
		if i == 0 {
			c.Heartbeat = heartbeat
		}
	})
	waitFor(t, 5*time.Second, "two-member view", func() bool {
		for _, o := range obs {
			if v, ok := o.lastView(); !ok || len(v.Members) != 2 {
				return false
			}
		}
		return true
	})

	t0 := time.Now()
	net.CrashHost("host1")
	obs[1].p.Close()
	took := waitExcluded(t, obs[:1], "m1", t0, 10*time.Second)
	if limit := 3 * heartbeat / 2; took < limit {
		t.Errorf("crashed member excluded after %v, want at least 1.5 × Heartbeat = %v", took, limit)
	}
	if took >= time.Second {
		t.Errorf("crashed member excluded after %v, not on its hint", took)
	}
	if n := obs[0].p.Stats().CorroboratedSuspicions; n != 0 {
		t.Errorf("CorroboratedSuspicions = %d, want 0", n)
	}
	t.Logf("crash to view without it: %v", took)
}

// lostProcess is a loop-less member "d" of the view {a, b, c, d}
// ("a" sequences and coordinates) whose sends land in a recorder.
func lostProcess() (*Process, *recorder) {
	p, rec := wiredView("d", []MemberID{"a", "b", "c", "d"})
	p.lostAt = make(map[MemberID]time.Time)
	p.lostBy = make(map[MemberID]map[MemberID]time.Time)
	return p, rec
}

// lostReport is member from's kindLost naming who, in view viewID.
func lostReport(from, who MemberID, viewID uint64) transport.Message {
	m := &message{Kind: kindLost, From: from, ViewID: viewID, Suspects: []MemberID{who}}
	return transport.Message{From: transport.Addr(from), Payload: m.encode()}
}

// kinds lists the kinds of the frames rec holds for addr.
func kinds(rec *recorder, addr transport.Addr) []byte {
	var ks []byte
	for _, m := range rec.to(addr) {
		ks = append(ks, m.Kind)
	}
	return ks
}

// TestLostReportNamingSelfSendsHeartbeat: a member named in a peer's
// loss report heartbeats to the whole view at once, and reports from
// another view or from a non-member are ignored.
func TestLostReportNamingSelfSendsHeartbeat(t *testing.T) {
	p, rec := lostProcess()
	p.handleDatagram(lostReport("a", "d", p.view.ID+1))
	p.handleDatagram(lostReport("z", "d", p.view.ID))
	if len(rec.sent) != 0 {
		t.Fatalf("void reports answered with %d frames", len(rec.sent))
	}
	p.handleDatagram(lostReport("a", "d", p.view.ID))
	for _, m := range []transport.Addr{"a", "b", "c"} {
		if got := kinds(rec, m); !slices.Equal(got, []byte{kindHeartbeat}) {
			t.Errorf("frames to %s = %v, want one heartbeat", m, got)
		}
	}
	if len(p.lostBy) != 0 || p.suspected["d"] {
		t.Errorf("a report naming self recorded %v, suspected %v", p.lostBy, p.suspected)
	}
}

// TestLostReportsCorroborate: a standing hint is reported once, and it
// suspects at once only with a report from every other unsuspected
// member, each newer than the member's last frame; void reports never
// count, and a view install forgets every entry about or by a departed
// member.
func TestLostReportsCorroborate(t *testing.T) {
	p, rec := lostProcess()
	p.onHint("b")
	p.onHint("b") // a second connection to b drops: reported once
	for _, m := range []transport.Addr{"a", "b", "c"} {
		if got := kinds(rec, m); !slices.Equal(got, []byte{kindLost}) {
			t.Errorf("frames to %s = %v, want one loss report", m, got)
		}
	}
	p.handleDatagram(lostReport("a", "b", p.view.ID))
	p.handleDatagram(lostReport("c", "b", p.view.ID+1)) // another view's
	p.handleDatagram(lostReport("z", "b", p.view.ID))   // a non-member's
	if p.suspected["b"] {
		t.Fatal("b suspected without c's report")
	}
	p.handleDatagram(lostReport("c", "b", p.view.ID))
	if !p.suspected["b"] || p.Stats().CorroboratedSuspicions != 1 {
		t.Fatalf("b not suspected on corroborated hint (suspected %v)", p.suspected)
	}

	// A frame from the member outdates every hint and report before it.
	p, _ = lostProcess()
	p.onHint("b")
	p.handleDatagram(lostReport("a", "b", p.view.ID))
	hb := &message{Kind: kindHeartbeat, From: "b", ViewID: p.view.ID}
	p.handleDatagram(transport.Message{From: "b", Payload: hb.encode()})
	time.Sleep(time.Millisecond) // later stamps differ from the frame's
	p.handleDatagram(lostReport("c", "b", p.view.ID))
	if p.suspected["b"] {
		t.Error("b suspected on a hint older than its last frame")
	}
	p.onHint("b")
	if p.suspected["b"] {
		t.Error("b suspected on a report older than its last frame")
	}
	p.handleDatagram(lostReport("a", "b", p.view.ID))
	if !p.suspected["b"] {
		t.Error("b not suspected once every hint is newer than its last frame")
	}

	// A suspected member's report is not needed.
	p, _ = lostProcess()
	p.suspected["c"] = true
	p.onHint("b")
	p.handleDatagram(lostReport("a", "b", p.view.ID))
	if !p.suspected["b"] {
		t.Error("b not suspected with every unsuspected member's report")
	}

	// A view install drops what is about or by a departed member.
	p, _ = lostProcess()
	p.onHint("b")
	p.onHint("c")
	p.handleDatagram(lostReport("b", "c", p.view.ID))
	p.handleDatagram(lostReport("a", "c", p.view.ID))
	p.installView(View{ID: p.view.ID + 1, Members: []MemberID{"a", "c", "d"}})
	if _, ok := p.lostAt["b"]; ok {
		t.Error("hint for departed b kept")
	}
	if _, ok := p.lostBy["c"]["b"]; ok {
		t.Error("departed b's report kept")
	}
	if _, ok := p.lostBy["c"]["a"]; !ok {
		t.Error("member a's report dropped")
	}
}
