package pbs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// momProbe plays one mom by hand on a zero-latency simnet, where a
// datagram is in the receiver's queue by the time Send returns: the
// test reads what the daemon sends the node and acks when it chooses.
type momProbe struct {
	t    *testing.T
	ep   transport.Endpoint
	held *transport.Message // read ahead by skip
}

func newMomProbe(t *testing.T, net *simnet.Network, addr transport.Addr) *momProbe {
	t.Helper()
	ep, err := net.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &momProbe{t: t, ep: ep}
}

// next returns the next frame, waiting up to d; ok is false if none
// came.
func (p *momProbe) next(d time.Duration) (m transport.Message, ok bool) {
	if p.held != nil {
		m, p.held = *p.held, nil
		return m, true
	}
	select {
	case m = <-p.ep.Recv():
		return m, true
	case <-time.After(d):
		return m, false
	}
}

// expect checks that the next frame is a kind frame for job id from
// the daemon at from.
func (p *momProbe) expect(kind byte, id JobID, from transport.Addr) {
	p.t.Helper()
	m, ok := p.next(5 * time.Second)
	if !ok {
		p.t.Fatalf("%s: no kind %d for %s from %s", p.ep.Addr(), kind, id, from)
	}
	d := codec.NewDecoder(m.Payload)
	if k, got := d.Byte(), JobID(d.Text()); k != kind || got != id || m.From != from {
		p.t.Fatalf("%s got kind %d for %s from %s, want kind %d for %s from %s", p.ep.Addr(), k, got, m.From, kind, id, from)
	}
}

// skip drops frames while drop accepts them, and leaves the first it
// refuses for next.
func (p *momProbe) skip(drop func(transport.Message) bool) {
	p.t.Helper()
	for {
		m, ok := p.next(5 * time.Second)
		if !ok {
			p.t.Fatalf("%s: no frame past the skipped ones", p.ep.Addr())
		}
		if !drop(m) {
			p.held = &m
			return
		}
	}
}

// sentBy and about match frames by sender and by job.
func sentBy(a transport.Addr) func(transport.Message) bool {
	return func(m transport.Message) bool { return m.From == a }
}

func about(id JobID) func(transport.Message) bool {
	return func(m transport.Message) bool {
		d := codec.NewDecoder(m.Payload)
		d.Byte()
		return JobID(d.Text()) == id
	}
}

// silent fails the test if a frame arrives within d.
func (p *momProbe) silent(d time.Duration) {
	p.t.Helper()
	if m, ok := p.next(d); ok {
		p.t.Fatalf("%s got %d bytes from %s, want silence", p.ep.Addr(), len(m.Payload), m.From)
	}
}

// ack acknowledges a repeated start of job id to the daemon at to.
func (p *momProbe) ack(to transport.Addr, id JobID) {
	if err := p.ep.Send(to, appendStarted(nil, []byte(id))); err != nil {
		p.t.Fatal(err)
	}
}

// waitStats waits until cond holds for d's counters and returns them.
func waitStats(t *testing.T, d *Daemon, what string, cond func(DaemonStats) bool) (st DaemonStats) {
	t.Helper()
	waitFor(t, what, func() bool { st = d.Stats(); return cond(st) })
	return st
}

// probeDaemon is a daemon at addr over a fresh server on nodes, each
// node's mom at "<node>/mom".
func probeDaemon(t *testing.T, net *simnet.Network, addr transport.Addr, nodes []string, interval time.Duration) *Daemon {
	t.Helper()
	ep, err := net.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	moms := make(map[string]transport.Addr, len(nodes))
	for _, n := range nodes {
		moms[n] = transport.Addr(n + "/mom")
	}
	d := NewDaemon(NewServer(Config{ServerName: "c", Nodes: nodes}), DaemonConfig{
		Endpoint:       ep,
		Moms:           moms,
		ResendInterval: interval,
	})
	t.Cleanup(d.Close)
	return d
}

// TestOnlySenderSends: two daemons apply the same commands, and only
// the one its rule names talks to the moms. When the rule flips, the
// old sender falls silent and the new one adopts the launched jobs: the
// Running job's start and the Exiting job's kill, each sent once.
func TestOnlySenderSends(t *testing.T) {
	const interval = 30 * time.Millisecond
	net := simnet.New(simnet.Config{})
	defer net.Close()
	nodes := []string{"n0", "n1"}
	n0, n1 := newMomProbe(t, net, "n0/mom"), newMomProbe(t, net, "n1/mom")
	var aSends atomic.Bool
	aSends.Store(true)
	a := probeDaemon(t, net, "ha/pbs", nodes, interval)
	b := probeDaemon(t, net, "hb/pbs", nodes, interval)
	a.SetSender(aSends.Load)
	b.SetSender(func() bool { return !aSends.Load() })

	for _, d := range []*Daemon{a, b} {
		for range 3 {
			if _, err := d.Submit(SubmitRequest{WallTime: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Delete([]byte("2.c")); err != nil {
			t.Fatal(err)
		}
	}
	n0.expect(momKindStart, "1.c", "ha/pbs")
	n1.expect(momKindStart, "2.c", "ha/pbs")
	n1.expect(momKindKill, "2.c", "ha/pbs")
	if st := b.Stats(); st != (DaemonStats{}) {
		t.Errorf("the non-sender's stats = %+v, want zero", st)
	}

	aSends.Store(false)
	st := waitStats(t, b, "the new sender to adopt", func(st DaemonStats) bool { return st.Sent >= 2 })
	if st.Adopted != 2 || st.Sent != 2 {
		t.Errorf("the new sender's stats = %+v, want 2 adopted and 2 sent", st)
	}
	// Until its next tick the old sender may still resend.
	n0.skip(sentBy("ha/pbs"))
	n1.skip(sentBy("ha/pbs"))
	n0.expect(momKindStart, "1.c", "hb/pbs")
	n1.expect(momKindKill, "2.c", "hb/pbs")
	waitFor(t, "the old sender to see the flip", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.outstanding) == 0
	})
	before := a.Stats()
	time.Sleep(4 * interval)
	if st := a.Stats(); st != before {
		t.Errorf("the old sender kept sending: %+v, then %+v", before, st)
	}
}

// lossyAcks is a mom's endpoint that loses the first drop acks the mom
// sends (a mom sends nothing else on it).
type lossyAcks struct {
	transport.Endpoint
	drop  int32
	sends atomic.Int32
}

func (e *lossyAcks) Send(to transport.Addr, payload []byte) error {
	if e.sends.Add(1) <= e.drop {
		return nil
	}
	return e.Endpoint.Send(to, payload)
}

// startLossyMom runs a mom for node on net whose first drop acks are
// lost, completing its jobs at d.
func startLossyMom(t *testing.T, net *simnet.Network, d *Daemon, node string, drop int32) *lossyAcks {
	t.Helper()
	ep, err := net.Endpoint(transport.Addr(node + "/mom"))
	if err != nil {
		t.Fatal(err)
	}
	lossy := &lossyAcks{Endpoint: ep, drop: drop}
	mom := StartMom(MomConfig{Name: node, Endpoint: lossy, Complete: applyTo(d, node)})
	t.Cleanup(mom.Close)
	return lossy
}

// TestLostAckCostsOneResend: the mom does not ack the first start, its
// ack of the first resend is lost, and it acks the second; after that
// the daemon sends the job's start no more.
func TestLostAckCostsOneResend(t *testing.T) {
	const interval = 30 * time.Millisecond
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := probeDaemon(t, net, "h/pbs", []string{"n0"}, interval)
	lossy := startLossyMom(t, net, d, "n0", 1)
	if _, err := d.Submit(SubmitRequest{WallTime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// The resend tick and the ack both run on the daemon's loop, so the
	// counters are settled when the ack is counted.
	st := waitStats(t, d, "the re-ack", func(st DaemonStats) bool { return st.Acks == 1 })
	if st.Sent != 1 || st.Resent != 2 {
		t.Errorf("stats = %+v, want 1 sent and 2 resent", st)
	}
	if n := lossy.sends.Load(); n != 2 {
		t.Errorf("the mom acked %d times, want 2 (the lost ack and the re-ack)", n)
	}
	time.Sleep(5 * interval)
	if got := d.Stats(); got != st {
		t.Errorf("stats went from %+v to %+v after the ack, want no change", st, got)
	}
	if n := lossy.sends.Load(); n != 2 {
		t.Errorf("the mom acked %d times after the ack arrived, want 2", n)
	}
}

// TestSilentMomKeepsBeingResent: a mom whose acks never arrive keeps
// getting the start, and acks every repeat.
func TestSilentMomKeepsBeingResent(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	d := probeDaemon(t, net, "h/pbs", []string{"n0"}, 20*time.Millisecond)
	lossy := startLossyMom(t, net, d, "n0", math.MaxInt32)
	if _, err := d.Submit(SubmitRequest{WallTime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, d, "five resends", func(st DaemonStats) bool { return st.Resent >= 5 })
	if st.Sent != 1 || st.Acks != 0 {
		t.Errorf("stats = %+v, want 1 sent and no ack", st)
	}
	if n := lossy.sends.Load(); n < 4 {
		t.Errorf("the mom acked %d of %d resends", n, st.Resent)
	}
}

// TestMultiNodeStartAckedPerNode: each node of a two-node job acks for
// itself, and the start is resent only to the node that has not.
func TestMultiNodeStartAckedPerNode(t *testing.T) {
	const interval = 30 * time.Millisecond
	net := simnet.New(simnet.Config{})
	defer net.Close()
	n0, n1 := newMomProbe(t, net, "n0/mom"), newMomProbe(t, net, "n1/mom")
	d := probeDaemon(t, net, "h/pbs", []string{"n0", "n1"}, interval)
	j, err := d.Submit(SubmitRequest{NodeCount: 2, WallTime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 { // the start, then its first resend
		n0.expect(momKindStart, j.ID, "h/pbs")
		n1.expect(momKindStart, j.ID, "h/pbs")
	}
	n0.ack("h/pbs", j.ID)
	// The daemon sends to n0 before n1, so n0 would have its copy of
	// the next resend by now.
	n1.expect(momKindStart, j.ID, "h/pbs")
	n0.silent(interval / 2)
	n1.ack("h/pbs", j.ID)
	waitStats(t, d, "both acks", func(st DaemonStats) bool { return st.Acks == 2 })
	n0.silent(3 * interval)
	n1.silent(interval)
}

// TestDaemonRestoreReadoptsLaunchedJobs: a restored snapshot replaces
// the outstanding requests. A sender then sends each restored Running
// job's start once, on its next tick, and never again the old state's;
// a daemon that is not the sender sends nothing.
func TestDaemonRestoreReadoptsLaunchedJobs(t *testing.T) {
	const interval = 30 * time.Millisecond
	for _, sender := range []bool{true, false} {
		t.Run(fmt.Sprintf("sender=%v", sender), func(t *testing.T) {
			net := simnet.New(simnet.Config{})
			defer net.Close()
			n0 := newMomProbe(t, net, "n0/mom")
			d := probeDaemon(t, net, "h/pbs", []string{"n0"}, interval)
			d.SetSender(func() bool { return sender })
			if _, err := d.Submit(SubmitRequest{WallTime: time.Hour}); err != nil {
				t.Fatal(err)
			}

			// The snapshot's job 1.c is held, and its 2.c runs.
			other := NewServer(Config{ServerName: "c", Nodes: []string{"n0"}})
			other.Submit(SubmitRequest{Name: "held", Hold: true})
			other.Submit(SubmitRequest{Name: "restored", WallTime: time.Hour})
			if err := d.Restore(other.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if all := d.StatusAll(); len(all) != 2 || all[1].Name != "restored" || all[1].State != StateRunning {
				t.Fatalf("restored state = %+v", all)
			}
			if !sender {
				n0.silent(4 * interval)
				if st := d.Stats(); st != (DaemonStats{}) {
					t.Errorf("stats = %+v, want zero", st)
				}
				return
			}
			n0.skip(about("1.c"))
			n0.expect(momKindStart, "2.c", "h/pbs")
			if st := d.Stats(); st.Adopted != 1 {
				t.Errorf("adopted %d jobs, want 1", st.Adopted)
			}
			// Only the restored job's resends follow.
			for deadline := time.Now().Add(4 * interval); time.Now().Before(deadline); {
				if m, ok := n0.next(interval); ok && !about("2.c")(m) {
					t.Fatalf("%d bytes from the old state after Restore", len(m.Payload))
				}
			}
		})
	}
}

// TestStartAckedOverTCP: over real sockets, a mom's ack of a repeated
// start reaches the daemon's address, and the start is resent no more.
func TestStartAckedOverTCP(t *testing.T) {
	const interval = 50 * time.Millisecond
	res := tcpnet.StaticResolver{}
	listen := func(addr transport.Addr) *tcpnet.Endpoint {
		t.Helper()
		ep, err := tcpnet.Listen(addr, "127.0.0.1:0", res)
		if err != nil {
			t.Fatal(err)
		}
		res[addr] = ep.TCPAddr()
		return ep
	}
	headEP, momEP := listen("head0/pbs"), listen("compute0/mom")
	d := NewDaemon(NewServer(Config{ServerName: "c", Nodes: []string{"compute0"}}), DaemonConfig{
		Endpoint:       headEP,
		Moms:           map[string]transport.Addr{"compute0": "compute0/mom"},
		ResendInterval: interval,
	})
	defer d.Close()
	mom := StartMom(MomConfig{Name: "compute0", Endpoint: momEP, Complete: applyTo(d, "compute0")})
	defer mom.Close()
	if _, err := d.Submit(SubmitRequest{WallTime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, d, "the mom's ack", func(st DaemonStats) bool { return st.Acks == 1 })
	if st.Resent == 0 {
		t.Errorf("stats = %+v: acked without a resend", st)
	}
	time.Sleep(3 * interval)
	if got := d.Stats(); got != st {
		t.Errorf("stats went from %+v to %+v after the ack, want no change", st, got)
	}
}

func TestDaemonRestoreRejectsCorrupt(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	srv := NewServer(Config{ServerName: "c", Nodes: []string{"n0"}})
	ep, _ := net.Endpoint("h/pbs")
	d := NewDaemon(srv, DaemonConfig{Endpoint: ep, Moms: map[string]transport.Addr{}})
	defer d.Close()
	if err := d.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt snapshot should fail")
	}
}

func TestRunScript(t *testing.T) {
	cases := []struct {
		script string
		want   string
	}{
		{"", ""},
		{"echo hello", "hello\n"},
		{"#!/bin/sh\necho one\ntrue\necho two\n", "one\ntwo\n"},
		{`echo "quoted words"`, "quoted words\n"},
		{"echo 'single'", "single\n"},
		{"make -j8", "[1.c completed on nodeX]\n"},
	}
	for _, c := range cases {
		got := runScript(Job{ID: "1.c", Script: c.script}, "nodeX")
		if got != c.want {
			t.Errorf("runScript(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

func TestJobOutputThroughMom(t *testing.T) {
	r := newRig(t, 1, nil)
	j, err := r.daemon.Submit(SubmitRequest{
		Script:   "echo captured output",
		WallTime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.Output != "captured output\n" {
		t.Errorf("output = %q", got.Output)
	}
	if !strings.Contains(FullStatusText(got), "exit_status = 0") {
		t.Errorf("FullStatusText missing exit status")
	}
}

func TestKilledJobHasNoOutput(t *testing.T) {
	r := newRig(t, 1, nil)
	j, _ := r.daemon.Submit(SubmitRequest{Script: "echo never", WallTime: 10 * time.Second})
	waitState(t, r.daemon, j.ID, StateRunning, 5*time.Second)
	r.daemon.Delete([]byte(j.ID))
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.Output != "" {
		t.Errorf("killed job output = %q, want empty", got.Output)
	}
	if got.ExitCode != ExitCodeKilled {
		t.Errorf("exit = %d", got.ExitCode)
	}
}
