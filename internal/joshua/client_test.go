package joshua

import (
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// sendErrEndpoint is a stub transport that fails Send to designated
// heads (the way tcpnet reports an unreachable peer) and answers every
// request reaching a live head with an OK response.
type sendErrEndpoint struct {
	dead map[transport.Addr]bool
	recv chan transport.Message

	mu    sync.Mutex
	sends []transport.Addr
}

func newSendErrEndpoint(dead ...transport.Addr) *sendErrEndpoint {
	m := make(map[transport.Addr]bool, len(dead))
	for _, a := range dead {
		m[a] = true
	}
	return &sendErrEndpoint{dead: m, recv: make(chan transport.Message, 16)}
}

func (e *sendErrEndpoint) Addr() transport.Addr { return "user/stub" }

func (e *sendErrEndpoint) Send(to transport.Addr, payload []byte) error {
	e.mu.Lock()
	e.sends = append(e.sends, to)
	e.mu.Unlock()
	if e.dead[to] {
		return fmt.Errorf("stub: dial %s: connection refused", to)
	}
	req, _, err := decodeRPC(payload)
	if err != nil || req == nil {
		return nil
	}
	resp := &rpcResponse{ReqID: req.ReqID, OK: true}
	e.recv <- transport.Message{From: to, To: e.Addr(), Payload: resp.encode()}
	return nil
}

func (e *sendErrEndpoint) Recv() <-chan transport.Message { return e.recv }

func (e *sendErrEndpoint) Close() error { return nil }

func (e *sendErrEndpoint) sentTo() []transport.Addr {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]transport.Addr(nil), e.sends...)
}

func TestClientSendErrorAdvancesToNextHead(t *testing.T) {
	// A Send error on one head (connection refused, unknown peer) must
	// count as that head being down: the call advances to the next head
	// instead of aborting, and does so without waiting out a timeout.
	ep := newSendErrEndpoint(clientAddr(0))
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{clientAddr(0), clientAddr(1)},
		AttemptTimeout: 5 * time.Second, // a timeout would blow the test deadline
		RedeemAfter:    -1,              // no prober: the test asserts the exact send sequence
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	// A mutation uses the sticky head (index 0, the dead one); reads —
	// ordered ones included, now that any lease holder may serve them —
	// round-robin and could start past it.
	if _, err := cli.Delete("1.cluster"); err != nil {
		t.Fatalf("call should fail over past the send error: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("failover took %v; send errors should skip ahead immediately", d)
	}
	sends := ep.sentTo()
	if len(sends) != 2 || sends[0] != clientAddr(0) || sends[1] != clientAddr(1) {
		t.Errorf("send sequence = %v, want [head0 head1]", sends)
	}
}

func TestClientReadsRoundRobinAcrossHeads(t *testing.T) {
	// Read-only queries rotate their starting head so N pollers spread
	// across the group; mutations stay sticky to the last head that
	// answered one.
	ep := newSendErrEndpoint()
	heads := []transport.Addr{clientAddr(0), clientAddr(1), clientAddr(2)}
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          heads,
		AttemptTimeout: 5 * time.Second,
		RedeemAfter:    -1, // no prober: the test counts sends per head
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 6; i++ {
		if _, err := cli.StatAll(); err != nil {
			t.Fatal(err)
		}
	}
	perHead := make(map[transport.Addr]int)
	for _, a := range ep.sentTo() {
		perHead[a]++
	}
	for _, h := range heads {
		if perHead[h] != 2 {
			t.Errorf("head %s served %d of 6 reads, want 2 (sends: %v)", h, perHead[h], ep.sentTo())
		}
	}

	// A mutation always starts at the sticky head regardless of where
	// the read rotation stands.
	before := len(ep.sentTo())
	for i := 0; i < 3; i++ {
		if _, err := cli.Delete("1.cluster"); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range ep.sentTo()[before:] {
		if a != clientAddr(0) {
			t.Errorf("mutation sent to %s, want sticky head %s", a, clientAddr(0))
		}
	}
}

func TestClientAllSendsFailReportsLastError(t *testing.T) {
	ep := newSendErrEndpoint(clientAddr(0), clientAddr(1))
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{clientAddr(0), clientAddr(1)},
		AttemptTimeout: 5 * time.Second,
		Rounds:         2,
		RedeemAfter:    -1, // no prober: the test counts sends
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, callErr := cli.Stat("1.cluster")
	if !errors.Is(callErr, ErrUnreached) {
		t.Fatalf("err = %v, want ErrUnreached", callErr)
	}
	if got := len(ep.sentTo()); got != 4 {
		t.Errorf("attempted %d sends, want 4 (2 rounds x 2 heads)", got)
	}
}

// silentEndpoint accepts every Send but never produces a reply — the
// shape of a whole cluster that is down (a crashed host drops
// datagrams silently; nothing errors, nothing answers).
type silentEndpoint struct {
	recv chan transport.Message
	once sync.Once
}

func (e *silentEndpoint) Addr() transport.Addr              { return "user/silent" }
func (e *silentEndpoint) Send(transport.Addr, []byte) error { return nil }
func (e *silentEndpoint) Recv() <-chan transport.Message    { return e.recv }
func (e *silentEndpoint) Close() error                      { e.once.Do(func() { close(e.recv) }); return nil }

func TestClientAllHeadsSilentReportsNoHealthyHeads(t *testing.T) {
	// Every head down: the client must say so distinctly — naming the
	// endpoints it tried — instead of returning the generic timeout,
	// while still matching ErrUnreached for existing callers.
	heads := []transport.Addr{clientAddr(0), clientAddr(1)}
	cli, err := NewClient(ClientConfig{
		Endpoint:       &silentEndpoint{recv: make(chan transport.Message)},
		Heads:          heads,
		AttemptTimeout: 20 * time.Millisecond,
		Rounds:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, callErr := cli.Stat("1.cluster")
	if !errors.Is(callErr, ErrNoHealthyHeads) {
		t.Fatalf("err = %v, want ErrNoHealthyHeads", callErr)
	}
	if !errors.Is(callErr, ErrUnreached) {
		t.Fatalf("err = %v, must still match ErrUnreached", callErr)
	}
	for _, h := range heads {
		if !strings.Contains(callErr.Error(), string(h)) {
			t.Errorf("error %q does not name attempted head %s", callErr, h)
		}
	}
}

func TestClientSticksToAnsweringHead(t *testing.T) {
	// After failing over away from a dead head, the client should keep
	// using the head that answered instead of timing out on the dead
	// one for every subsequent call.
	r := newRawRig(t, 2, nil)
	cliEP, err := r.net.Endpoint("user/sticky")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{
		Endpoint:       cliEP,
		Heads:          []transport.Addr{clientAddr(0), clientAddr(1)},
		AttemptTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// head0 (the preferred first hop) dies before any call.
	r.net.CrashHost("head0")
	r.heads[0].Close()

	// First call pays the failover timeout once.
	start := time.Now()
	if _, err := cli.Submit(pbs.SubmitRequest{Hold: true}); err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	if first < 150*time.Millisecond {
		t.Logf("first call unexpectedly fast (%v); failover may have been immediate", first)
	}

	// Subsequent calls go straight to the live head: far under one
	// attempt timeout each.
	start = time.Now()
	for i := 0; i < 5; i++ {
		if _, err := cli.Submit(pbs.SubmitRequest{Hold: true}); err != nil {
			t.Fatal(err)
		}
	}
	per := time.Since(start) / 5
	if per > 150*time.Millisecond {
		t.Errorf("per-call latency after failover = %v; client is not sticky", per)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	r := newRawRig(t, 2, nil)
	cliEP, err := r.net.Endpoint("user/conc")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{
		Endpoint: cliEP,
		Heads:    []transport.Addr{clientAddr(0), clientAddr(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const goroutines = 8
	const perG = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	ids := make(chan pbs.JobID, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j, err := cli.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("c%d-%d", g, i), Hold: true})
				if err != nil {
					errs <- err
					return
				}
				ids <- j.ID
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	close(ids)
	for err := range errs {
		t.Fatal(err)
	}
	// All job IDs are distinct (no cross-talk between concurrent
	// requests sharing the client endpoint).
	seen := map[pbs.JobID]bool{}
	n := 0
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s returned to two callers", id)
		}
		seen[id] = true
		n++
	}
	if n != goroutines*perG {
		t.Fatalf("got %d jobs, want %d", n, goroutines*perG)
	}
}

func TestMomHooksEmulateWhenHeadsUnreachable(t *testing.T) {
	// With every head dead, the mom's completion hook returns an error,
	// not a refusal, so the mom retries the jdone instead of dropping
	// it; the job is not lost, it completes once a head answers.
	net := newRawRig(t, 1, nil) // gives us a simnet
	net.net.CrashHost("head0")
	net.heads[0].Close()

	cliEP, err := net.net.Endpoint("compute9/jdone")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{
		Endpoint:       cliEP,
		Heads:          []transport.Addr{clientAddr(0)},
		AttemptTimeout: 50 * time.Millisecond,
		Rounds:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	complete := MomHooks(cli, "compute9")
	err = complete(pbs.Job{ID: "1.cluster"}, 0, "")
	if err == nil || errors.Is(err, pbs.ErrNotFirstNode) {
		t.Fatalf("jdone with no reachable head = %v, want an error that is not a refusal, so the mom retries", err)
	}
}

// scriptedEndpoint is a stub transport whose replies are produced by a
// per-request handler; heads can be marked dead (Send errors) and
// revived at runtime.
type scriptedEndpoint struct {
	handler func(to transport.Addr, req *rpcRequest) *rpcResponse
	recv    chan transport.Message

	mu    sync.Mutex
	dead  map[transport.Addr]bool
	sends []sendRec
}

// sendRec records one outbound request: its destination and opcode
// (so tests can tell reads from background health probes).
type sendRec struct {
	to transport.Addr
	op Op
}

func newScriptedEndpoint(handler func(transport.Addr, *rpcRequest) *rpcResponse) *scriptedEndpoint {
	return &scriptedEndpoint{
		handler: handler,
		recv:    make(chan transport.Message, 64),
		dead:    make(map[transport.Addr]bool),
	}
}

func (e *scriptedEndpoint) Addr() transport.Addr { return "user/scripted" }

func (e *scriptedEndpoint) setDead(a transport.Addr, dead bool) {
	e.mu.Lock()
	e.dead[a] = dead
	e.mu.Unlock()
}

func (e *scriptedEndpoint) Send(to transport.Addr, payload []byte) error {
	req, _, err := decodeRPC(payload)
	if err != nil || req == nil {
		return nil
	}
	e.mu.Lock()
	e.sends = append(e.sends, sendRec{to: to, op: req.Op})
	dead := e.dead[to]
	e.mu.Unlock()
	if dead {
		return fmt.Errorf("stub: dial %s: connection refused", to)
	}
	resp := e.handler(to, req)
	if resp == nil {
		return nil // silent head
	}
	resp.ReqID = req.ReqID
	e.recv <- transport.Message{From: to, To: e.Addr(), Payload: resp.encode()}
	return nil
}

func (e *scriptedEndpoint) Recv() <-chan transport.Message { return e.recv }
func (e *scriptedEndpoint) Close() error                   { return nil }

func (e *scriptedEndpoint) sent() []sendRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]sendRec(nil), e.sends...)
}

func (e *scriptedEndpoint) resetSends() {
	e.mu.Lock()
	e.sends = nil
	e.mu.Unlock()
}

func okHandler(transport.Addr, *rpcRequest) *rpcResponse {
	return &rpcResponse{OK: true}
}

func TestClientProberRedeemsRecoveredHead(t *testing.T) {
	// A head marked unhealthy must rejoin the read rotation once the
	// background prober (RedeemAfter) sees it answer again, even if no
	// mutation ever lands on it. While the head is down, no read is
	// ever sent to it — probes run off the request path.
	ep := newScriptedEndpoint(okHandler)
	heads := []transport.Addr{clientAddr(0), clientAddr(1)}
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          heads,
		AttemptTimeout: 5 * time.Second,
		RedeemAfter:    25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// head0 is down; a couple of reads discover that (send error fails
	// over immediately) and mark it.
	ep.setDead(clientAddr(0), true)
	for i := 0; i < 2; i++ {
		if _, err := cli.StatAll(); err != nil {
			t.Fatal(err)
		}
	}

	// While it stays down, every read goes straight to head1; the only
	// traffic head0 sees is probes.
	ep.resetSends()
	time.Sleep(60 * time.Millisecond) // a couple of (failing) probe ticks
	for i := 0; i < 4; i++ {
		if _, err := cli.StatAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range ep.sent() {
		if s.to == clientAddr(0) && s.op != OpInfoLocal {
			t.Fatalf("read sent to down-marked head (sends: %v)", ep.sent())
		}
	}

	// head0 recovers; the next probe marks it healthy and reads reach
	// it again without any mutation reviving it.
	ep.setDead(clientAddr(0), false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		ep.resetSends()
		for i := 0; i < 4; i++ {
			if _, err := cli.StatAll(); err != nil {
				t.Fatal(err)
			}
		}
		redeemed := false
		for _, s := range ep.sent() {
			if s.to == clientAddr(0) && s.op == OpStatAll {
				redeemed = true
			}
		}
		if redeemed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered head never rejoined the read rotation (sends: %v)", ep.sent())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientDeadHeadStaysOutOfReadRotation(t *testing.T) {
	// A head that keeps failing its probes must stay out of the read
	// rotation indefinitely: redemption requires an answered probe, so
	// a permanently absent address (a spare slot in a static head
	// list) costs the request path nothing after its first down-mark.
	ep := newScriptedEndpoint(okHandler)
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{clientAddr(0), clientAddr(1)},
		AttemptTimeout: 5 * time.Second,
		RedeemAfter:    25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ep.setDead(clientAddr(0), true)
	for i := 0; i < 2; i++ {
		if _, err := cli.StatAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Several probe intervals elapse, all failing; reads must still
	// avoid the dead head.
	time.Sleep(100 * time.Millisecond)
	ep.resetSends()
	for i := 0; i < 4; i++ {
		if _, err := cli.StatAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range ep.sent() {
		if s.to == clientAddr(0) && s.op != OpInfoLocal {
			t.Fatalf("failed probes did not keep the dead head out of rotation (sends: %v)", ep.sent())
		}
	}
}

// TestReqIDBlocksStayUnique runs 32 concurrent callers through many
// blocks of minted request IDs, and checks that the calls sent as many
// distinct IDs as there were calls, each of the form "<inc>.<seq>",
// and the probes theirs of the form "<inc>.p<seq>", where <inc> is the
// client's one incarnation: 11 base64url characters, not its address.
func TestReqIDBlocksStayUnique(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]Op{} // a retried call resends its ID
	ep := newScriptedEndpoint(func(_ transport.Addr, req *rpcRequest) *rpcResponse {
		mu.Lock()
		seen[req.ReqID] = req.Op
		mu.Unlock()
		return &rpcResponse{OK: true}
	})
	heads := []transport.Addr{clientAddr(0), clientAddr(1)}
	cli, err := NewClient(ClientConfig{Endpoint: ep, Heads: heads, AttemptTimeout: 10 * time.Second, RedeemAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const callers, perCaller = 32, 3 * 64 // three blocks of minted IDs each
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				resp, err := cli.call(0, OpStatAll, cmdArgs{})
				if err != nil {
					t.Error(err)
					return
				}
				releaseResponse(resp)
			}
		}()
	}
	wg.Wait()
	// The prober's first round sends one probe to each head.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n >= callers*perCaller+len(heads) || time.Now().After(deadline) {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	calls, probes := 0, 0
	incs := map[string]bool{}
	for id, op := range seen {
		tag := ""
		if op == OpInfoLocal {
			tag = "p"
			probes++
		} else {
			calls++
		}
		inc, rest, _ := strings.Cut(id, ".")
		incs[inc] = true
		digits, ok := strings.CutPrefix(rest, tag)
		if _, err := base64.RawURLEncoding.DecodeString(inc); len(inc) != 11 || err != nil {
			t.Errorf("%v request ID %q does not start with an 11-character incarnation", op, id)
		}
		if seq, err := strconv.ParseUint(digits, 10, 64); !ok || err != nil || strconv.FormatUint(seq, 10) != digits {
			t.Errorf("%v request ID %q is not <inc>.%s<seq>", op, id, tag)
		}
	}
	if len(incs) != 1 {
		t.Errorf("request IDs carry %d incarnations, want the client's one", len(incs))
	}
	if calls != callers*perCaller || probes != len(heads) {
		t.Errorf("%d distinct call IDs and %d probe IDs, want %d and %d", calls, probes, callers*perCaller, len(heads))
	}
}

// TestLostHintReroutesInFlightWrite: a connection-loss hint for the
// head a write waits on sends the write's hedge at once instead of
// after AttemptTimeout/16, marks the head down, and moves later writes
// to the next head.
func TestLostHintReroutesInFlightWrite(t *testing.T) {
	var ep *scriptedEndpoint
	ep = newScriptedEndpoint(func(to transport.Addr, _ *rpcRequest) *rpcResponse {
		if to == clientAddr(0) {
			// The head dies before it answers; its closed socket is
			// the hint.
			ep.recv <- transport.Message{From: to, To: ep.Addr(), Lost: true}
			return nil
		}
		return &rpcResponse{OK: true}
	})
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{clientAddr(0), clientAddr(1), clientAddr(2)},
		AttemptTimeout: 8 * time.Second, // hedge after 500 ms
		RedeemAfter:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	t0 := time.Now()
	if _, err := cli.Delete("1.cluster"); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took >= 100*time.Millisecond {
		t.Errorf("write returned after %v, want well under the 500 ms hedge delay", took)
	}
	ep.resetSends()
	if _, err := cli.Delete("2.cluster"); err != nil {
		t.Fatal(err)
	}
	if s := ep.sent(); len(s) != 1 || s[0].to != clientAddr(1) {
		t.Errorf("next write sent %v, want it to start at the next head %s", s, clientAddr(1))
	}
}
