package rsm

import (
	"encoding/base64"
	"fmt"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

// testReply is the reply of the engine tests' service: the request ID
// and a body naming who answered.
type testReply struct{ reqID, body string }

var testCodec = ClientCodec[*testReply]{
	Decode: func(b []byte) (*testReply, string, error) {
		d := codec.NewDecoder(b)
		r := &testReply{reqID: d.String(), body: d.String()}
		return r, r.reqID, d.Finish()
	},
	NotPrimary: func(*testReply) bool { return false },
	Epoch:      func(*testReply) uint64 { return 0 },
	Release:    func(*testReply) {},
	Probe:      testRequest,
}

// testRequest is a request datagram: its ID alone.
func testRequest(reqID string) []byte {
	e := codec.NewEncoder(32)
	e.PutString(reqID)
	return e.Bytes()
}

// handEndpoint hands every request it is sent to the test, which
// answers, or does not, by injecting replies.
type handEndpoint struct {
	sent chan handSend
	recv chan transport.Message
}

type handSend struct {
	to    transport.Addr
	reqID string
}

func newHandEndpoint() *handEndpoint {
	return &handEndpoint{sent: make(chan handSend, 8), recv: make(chan transport.Message, 8)}
}

func (e *handEndpoint) Addr() transport.Addr { return "user/hand" }

func (e *handEndpoint) Send(to transport.Addr, payload []byte) error {
	e.sent <- handSend{to: to, reqID: codec.NewDecoder(payload).String()}
	return nil
}

func (e *handEndpoint) Recv() <-chan transport.Message { return e.recv }
func (e *handEndpoint) Close() error                   { return nil }

// reply injects from's answer to reqID.
func (e *handEndpoint) reply(from transport.Addr, reqID, body string) {
	enc := codec.NewEncoder(64)
	enc.PutString(reqID)
	enc.PutString(body)
	e.recv <- transport.Message{From: from, To: e.Addr(), Payload: enc.Bytes()}
}

func newTestClient(tb testing.TB, ep transport.Endpoint, cfg ClientConfig) *Client[*testReply] {
	cfg.Endpoint = ep
	c, err := NewClient(cfg, testCodec)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// TestMintReqIDMatchesSprintf pins the request IDs the client renders
// to their fmt form, "<inc>.<seq>" for calls and "<inc>.p<seq>" for
// probes, for sequence numbers up to the largest uint64 and for the
// IDs NextID hands out across blocks, and checks
// that the incarnation is 11 base64url characters drawn afresh by each
// client, so two clients at one address mint different IDs.
func TestMintReqIDMatchesSprintf(t *testing.T) {
	ep := newHandEndpoint()
	cfg := ClientConfig{Groups: [][]transport.Addr{{"head0/x"}}, RedeemAfter: -1}
	a, b := newTestClient(t, ep, cfg), newTestClient(t, ep, cfg)
	for _, c := range []*Client[*testReply]{a, b} {
		if raw, err := base64.RawURLEncoding.DecodeString(c.inc); len(c.inc) != 11 || err != nil || len(raw) != 8 {
			t.Errorf("incarnation %q is not 11 base64url characters of 8 bytes (%v)", c.inc, err)
		}
	}
	if a.inc == b.inc {
		t.Errorf("two clients at %s drew the same incarnation %q", ep.Addr(), a.inc)
	}
	for seq := 1; seq <= 2*idBlock+1; seq++ { // across two block boundaries
		if got, want := a.NextID(), fmt.Sprintf("%s.%d", a.inc, seq); got != want {
			t.Fatalf("NextID = %q, want %q", got, want)
		}
	}
	for _, seq := range []uint64{0, 1, 9, 10, 42, 1 << 20, 1<<63 + 7, ^uint64(0)} {
		if got, want := string(appendReqID(nil, a.inc, "", seq)), fmt.Sprintf("%s.%d", a.inc, seq); got != want {
			t.Errorf("appendReqID(%d) = %q, want %q", seq, got, want)
		}
		if got, want := string(appendReqID(nil, a.inc, "p", seq)), fmt.Sprintf("%s.p%d", a.inc, seq); got != want {
			t.Errorf("appendReqID(p, %d) = %q, want %q", seq, got, want)
		}
	}
}

// TestReqIDMintAllocs: minting request IDs costs one allocation per
// block of idBlock, the string the block's IDs are substrings of.
func TestReqIDMintAllocs(t *testing.T) {
	c := newTestClient(t, newHandEndpoint(), ClientConfig{Groups: [][]transport.Addr{{"head0/x"}}, RedeemAfter: -1})
	const blocks = 20
	mint := func() {
		for i := 0; i < blocks*idBlock; i++ {
			c.NextID()
		}
	}
	// AllocsPerRun rounds the mean down, so the render buffer growing
	// once at the fifth digit (ID 10,000) does not count.
	if allocs := testing.AllocsPerRun(10, mint); allocs > blocks {
		t.Errorf("minting %d request IDs: %v allocs, want <= %d", blocks*idBlock, allocs, blocks)
	}
}

// TestRecycledCallNeverSeesStaleReply drives the three ways a reply can
// reach a call's waiter after the call took its answer, then makes a
// later call reuse that waiter, and checks that the later call returns
// its own reply: the sequencer's copy trailing a finished mutation
// (which keeps its waiter registered as lastMut), a hedged mutation's
// second answer, and a read's answer from a head that had already
// timed out.
func TestRecycledCallNeverSeesStaleReply(t *testing.T) {
	heads := []transport.Addr{"head0/x", "head1/x"}
	ep := newHandEndpoint()
	// A mutation is hedged after AttemptTimeout/16 = 10 ms; a read
	// waits the whole 160 ms on one head.
	c := newTestClient(t, ep, ClientConfig{Groups: [][]transport.Addr{heads}, AttemptTimeout: 160 * time.Millisecond, Rounds: 100, RedeemAfter: -1})

	type result struct {
		body string
		err  error
	}
	// start runs one call and returns its request, the waiter serving
	// it, and where its result will land.
	start := func(mutating bool) (handSend, *waiter[*testReply], chan result) {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			id := c.NextID()
			r, err := c.Call(0, id, mutating, testRequest(id))
			if err != nil {
				done <- result{err: err}
				return
			}
			done <- result{body: r.body}
		}()
		s := <-ep.sent
		c.mu.Lock()
		w := c.waiters[s.reqID]
		c.mu.Unlock()
		if w == nil {
			t.Fatalf("request %s has no waiter: its call ended before the test answered it", s.reqID)
		}
		return s, w, done
	}
	expect := func(what string, done chan result, body string) {
		t.Helper()
		r := <-done
		if r.err != nil || r.body != body {
			t.Fatalf("%s returned %q, %v; want its own reply %q", what, r.body, r.err, body)
		}
	}
	// cycle runs one mutation and one read, each answered at once, and
	// reports whether either reused w.
	cycle := func(tag string, w *waiter[*testReply]) bool {
		t.Helper()
		s, wm, done := start(true)
		ep.reply(s.to, s.reqID, tag+"-m")
		expect(tag+" mutation", done, tag+"-m")
		s, wr, done := start(false)
		ep.reply(s.to, s.reqID, tag+"-r")
		expect(tag+" read", done, tag+"-r")
		return wm == w || wr == w
	}
	// recycled runs cycles until one reuses w.
	recycled := func(what string, w *waiter[*testReply]) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if cycle(what+string(rune('a'+i)), w) {
				return
			}
		}
		t.Fatalf("%s: the waiter was never reused", what)
	}

	// The sequencer's copy trailing a finished mutation.
	s, w, done := start(true)
	ep.reply(s.to, s.reqID, "first")
	expect("mutation", done, "first")
	ep.reply(heads[1], s.reqID, "trailing")
	recycled("after a trailing sequencer copy", w)

	// A hedged mutation answered by both heads.
	s, w, done = start(true)
	hedge := <-ep.sent
	if hedge.reqID != s.reqID || hedge.to == s.to {
		t.Fatalf("hedge went to %s as %s; want the other head, %s", hedge.to, hedge.reqID, s.reqID)
	}
	ep.reply(hedge.to, s.reqID, "hedged")
	ep.reply(s.to, s.reqID, "duplicate")
	expect("hedged mutation", done, "hedged")
	recycled("after a hedged duplicate", w)

	// A read whose first head timed out and answers after the second.
	s, w, done = start(false)
	retry := <-ep.sent
	ep.reply(retry.to, s.reqID, "retried")
	ep.reply(s.to, s.reqID, "late")
	expect("retried read", done, "retried")
	recycled("after a reply past the attempt timeout", w)
}
