package joshua

import (
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// echoEndpoint answers every jsub and jstat with the same held job,
// encoded in place behind the request's ReqID into one of two buffers
// it reuses, so the stub itself allocates nothing: what a call costs
// on it is the client's own cost. Calls must be sequential (a reply's
// buffer is rewritten two calls later) and the prober off.
type echoEndpoint struct {
	recv chan transport.Message
	bufs [2]*codec.Encoder
	next int
	job  pbs.Job
}

func newEchoEndpoint() *echoEndpoint {
	return &echoEndpoint{
		recv: make(chan transport.Message, 1),
		bufs: [2]*codec.Encoder{codec.NewEncoder(256), codec.NewEncoder(256)},
		job:  pbs.Job{ID: "42.cluster", Seq: 42, Name: "bench", Owner: "bench", Script: "true\n", State: pbs.StateHeld, ArrayIdx: -1},
	}
}

func (e *echoEndpoint) Addr() transport.Addr { return "user/echo" }

func (e *echoEndpoint) Send(to transport.Addr, payload []byte) error {
	var v view
	if !v.header(codec.NewDecoder(payload)) {
		return nil
	}
	enc := e.bufs[e.next]
	e.next ^= 1
	enc.Reset()
	putJobReply(enc, v.reqID, e.job, nil, 7)
	e.recv <- transport.Message{From: to, To: e.Addr(), Payload: enc.Bytes()}
	return nil
}

func (e *echoEndpoint) Recv() <-chan transport.Message { return e.recv }
func (e *echoEndpoint) Close() error                   { return nil }

func newEchoClient(tb testing.TB) *Client {
	c, err := NewClient(ClientConfig{Endpoint: newEchoEndpoint(), Heads: []transport.Addr{"head0/joshua"}, RedeemAfter: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c
}

// clientCalls are the calls the allocation gate measures: a held jsub
// and a jstat of one job.
var clientCalls = []struct {
	name string
	call func(c *Client) (pbs.Job, error)
}{
	{"Submit", func(c *Client) (pbs.Job, error) {
		return c.Submit(pbs.SubmitRequest{Name: "bench", Owner: "bench", Script: "true\n", Hold: true})
	}},
	{"Stat", func(c *Client) (pbs.Job, error) { return c.Stat("42.cluster") }},
}

// TestClientCallAllocs pins what a client call allocates once its
// waiter, channel, timer and response are recycled: the ReqID and the
// one string the returned job's fields share.
func TestClientCallAllocs(t *testing.T) {
	c := newEchoClient(t)
	for _, cc := range clientCalls {
		if j, err := cc.call(c); err != nil || j.ID != "42.cluster" || j.Name != "bench" {
			t.Fatalf("%s: %+v, %v", cc.name, j, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := cc.call(c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: %v allocs/op, want <= 2", cc.name, allocs)
		}
	}
}

func BenchmarkClientCall(b *testing.B) {
	for _, cc := range clientCalls {
		b.Run(cc.name, func(b *testing.B) {
			c := newEchoClient(b)
			if _, err := cc.call(c); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cc.call(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

func (e *handEndpoint) Addr() transport.Addr { return "user/hand" }

func (e *handEndpoint) Send(to transport.Addr, payload []byte) error {
	var v view
	if v.header(codec.NewDecoder(payload)) {
		e.sent <- handSend{to: to, reqID: string(v.reqID)}
	}
	return nil
}

func (e *handEndpoint) Recv() <-chan transport.Message { return e.recv }
func (e *handEndpoint) Close() error                   { return nil }

// reply injects from's answer to reqID: a job named name.
func (e *handEndpoint) reply(from transport.Addr, reqID, name string) {
	enc := codec.NewEncoder(128)
	putJobReply(enc, []byte(reqID), pbs.Job{ID: pbs.JobID(name + ".c"), Name: name}, nil, 1)
	e.recv <- transport.Message{From: from, To: e.Addr(), Payload: enc.Bytes()}
}

// TestRecycledCallNeverSeesStaleReply drives the three ways a reply can
// reach a call's waiter after the call took its answer, then makes a
// later call reuse that waiter, and checks that the later call returns
// its own reply: the sequencer's copy trailing a finished mutation
// (which keeps its waiter registered as lastMut), a hedged mutation's
// second answer, and a read's answer from a head that had already
// timed out.
func TestRecycledCallNeverSeesStaleReply(t *testing.T) {
	heads := []transport.Addr{"head0/joshua", "head1/joshua"}
	ep := &handEndpoint{sent: make(chan handSend, 8), recv: make(chan transport.Message, 8)}
	// A mutation is hedged after AttemptTimeout/16 = 10 ms; a read
	// waits the whole 160 ms on one head.
	c, err := NewClient(ClientConfig{Endpoint: ep, Heads: heads, AttemptTimeout: 160 * time.Millisecond, Rounds: 100, RedeemAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		job pbs.Job
		err error
	}
	// start runs one call and returns its request, the waiter serving
	// it, and where its result will land.
	start := func(call func() (pbs.Job, error)) (handSend, *waiter, chan result) {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			j, err := call()
			done <- result{j, err}
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
	submit := func() (pbs.Job, error) { return c.Submit(pbs.SubmitRequest{Name: "x", Hold: true}) }
	stat := func() (pbs.Job, error) { return c.Stat("1.c") }
	expect := func(what string, done chan result, name string) {
		t.Helper()
		r := <-done
		if r.err != nil || r.job.Name != name {
			t.Fatalf("%s returned %q, %v; want its own reply %q", what, r.job.Name, r.err, name)
		}
	}
	// cycle runs one mutation and one read, each answered at once, and
	// reports whether either reused w.
	cycle := func(tag string, w *waiter) bool {
		t.Helper()
		s, wm, done := start(submit)
		ep.reply(s.to, s.reqID, tag+"-m")
		expect(tag+" mutation", done, tag+"-m")
		s, wr, done := start(stat)
		ep.reply(s.to, s.reqID, tag+"-r")
		expect(tag+" read", done, tag+"-r")
		return wm == w || wr == w
	}
	// recycled runs cycles until one reuses w.
	recycled := func(what string, w *waiter) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if cycle(what+string(rune('a'+i)), w) {
				return
			}
		}
		t.Fatalf("%s: the waiter was never reused", what)
	}

	// The sequencer's copy trailing a finished mutation.
	s, w, done := start(submit)
	ep.reply(s.to, s.reqID, "first")
	expect("mutation", done, "first")
	ep.reply(heads[1], s.reqID, "trailing")
	recycled("after a trailing sequencer copy", w)

	// A hedged mutation answered by both heads.
	s, w, done = start(submit)
	hedge := <-ep.sent
	if hedge.reqID != s.reqID || hedge.to == s.to {
		t.Fatalf("hedge went to %s as %s; want the other head, %s", hedge.to, hedge.reqID, s.reqID)
	}
	ep.reply(hedge.to, s.reqID, "hedged")
	ep.reply(s.to, s.reqID, "duplicate")
	expect("hedged mutation", done, "hedged")
	recycled("after a hedged duplicate", w)

	// A read whose first head timed out and answers after the second.
	s, w, done = start(stat)
	retry := <-ep.sent
	ep.reply(retry.to, s.reqID, "retried")
	ep.reply(s.to, s.reqID, "late")
	expect("retried read", done, "retried")
	recycled("after a reply past the attempt timeout", w)
}
