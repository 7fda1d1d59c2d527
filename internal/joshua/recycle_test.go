package joshua

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// echoEndpoint answers every jsub and jstat with the same held job
// behind the request's ReqID. Each reply is its own buffer, as
// transport.Message's ownership rule requires: prepare encodes the
// replies to the next n IDs the client will mint before a measured
// loop, so the stub allocates nothing while a call is measured and
// what a call costs on it is the client's own cost. A request without
// a prepared reply gets a fresh encode. Calls must be sequential and
// the prober off.
type echoEndpoint struct {
	recv chan transport.Message
	job  pbs.Job
	// ready[i] answers the ReqID numbered from+i; last is the number
	// of the last ReqID sent.
	ready [][]byte
	from  uint64
	last  uint64
}

func newEchoEndpoint() *echoEndpoint {
	return &echoEndpoint{
		recv: make(chan transport.Message, 1),
		job:  pbs.Job{ID: "42.cluster", Seq: 42, Name: "bench", Owner: "bench", Script: "true\n", State: pbs.StateHeld, ArrayIdx: -1},
	}
}

func (e *echoEndpoint) Addr() transport.Addr { return "user/echo" }

// reply encodes the answer to reqID into a buffer of its own.
func (e *echoEndpoint) reply(reqID []byte) []byte {
	enc := codec.NewEncoder(256)
	putJobReply(enc, reqID, e.job, nil, 7)
	return enc.Bytes()
}

// prepare encodes the replies to the next n ReqIDs the client mints.
func (e *echoEndpoint) prepare(n int) {
	e.from, e.ready = e.last+1, make([][]byte, n)
	for i := range e.ready {
		e.ready[i] = e.reply(appendReqID(nil, e.Addr(), "", e.from+uint64(i)))
	}
}

func (e *echoEndpoint) Send(to transport.Addr, payload []byte) error {
	var v view
	if !v.header(codec.NewDecoder(payload)) {
		return nil
	}
	e.last = 0
	for _, c := range v.reqID[bytes.LastIndexByte(v.reqID, '#')+1:] {
		e.last = e.last*10 + uint64(c-'0')
	}
	var reply []byte
	if i := e.last - e.from; e.last >= e.from && i < uint64(len(e.ready)) {
		reply, e.ready[i] = e.ready[i], nil
	}
	if reply == nil {
		reply = e.reply(v.reqID)
	}
	e.recv <- transport.Message{From: to, To: e.Addr(), Payload: reply}
	return nil
}

func (e *echoEndpoint) Recv() <-chan transport.Message { return e.recv }
func (e *echoEndpoint) Close() error                   { return nil }

func newEchoClient(tb testing.TB) (*Client, *echoEndpoint) {
	ep := newEchoEndpoint()
	c, err := NewClient(ClientConfig{Endpoint: ep, Heads: []transport.Addr{"head0/joshua"}, RedeemAfter: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c, ep
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
// waiter, channel, timer and response are recycled: nothing. The
// ReqID is a substring of a block minted once per idBlock calls, and
// the returned job's fields are views into the reply.
func TestClientCallAllocs(t *testing.T) {
	c, ep := newEchoClient(t)
	for _, cc := range clientCalls {
		if j, err := cc.call(c); err != nil || j.ID != "42.cluster" || j.Name != "bench" {
			t.Fatalf("%s: %+v, %v", cc.name, j, err)
		}
		const runs = 200
		ep.prepare(runs + 1) // AllocsPerRun's warm-up call, then the runs
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := cc.call(c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs/op, want 0", cc.name, allocs)
		}
	}
}

func BenchmarkClientCall(b *testing.B) {
	for _, cc := range clientCalls {
		b.Run(cc.name, func(b *testing.B) {
			c, ep := newEchoClient(b)
			if _, err := cc.call(c); err != nil {
				b.Fatal(err)
			}
			// Replies are prepared in chunks, off the clock, to bound
			// the memory a long run holds.
			const chunk = 1024
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 {
					b.StopTimer()
					ep.prepare(min(chunk, b.N-i))
					b.StartTimer()
				}
				if _, err := cc.call(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStatResultOutlivesLaterCalls: a job a Stat returned over simnet
// keeps every field through 1,000 later calls on the same client,
// although its strings are views into the reply's datagram and the
// client recycles its responses, waiters and request encoders.
func TestStatResultOutlivesLaterCalls(t *testing.T) {
	r := newRawRig(t, 1, nil)
	// The client shares the head's host, so its calls pay no LAN latency.
	ep, err := r.net.Endpoint("head0/cli")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{Endpoint: ep, Heads: []transport.Addr{clientAddr(0)}, RedeemAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Submit(pbs.SubmitRequest{Name: "keep", Owner: "alice", Script: "#!/bin/sh\necho kept\n", Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Stat(sub.ID)
	if err != nil || got.ID != sub.ID {
		t.Fatalf("Stat(%s) = %+v, %v", sub.ID, got, err)
	}
	// want is a deep copy: a plain decode allocates fresh strings.
	enc := codec.NewEncoder(256)
	pbs.EncodeJob(enc, got)
	want := pbs.DecodeJob(codec.NewDecoder(enc.Bytes()))
	for i := 0; i < 1000; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, err = c.Submit(pbs.SubmitRequest{Name: fmt.Sprintf("later%d", i), Owner: "bob", Script: "true\n", Hold: true})
		case 1:
			_, err = c.Stat(sub.ID)
		case 2:
			_, err = c.StatAll()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Stat result changed under later calls:\n got %+v\nwant %+v", got, want)
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
