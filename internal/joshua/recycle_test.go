package joshua

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"

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
	// of the last ReqID sent, and prefix what precedes the number in
	// the client's IDs, "<inc>.".
	ready  [][]byte
	from   uint64
	last   uint64
	prefix []byte
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
		e.ready[i] = e.reply(strconv.AppendUint(slices.Clip(e.prefix), e.from+uint64(i), 10))
	}
}

func (e *echoEndpoint) Send(to transport.Addr, payload []byte) error {
	var v view
	if !v.header(codec.NewDecoder(payload)) {
		return nil
	}
	dot := bytes.LastIndexByte(v.reqID, '.') + 1
	if e.prefix == nil {
		e.prefix = bytes.Clone(v.reqID[:dot])
	}
	e.last = 0
	for _, c := range v.reqID[dot:] {
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
