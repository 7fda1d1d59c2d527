package pbs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/transport"
)

// The tests in this file drive a Mom through a stub endpoint whose
// receive channel is unbuffered: once the test has handed the mom one
// datagram, the mom has finished handling every earlier one. Its
// Complete hook is scripted and signals each call. So they assert no
// durations, and wait a fixed time only to see that a retry does not
// come.

var launchHeads = []transport.Addr{"head0/pbs", "head1/pbs", "head2/pbs"}

// stubEndpoint feeds the mom's receive loop by hand and records what
// the mom sends, unless discard is set.
type stubEndpoint struct {
	in      chan transport.Message
	sent    chan transport.Message
	discard atomic.Bool
	once    sync.Once
}

func (e *stubEndpoint) Addr() transport.Addr { return "compute0/mom" }

func (e *stubEndpoint) Send(to transport.Addr, payload []byte) error {
	if e.discard.Load() {
		return nil
	}
	e.sent <- transport.Message{From: e.Addr(), To: to, Payload: bytes.Clone(payload)}
	return nil
}

func (e *stubEndpoint) Recv() <-chan transport.Message { return e.in }

func (e *stubEndpoint) Close() error {
	e.once.Do(func() { close(e.in) })
	return nil
}

// scriptedComplete answers the Complete calls in order, repeating its
// last answer, and signals each call on calls.
type scriptedComplete struct {
	answers []func() error
	calls   chan struct{}

	mu sync.Mutex
	n  int
}

func newScriptedComplete(answers ...func() error) *scriptedComplete {
	// calls holds more signals than any test here waits for, so the hook
	// never blocks the mom.
	return &scriptedComplete{answers: answers, calls: make(chan struct{}, 64)}
}

func (c *scriptedComplete) run(Job, int, string) error {
	c.mu.Lock()
	answer := c.answers[min(c.n, len(c.answers)-1)]
	c.n++
	c.mu.Unlock()
	err := answer()
	c.calls <- struct{}{}
	return err
}

func (c *scriptedComplete) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// await waits for the hook's next return.
func (c *scriptedComplete) await(t *testing.T) {
	t.Helper()
	select {
	case <-c.calls:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the Complete hook")
	}
}

func accept() error      { return nil }
func unreachable() error { return errors.New("heads unreachable") }
func refuseOtherNode() error {
	return fmt.Errorf("%w: compute0 reported job 1.cluster", ErrNotFirstNode)
}

// launchRig is one mom, compute0, serving launchHeads.
type launchRig struct {
	mom *Mom
	ep  *stubEndpoint
	job Job
}

func newLaunchRig(t *testing.T, complete *scriptedComplete) *launchRig {
	t.Helper()
	// sent holds more than any test here could send, so Send never
	// blocks the mom.
	ep := &stubEndpoint{in: make(chan transport.Message), sent: make(chan transport.Message, 64)}
	mom := StartMom(MomConfig{Name: "compute0", Endpoint: ep, Complete: complete.run})
	t.Cleanup(mom.Close)
	return &launchRig{mom: mom, ep: ep, job: Job{ID: "1.cluster", Name: "j", Script: "echo hi", Nodes: []string{"compute0"}}}
}

// deliver hands the mom one datagram from a head.
func (r *launchRig) deliver(from transport.Addr, frame []byte) {
	r.ep.in <- transport.Message{From: from, To: r.ep.Addr(), Payload: frame}
}

func (r *launchRig) start(from transport.Addr) {
	r.deliver(from, encodeStart(&r.job))
}

// sync returns once the mom has handled everything delivered before:
// a kill for a job it never saw changes nothing.
func (r *launchRig) sync() {
	r.deliver(launchHeads[0], encodeKill("0.none"))
}

// state reads the job's state; ok is false for a job the mom has not
// handled a start for.
func (r *launchRig) state() (st momState, ok bool) {
	r.mom.mu.Lock()
	defer r.mom.mu.Unlock()
	if j := r.mom.jobs[r.job.ID]; j != nil {
		return j.state, true
	}
	return 0, false
}

// acks checks that the mom sent exactly one started frame for the job
// to each of heads, in order, and nothing else.
func (r *launchRig) acks(t *testing.T, heads ...transport.Addr) {
	t.Helper()
	for _, h := range heads {
		select {
		case m := <-r.ep.sent:
			if id, ok := decodeStarted(m.Payload); !ok || JobID(id) != r.job.ID || m.To != h {
				t.Errorf("the mom sent %q to %s, want the ack of %s to %s", m.Payload, m.To, r.job.ID, h)
			}
		default:
			t.Errorf("no ack of %s to %s", r.job.ID, h)
		}
	}
	r.noSends(t)
}

// noSends fails the test if the mom sent anything more.
func (r *launchRig) noSends(t *testing.T) {
	t.Helper()
	select {
	case m := <-r.ep.sent:
		t.Errorf("the mom sent %d bytes to %s", len(m.Payload), m.To)
	default:
	}
}

// TestStartsFoldOntoOnePrologue: a start from each of three heads, as
// across a view change, and a retransmission arrive while the job
// runs, and one more after it ends; the job executes once and
// completes once, and each repeat that came while it ran is acked to
// its sender. (The name is from when the fold ran a prologue; the fold
// is the same, onto the first start's run.)
func TestStartsFoldOntoOnePrologue(t *testing.T) {
	c := newScriptedComplete(accept)
	r := newLaunchRig(t, c)
	r.job.WallTime = time.Hour
	r.start(launchHeads[0])
	r.start(launchHeads[1])
	r.start(launchHeads[2])
	r.start(launchHeads[0]) // the first head's own retransmission
	r.sync()
	r.acks(t, launchHeads[1], launchHeads[2], launchHeads[0])
	r.deliver(launchHeads[0], encodeKill(r.job.ID))
	c.await(t)
	r.start(launchHeads[1])
	r.sync()
	if n := c.count(); n != 1 {
		t.Errorf("Complete ran %d times for 5 starts, want 1", n)
	}
	if n := r.mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	r.noSends(t)
}

// TestSisterNodeEmulates: a node that is not the job's first emulates
// the starts from every head, acks each repeat, ignores the kill, and never
// completes the job.
func TestSisterNodeEmulates(t *testing.T) {
	c := newScriptedComplete(accept)
	r := newLaunchRig(t, c)
	r.job.Nodes = []string{"compute1", "compute0"}
	for _, h := range launchHeads {
		r.start(h)
	}
	r.deliver(launchHeads[0], encodeKill(r.job.ID))
	r.sync()
	if st, ok := r.state(); !ok || st != momEmulated {
		t.Errorf("state = %d (known %v), want emulated", st, ok)
	}
	if n := r.mom.Executions(); n != 0 {
		t.Errorf("executions = %d on a sister node, want 0", n)
	}
	if n := c.count(); n != 0 {
		t.Errorf("Complete ran %d times on a sister node, want 0", n)
	}
	if ids := r.mom.RunningJobs(); len(ids) != 0 {
		t.Errorf("RunningJobs = %v on a sister node, want none", ids)
	}
	r.acks(t, launchHeads[1], launchHeads[2])
}

// TestStartAfterFinishSendsNothing: a head retransmitting its start
// after the job finished gets nothing back, and the job neither runs
// nor completes again; its completion travels the total order.
func TestStartAfterFinishSendsNothing(t *testing.T) {
	c := newScriptedComplete(accept)
	r := newLaunchRig(t, c)
	r.start(launchHeads[0])
	c.await(t)
	for _, h := range launchHeads {
		r.start(h)
	}
	r.sync()
	if st, _ := r.state(); st != momFinished {
		t.Errorf("state = %d, want finished", st)
	}
	if n := c.count(); n != 1 {
		t.Errorf("Complete ran %d times, want 1", n)
	}
	if n := r.mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	r.noSends(t)
}

// TestReportRetransmitBackoff: a completion the heads did not answer
// is retried, at doubling gaps, until one answers; the job still runs
// once.
func TestReportRetransmitBackoff(t *testing.T) {
	c := newScriptedComplete(unreachable, unreachable, accept)
	r := newLaunchRig(t, c)
	r.start(launchHeads[0])
	for range 3 {
		c.await(t)
	}
	r.start(launchHeads[1])
	r.sync()
	if n := c.count(); n != 3 {
		t.Errorf("Complete ran %d times, want 3 (two failures, then the answer)", n)
	}
	if n := r.mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestCompletionRefusalIsFinal: once the heads refuse a completion, the
// mom does not send it again.
func TestCompletionRefusalIsFinal(t *testing.T) {
	c := newScriptedComplete(refuseOtherNode, accept)
	r := newLaunchRig(t, c)
	r.start(launchHeads[0])
	c.await(t)
	// A retry would come one completeRetry after the refusal.
	select {
	case <-c.calls:
		t.Errorf("Complete ran %d times after a refusal, want 1", c.count())
	case <-time.After(3 * completeRetry):
	}
}

// TestCloseStopsCompletionRetry: closing the mom ends the retries of a
// completion no head answers.
func TestCloseStopsCompletionRetry(t *testing.T) {
	c := newScriptedComplete(unreachable)
	r := newLaunchRig(t, c)
	r.start(launchHeads[0])
	c.await(t)
	c.await(t)
	r.mom.Close()
	n := c.count()
	// The next retry would come 2 × completeRetry after the second call.
	time.Sleep(4 * completeRetry)
	if got := c.count(); got != n {
		t.Errorf("Complete ran %d more times after Close, want 0", got-n)
	}
}

// TestDuplicateStartAndAckAllocs: a start for a job already under way
// is handled from the kind and the job ID alone, without copying the
// job out of the datagram, and acked from a reused buffer. The stub
// discards the acks, so only the mom's own allocations count.
func TestDuplicateStartAndAckAllocs(t *testing.T) {
	r := newLaunchRig(t, newScriptedComplete(accept))
	r.job.Nodes = []string{"compute1", "compute0"} // emulated: no run to race
	r.start(launchHeads[0])
	r.sync()
	r.ep.discard.Store(true)
	start := transport.Message{From: launchHeads[1], Payload: encodeStart(&r.job)}
	// The receive loop is idle, so handling here races nothing.
	if n := testing.AllocsPerRun(100, func() { r.mom.handle(start) }); n != 0 {
		t.Errorf("duplicate start and ack: %.1f allocations, want 0", n)
	}
}

// TestDecodeStartViewsPayload: a start datagram decodes into the job
// it encodes but its node list, and that list's first node, with
// every string a view into the datagram (overwriting the datagram
// shows through each) and no allocation. The mom may keep such views
// only because the transport hands it every received Payload to own.
func TestDecodeStartViewsPayload(t *testing.T) {
	sent := Job{ID: "7.cluster", Name: "sim", Owner: "alice", Script: "#!/bin/sh\ntrue\n",
		WallTime: 90 * time.Second, Nodes: []string{"compute0", "compute1"}}
	payload := encodeStart(&sent)
	if n := testing.AllocsPerRun(100, func() { decodeStart(payload) }); n != 0 {
		t.Errorf("decodeStart: %.1f allocations, want 0", n)
	}
	got, first, ok := decodeStart(payload)
	want := sent
	want.Nodes = nil
	if !ok || !reflect.DeepEqual(got, want) || first != "compute0" {
		t.Fatalf("decodeStart = %+v, %q, %v; want %+v, %q", got, first, ok, want, "compute0")
	}
	for i := range payload {
		payload[i] = 'X'
	}
	for _, s := range []string{string(got.ID), got.Name, got.Owner, got.Script, first} {
		if strings.Trim(s, "X") != "" {
			t.Errorf("%q did not change with the datagram: a copy, not a view", s)
		}
	}
}
