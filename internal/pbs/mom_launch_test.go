package pbs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"joshua/internal/transport"
)

// The tests in this file drive a Mom through a stub endpoint whose
// receive channel is unbuffered: once the test has handed the mom one
// datagram, the mom has finished handling every earlier one. So they
// need no sleeps and assert no durations.

var launchHeads = []transport.Addr{"head0/pbs", "head1/pbs", "head2/pbs"}

// stubEndpoint feeds the mom's receive loop by hand and records what
// the mom sends.
type stubEndpoint struct {
	in   chan transport.Message
	sent chan transport.Message
	once sync.Once
}

func (e *stubEndpoint) Addr() transport.Addr { return "compute0/mom" }

func (e *stubEndpoint) Send(to transport.Addr, payload []byte) error {
	e.sent <- transport.Message{From: e.Addr(), To: to, Payload: bytes.Clone(payload)}
	return nil
}

func (e *stubEndpoint) Recv() <-chan transport.Message { return e.in }

func (e *stubEndpoint) Close() error {
	e.once.Do(func() { close(e.in) })
	return nil
}

// launchRig is one mom serving launchHeads, with report resends an
// hour apart so that every report it sends answers a test's message.
type launchRig struct {
	mom *Mom
	ep  *stubEndpoint
	job Job
}

func newLaunchRig(t *testing.T, prologue func(Job) (bool, error)) *launchRig {
	t.Helper()
	// sent holds more than any test here sends, so Send never blocks
	// the mom.
	ep := &stubEndpoint{in: make(chan transport.Message), sent: make(chan transport.Message, 64)}
	mom := StartMom(MomConfig{
		Name:           "compute0",
		Endpoint:       ep,
		Servers:        launchHeads,
		Prologue:       prologue,
		ReportInterval: time.Hour,
	})
	t.Cleanup(mom.Close)
	return &launchRig{mom: mom, ep: ep, job: Job{ID: "1.cluster", Name: "j", Script: "echo hi", Nodes: []string{"compute0"}}}
}

// deliver hands the mom one datagram from a head.
func (r *launchRig) deliver(from transport.Addr, msg *momMsg) {
	r.ep.in <- transport.Message{From: from, To: r.ep.Addr(), Payload: msg.encode()}
}

func (r *launchRig) start(from transport.Addr) {
	j := r.job
	r.deliver(from, &momMsg{Kind: momKindStart, JobID: j.ID, Name: j.Name, Script: j.Script, Nodes: j.Nodes})
}

func (r *launchRig) ack(from transport.Addr) {
	r.deliver(from, &momMsg{Kind: momKindDoneAck, JobID: r.job.ID})
}

// sync returns once the mom has handled everything delivered before:
// an ack for a job it never saw changes nothing.
func (r *launchRig) sync() {
	r.deliver(launchHeads[0], &momMsg{Kind: momKindDoneAck, JobID: "0.none"})
}

// nextSend waits for the mom's next datagram.
func (r *launchRig) nextSend(t *testing.T) transport.Message {
	t.Helper()
	select {
	case m := <-r.ep.sent:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the mom to send")
		return transport.Message{}
	}
}

// reportsToAll waits for the completion report to every head and
// returns it.
func (r *launchRig) reportsToAll(t *testing.T) []byte {
	t.Helper()
	var report []byte
	for range launchHeads {
		m := r.nextSend(t)
		msg, err := decodeMomMsg(m.Payload)
		if err != nil || msg.Kind != momKindDone || msg.JobID != r.job.ID {
			t.Fatalf("mom sent %+v (%v), want the completion report", msg, err)
		}
		report = m.Payload
	}
	return report
}

// state reads the job's state; a job the mom has not handled a start
// for yet reads as none.
func (r *launchRig) state() momState {
	r.mom.mu.Lock()
	defer r.mom.mu.Unlock()
	if j := r.mom.jobs[r.job.ID]; j != nil {
		return j.state
	}
	return momNone
}

func (r *launchRig) owed() int {
	r.mom.mu.Lock()
	defer r.mom.mu.Unlock()
	return len(r.mom.owed)
}

// scriptedPrologue answers the calls in order and counts them.
type scriptedPrologue struct {
	mu      sync.Mutex
	calls   int
	answers []func() (bool, error)
}

func (p *scriptedPrologue) run(Job) (bool, error) {
	p.mu.Lock()
	answer := p.answers[min(p.calls, len(p.answers)-1)]
	p.calls++
	p.mu.Unlock()
	return answer()
}

func (p *scriptedPrologue) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func grant() (bool, error)  { return true, nil }
func refuse() (bool, error) { return false, nil }

// TestStartsFoldOntoOnePrologue: every head's start arrives while the
// prologue blocks; the job costs one prologue call and runs once.
func TestStartsFoldOntoOnePrologue(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	p := &scriptedPrologue{answers: []func() (bool, error){func() (bool, error) {
		close(entered)
		<-release
		return true, nil
	}}}
	r := newLaunchRig(t, p.run)
	r.start(launchHeads[0])
	<-entered
	r.start(launchHeads[1])
	r.start(launchHeads[2])
	r.start(launchHeads[0]) // the first head's own retransmission
	r.sync()
	close(release)
	r.reportsToAll(t)
	if n := p.count(); n != 1 {
		t.Errorf("prologue ran %d times for 4 starts, want 1", n)
	}
	if n := r.mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestPrologueErrorRetriesOnNextStart: an unreachable lock service
// leaves the job as if no start had arrived, so the heads' next start
// retransmission runs the prologue again, and the job runs once.
func TestPrologueErrorRetriesOnNextStart(t *testing.T) {
	p := &scriptedPrologue{answers: []func() (bool, error){
		func() (bool, error) { return false, errors.New("lock service unreachable") },
		grant,
	}}
	r := newLaunchRig(t, p.run)
	r.start(launchHeads[0])
	waitFor(t, "the failed prologue to return the job to none", func() bool {
		return p.count() == 1 && r.state() == momNone
	})
	if n := r.mom.Executions(); n != 0 {
		t.Fatalf("executions = %d after a failed prologue, want 0", n)
	}
	r.start(launchHeads[1])
	r.reportsToAll(t)
	r.start(launchHeads[2])
	r.sync()
	if n := p.count(); n != 2 {
		t.Errorf("prologue ran %d times, want 2 (the failure and its retry)", n)
	}
	if n := r.mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestPrologueRefusalIsFinal: once another node holds the lock, no
// later start from any head runs the prologue again.
func TestPrologueRefusalIsFinal(t *testing.T) {
	p := &scriptedPrologue{answers: []func() (bool, error){refuse, grant}}
	r := newLaunchRig(t, p.run)
	r.start(launchHeads[0])
	waitFor(t, "the refusal", func() bool { return r.state() == momEmulated })
	for _, h := range launchHeads {
		r.start(h)
	}
	r.sync()
	if n := p.count(); n != 1 {
		t.Errorf("prologue ran %d times, want 1", n)
	}
	if n := r.mom.Executions(); n != 0 {
		t.Errorf("executions = %d on the refused node, want 0", n)
	}
	select {
	case m := <-r.ep.sent:
		t.Errorf("the refused node sent %d bytes to %s", len(m.Payload), m.To)
	default:
	}
}

// TestStartAfterFinishResendsReport: a head that missed the report and
// retransmits its start gets the report back directly.
func TestStartAfterFinishResendsReport(t *testing.T) {
	p := &scriptedPrologue{answers: []func() (bool, error){grant}}
	r := newLaunchRig(t, p.run)
	r.start(launchHeads[0])
	report := r.reportsToAll(t)
	r.start(launchHeads[1])
	m := r.nextSend(t)
	if m.To != launchHeads[1] || !bytes.Equal(m.Payload, report) {
		t.Errorf("late start got %q to %s, want the report to %s", m.Payload, m.To, launchHeads[1])
	}
	if n := p.count(); n != 1 {
		t.Errorf("prologue ran %d times, want 1", n)
	}
}

// TestOwedReportsEmptyOnceAcked: a finished job stays in the set the
// resend tick walks until every head has acked its report, and leaves
// it then; duplicate and unknown acks change nothing.
func TestOwedReportsEmptyOnceAcked(t *testing.T) {
	r := newLaunchRig(t, nil)
	r.start(launchHeads[0])
	r.reportsToAll(t)
	r.ack(launchHeads[0])
	r.ack(launchHeads[0])
	r.ack(launchHeads[2])
	r.ack("stranger/pbs")
	r.sync()
	if n := r.owed(); n != 1 {
		t.Fatalf("owed = %d with head1 unacked, want 1", n)
	}
	r.ack(launchHeads[1])
	r.sync()
	if n := r.owed(); n != 0 {
		t.Fatalf("owed = %d after every head acked, want 0", n)
	}
	if st := r.state(); st != momFinished {
		t.Fatalf("state = %d, want finished", st)
	}
}

// TestDuplicateStartAndAckAllocs: a start for a job already under way
// and a done-ack are handled from the kind and the job ID alone,
// without copying the job out of the datagram.
func TestDuplicateStartAndAckAllocs(t *testing.T) {
	r := newLaunchRig(t, func(Job) (bool, error) { return refuse() })
	r.start(launchHeads[0])
	waitFor(t, "the refusal", func() bool { return r.state() == momEmulated })
	j := r.job
	start := transport.Message{From: launchHeads[1], Payload: (&momMsg{Kind: momKindStart, JobID: j.ID, Name: j.Name, Script: j.Script, Nodes: j.Nodes}).encode()}
	ack := transport.Message{From: launchHeads[1], Payload: (&momMsg{Kind: momKindDoneAck, JobID: j.ID}).encode()}
	// The receive loop is idle, so handling here races nothing.
	if n := testing.AllocsPerRun(100, func() { r.mom.handle(start) }); n != 0 {
		t.Errorf("duplicate start: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.mom.handle(ack) }); n != 0 {
		t.Errorf("done-ack: %.1f allocations, want 0", n)
	}
}
