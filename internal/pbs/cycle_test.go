package pbs

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

// discardEndpoint drops every datagram without copying it.
type discardEndpoint struct{}

func (discardEndpoint) Addr() transport.Addr              { return "head0/pbs" }
func (discardEndpoint) Send(transport.Addr, []byte) error { return nil }
func (discardEndpoint) Recv() <-chan transport.Message    { return nil }
func (discardEndpoint) Close() error                      { return nil }

// jobCycle is one whole job on a daemon whose endpoint copies nothing:
// a runnable submit that the scheduler places at once, its start
// frame, and the completion its node reports, read from bytes the way
// a head reads it from a jdone.
type jobCycle struct {
	d     *Daemon
	req   SubmitRequest
	id    []byte
	node  []byte
	jobID JobID
}

func newJobCycle(tb testing.TB) *jobCycle {
	srv := NewServer(Config{ServerName: "cluster", Nodes: []string{"c0", "c1"}, KeepCompleted: 64})
	d := NewDaemon(srv, DaemonConfig{
		Endpoint:       discardEndpoint{},
		Moms:           map[string]transport.Addr{"c0": "c0/mom", "c1": "c1/mom"},
		ResendInterval: time.Hour,
	})
	tb.Cleanup(d.Close)
	return &jobCycle{d: d, req: SubmitRequest{Name: "cycle", Owner: "bench", Script: "echo run\n", WallTime: time.Second}, node: []byte("c0")}
}

func (c *jobCycle) run(tb testing.TB) {
	j, err := c.d.Submit(c.req)
	if err != nil || len(j.Nodes) != 1 || j.Nodes[0] != "c0" {
		tb.Fatalf("submit: %+v, %v", j, err)
	}
	c.id = append(c.id[:0], j.ID...)
	if err := c.d.ApplyDone(c.id, c.node, 0, nil); err != nil {
		tb.Fatal(err)
	}
	c.jobID = j.ID
}

// TestJobCycleAllocs pins what a job costs the daemon from submit to
// completion: the job and the one string of its encoding, which the
// server keeps, and the start frame, which the daemon keeps for
// resends until the completion. The start action, the one-node job's
// node list (its node's shared one), the node's allocation record, the
// scheduler's scratch and the eligible index allocate nothing.
func TestJobCycleAllocs(t *testing.T) {
	c := newJobCycle(t)
	for i := 0; i < 100; i++ { // fill the completed history
		c.run(t)
	}
	if allocs := testing.AllocsPerRun(500, func() { c.run(t) }); allocs > 3 {
		t.Errorf("job cycle: %v allocs/job, want <= 3", allocs)
	}
	if st, err := c.d.Status(c.jobID); err != nil || st.State != StateCompleted {
		t.Fatalf("last job: %+v, %v", st, err)
	}
}

func BenchmarkJobCycle(b *testing.B) {
	c := newJobCycle(b)
	for i := 0; i < 100; i++ {
		c.run(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.run(b)
	}
}

// momRetainBudget bounds the heap a mom keeps per job it finished. The
// table is never pruned, so every finished job keeps its entry: a
// shared tombstone under a key of its own.
const momRetainBudget = 160

// TestMomFinishedJobRetainsLittle runs 10,000 one-node jobs through a
// mom and measures the heap that survives them: each finished job
// must keep no more than momRetainBudget bytes.
func TestMomFinishedJobRetainsLittle(t *testing.T) {
	const jobs = 10000
	ep := &stubEndpoint{in: make(chan transport.Message, 64), sent: make(chan transport.Message, 1)}
	var finished atomic.Int64
	done := make(chan struct{})
	mom := StartMom(MomConfig{Name: "compute0", Endpoint: ep, Complete: func(Job, int, string) error {
		if finished.Add(1) == jobs {
			close(done)
		}
		return nil
	}})
	defer mom.Close()
	// The start datagram, written field by field.
	start := func(i int) []byte {
		e := codec.NewEncoder(128)
		e.PutByte(momKindStart)
		e.PutString(fmt.Sprintf("%d.cluster", i))
		e.PutString("retain")
		e.PutString("user01")
		e.PutString("#PBS -q batch\necho run\n")
		e.PutDuration(0)
		e.PutStringSlice([]string{"compute0"})
		return e.Bytes()
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < jobs; i++ {
		ep.in <- transport.Message{From: "head0/pbs", Payload: start(i)}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d of %d jobs finished", finished.Load(), jobs)
	}
	per := float64(int64(heap())-int64(before)) / jobs
	t.Logf("retained heap: %.0f B per finished job", per)
	if per > momRetainBudget {
		t.Errorf("retained heap: %.0f B per finished job, want <= %d", per, momRetainBudget)
	}
	if got := mom.Executions(); got != jobs {
		t.Errorf("executions = %d, want %d", got, jobs)
	}
}
