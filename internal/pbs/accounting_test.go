package pbs

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func acctServer(sink AccountingSink) *Server {
	return NewServer(Config{
		ServerName: "cluster",
		Nodes:      []string{"c0", "c1"},
		Exclusive:  true,
		Clock:      fixedClock(),
		Accounting: sink,
	})
}

func recordTypes(rs []AccountingRecord) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteByte(r.Type)
	}
	return b.String()
}

func TestAccountingLifecycle(t *testing.T) {
	sink := &MemoryAccounting{}
	s := acctServer(sink)

	j, _ := s.Submit(SubmitRequest{Name: "acct", Owner: "alice", WallTime: time.Minute})
	s.TakeActions()
	s.JobDone(j.ID, 0, "")

	got := recordTypes(sink.ForJob(j.ID))
	if got != "QSE" {
		t.Fatalf("record sequence = %q, want QSE", got)
	}
	end := sink.ForJob(j.ID)[2]
	if end.Attrs["exit_status"] != "0" || end.Attrs["exec_host"] != "c0" {
		t.Errorf("end record attrs = %v", end.Attrs)
	}
	if end.Attrs["user"] != "alice" || end.Attrs["jobname"] != "acct" {
		t.Errorf("common attrs = %v", end.Attrs)
	}
}

func TestAccountingHoldReleaseDelete(t *testing.T) {
	sink := &MemoryAccounting{}
	s := acctServer(sink)

	blocker, _ := s.Submit(SubmitRequest{})
	s.TakeActions()

	j, _ := s.Submit(SubmitRequest{})
	s.Hold([]byte(j.ID))
	s.Hold([]byte(j.ID)) // idempotent: no second H record
	s.Release([]byte(j.ID))
	s.Delete([]byte(j.ID))
	if got := recordTypes(sink.ForJob(j.ID)); got != "QHRD" {
		t.Fatalf("record sequence = %q, want QHRD", got)
	}

	// Held submit records Q then H.
	h, _ := s.Submit(SubmitRequest{Hold: true})
	if got := recordTypes(sink.ForJob(h.ID)); got != "QH" {
		t.Fatalf("held submit sequence = %q, want QH", got)
	}

	// Deleting a running job records D, then E when the kill lands.
	s.Delete([]byte(blocker.ID))
	s.JobDone(blocker.ID, ExitCodeKilled, "")
	if got := recordTypes(sink.ForJob(blocker.ID)); got != "QSDE" {
		t.Fatalf("running-delete sequence = %q, want QSDE", got)
	}
}

// goldenScenario drives one job through every record type on a
// UTC clock: a two-node job queued, started, deleted while running and
// killed (Q S D E), a held job released and deleted (Q H R D), and an
// unnamed job that exits 3 (Q S E).
func goldenScenario(sink AccountingSink) {
	at := time.Date(2026, 7, 6, 12, 34, 56, 0, time.UTC)
	s := NewServer(Config{
		ServerName: "cluster",
		Nodes:      []string{"c0", "c1", "c2"},
		Exclusive:  true,
		Clock:      func() time.Time { at = at.Add(time.Second); return at },
		Accounting: sink,
	})
	multi, _ := s.Submit(SubmitRequest{Name: "multi", Owner: "alice", NodeCount: 2, WallTime: 90 * time.Minute})
	s.TakeActions()
	held, _ := s.Submit(SubmitRequest{Name: "held", Owner: "bob", Hold: true, WallTime: 123*time.Hour + 245*time.Second})
	s.Release([]byte(held.ID))
	s.Delete([]byte(held.ID))
	s.Delete([]byte(multi.ID))
	s.JobDone(multi.ID, ExitCodeKilled, "")
	anon, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	s.JobDone(anon.ID, 3, "")
}

// goldenLines are goldenScenario's accounting lines as the map-based
// records rendered them, attributes in sorted key order.
var goldenLines = []string{
	"07/06/2026 12:34:57;Q;1.cluster;jobname=multi nodect=2 user=alice walltime=01:30:00",
	"07/06/2026 12:34:58;S;1.cluster;exec_host=c0+c1 jobname=multi nodect=2 user=alice walltime=01:30:00",
	"07/06/2026 12:34:59;Q;2.cluster;jobname=held nodect=1 user=bob walltime=123:04:05",
	"07/06/2026 12:35:00;H;2.cluster;jobname=held nodect=1 user=bob walltime=123:04:05",
	"07/06/2026 12:35:01;R;2.cluster;jobname=held nodect=1 user=bob walltime=123:04:05",
	"07/06/2026 12:35:02;D;2.cluster;jobname=held nodect=1 user=bob walltime=123:04:05",
	"07/06/2026 12:35:03;D;1.cluster;jobname=multi nodect=2 user=alice walltime=01:30:00",
	"07/06/2026 12:35:04;E;1.cluster;exec_host=c0+c1 exit_status=-271 jobname=multi nodect=2 user=alice walltime=01:30:00",
	"07/06/2026 12:35:05;Q;3.cluster;jobname=STDIN nodect=1 user= walltime=00:00:00",
	"07/06/2026 12:35:06;S;3.cluster;exec_host=c0 jobname=STDIN nodect=1 user= walltime=00:00:00",
	"07/06/2026 12:35:07;E;3.cluster;exec_host=c0 exit_status=3 jobname=STDIN nodect=1 user= walltime=00:00:00",
}

// TestAccountingLineFormat pins Line and the WriterAccounting log to
// goldenLines for every record type, a multi-node exec_host and
// ExitCodeKilled included.
func TestAccountingLineFormat(t *testing.T) {
	mem := &MemoryAccounting{}
	goldenScenario(mem)
	recs := mem.Records()
	if len(recs) != len(goldenLines) {
		t.Fatalf("%d records, want %d", len(recs), len(goldenLines))
	}
	for i, r := range recs {
		if got := r.Line(); got != goldenLines[i] {
			t.Errorf("record %d Line() =\n  %q, want\n  %q", i, got, goldenLines[i])
		}
	}

	var buf bytes.Buffer
	goldenScenario(NewWriterAccounting(&buf))
	if want := strings.Join(goldenLines, "\n") + "\n"; buf.String() != want {
		t.Errorf("WriterAccounting log =\n%s\nwant\n%s", buf.String(), want)
	}
}

// TestAccountingAttrsOnRead checks that Records and ForJob render
// exactly the attributes the golden lines print: user, jobname, nodect
// and walltime on every record, exec_host on S and E, exit_status on
// E.
func TestAccountingAttrsOnRead(t *testing.T) {
	mem := &MemoryAccounting{}
	goldenScenario(mem)
	byJob := map[JobID][]map[string]string{}
	for i, r := range mem.Records() {
		want := map[string]string{}
		attrs := goldenLines[i][strings.LastIndexByte(goldenLines[i], ';')+1:]
		for _, kv := range strings.Split(attrs, " ") {
			k, v, _ := strings.Cut(kv, "=")
			want[k] = v
		}
		if !reflect.DeepEqual(r.Attrs, want) {
			t.Errorf("record %d (%c) Attrs = %v, want %v", i, r.Type, r.Attrs, want)
		}
		byJob[r.Job] = append(byJob[r.Job], want)
	}
	for id, want := range byJob {
		var got []map[string]string
		for _, r := range mem.ForJob(id) {
			got = append(got, r.Attrs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ForJob(%s) Attrs = %v, want %v", id, got, want)
		}
	}
}

// TestHeldSubmitAllocs pins a held submit with an accounting sink and
// an IDFilter to the job and the one string of its encoding, which
// holds its ID: the Q and H records, the ID filter (shown a candidate
// in scratch) and the slice and map growth amortized over the runs
// allocate nothing.
func TestHeldSubmitAllocs(t *testing.T) {
	s := heldSubmitServer()
	req := SubmitRequest{Name: "bench", Owner: "bench", Hold: true}
	if allocs := testing.AllocsPerRun(2000, func() { _, _ = s.Submit(req) }); allocs > 2 {
		t.Errorf("held Submit: %v allocs/op, want <= 2", allocs)
	}
}

// TestWriterAccountingAllocs pins WriterAccounting's steady state: the
// line is formatted into the sink's reused buffer.
func TestWriterAccountingAllocs(t *testing.T) {
	w, r := NewWriterAccounting(io.Discard), endRecord()
	w.Record(r)
	if allocs := testing.AllocsPerRun(1000, func() { w.Record(r) }); allocs > 1 {
		t.Errorf("WriterAccounting.Record: %v allocs/op, want <= 1", allocs)
	}
}

// heldSubmitServer is a server with a MemoryAccounting sink and an
// IDFilter that accepts every ID.
func heldSubmitServer() *Server {
	return NewServer(Config{
		ServerName: "cluster",
		Nodes:      []string{"c0"},
		Accounting: &MemoryAccounting{},
		IDFilter:   func(JobID) bool { return true },
	})
}

// endRecord is an E record of a killed two-node job.
func endRecord() AccountingRecord {
	return AccountingRecord{
		Time: time.Date(2026, 7, 6, 12, 34, 56, 0, time.UTC), Type: AcctEnded, Job: "17.cluster",
		User: "alice", JobName: "sim", NodeCount: 2, WallTime: time.Hour,
		ExecHost: []string{"c0", "c1"}, ExitStatus: ExitCodeKilled,
	}
}

func BenchmarkHeldSubmit(b *testing.B) {
	s := heldSubmitServer()
	req := SubmitRequest{Name: "bench", Owner: "bench", Hold: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = s.Submit(req)
	}
}

func BenchmarkWriterAccounting(b *testing.B) {
	w, r := NewWriterAccounting(io.Discard), endRecord()
	w.Record(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Record(r)
	}
}

func TestWriterAccounting(t *testing.T) {
	var buf bytes.Buffer
	s := acctServer(NewWriterAccounting(&buf))
	j, _ := s.Submit(SubmitRequest{Name: "w", Owner: "bob"})
	s.TakeActions()
	s.JobDone(j.ID, 3, "")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], ";Q;1.cluster;") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[2], "exit_status=3") {
		t.Errorf("line 2 = %q", lines[2])
	}
}

func TestAccountingDisabledByDefault(t *testing.T) {
	s := testServer() // no sink configured
	j, _ := s.Submit(SubmitRequest{})
	s.TakeActions()
	s.JobDone(j.ID, 0, "") // must not panic with nil sink
}

func TestAccountingIdenticalAcrossReplicas(t *testing.T) {
	// Two replicas fed the same command stream produce identical
	// accounting (modulo timestamps, which the fixed clock equalizes).
	mk := func() (*Server, *MemoryAccounting) {
		m := &MemoryAccounting{}
		return acctServer(m), m
	}
	a, am := mk()
	b, bm := mk()
	drive := func(s *Server) {
		j1, _ := s.Submit(SubmitRequest{Name: "x", Owner: "u"})
		s.TakeActions()
		j2, _ := s.Submit(SubmitRequest{Name: "y", Owner: "u", Hold: true})
		s.Release([]byte(j2.ID))
		s.JobDone(j1.ID, 0, "")
		s.TakeActions()
		s.JobDone(j2.ID, 0, "")
	}
	drive(a)
	drive(b)
	ra, rb := am.Records(), bm.Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Line() != rb[i].Line() {
			t.Fatalf("record %d differs:\n%s\n%s", i, ra[i].Line(), rb[i].Line())
		}
	}

}
