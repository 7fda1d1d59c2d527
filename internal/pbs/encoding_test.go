package pbs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"joshua/internal/codec"
)

// fieldListing is Listing's body built field by field with EncodeJob
// from the jobs StatusAll returns, which never carry cached bytes.
func fieldListing(s *Server) []byte {
	jobs := s.StatusAll()
	e := codec.NewEncoder(0)
	e.PutUint(uint64(len(jobs)))
	for _, j := range jobs {
		EncodeJob(e, j)
	}
	return e.Bytes()
}

// fieldSnapshot is Snapshot with every job encoded field by field.
func fieldSnapshot(s *Server) []byte {
	img := s.captureImage()
	for i := range img.jobs {
		img.jobs[i].encLen = 0
	}
	return img.encode()
}

// within reports whether sub's bytes lie inside s's.
func within(s, sub string) bool {
	if sub == "" {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	p := uintptr(unsafe.Pointer(unsafe.StringData(sub)))
	return p >= lo && p+uintptr(len(sub)) <= lo+uintptr(len(s))
}

// checkCachedJobs checks every live job that still has cached bytes:
// they must be exactly its field-by-field encoding, and its text must
// lie inside them.
func checkCachedJobs(t *testing.T, s *Server, label string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, j := range s.jobs {
		enc := j.cachedEnc()
		if enc == "" {
			continue
		}
		e := codec.NewEncoder(0)
		EncodeJob(e, j.view())
		if string(e.Bytes()) != enc {
			t.Fatalf("%s: job %s (state %v) caches stale bytes", label, id, j.State)
		}
		text := append([]string{string(j.ID), j.Name, j.Owner, j.Script, j.Output}, j.Nodes...)
		for _, f := range text {
			if !within(enc, f) {
				t.Fatalf("%s: job %s keeps %q outside its encoding", label, id, f)
			}
		}
	}
}

// encRig drives one server through random operations, keeping the
// forks it took with the field-by-field snapshot each must reproduce.
type encRig struct {
	t     *testing.T
	rng   *rand.Rand
	cfg   Config
	s     *Server
	forks []encFork
}

type encFork struct {
	label  string
	encode func() []byte
	want   []byte
}

// jobsIn returns the IDs of the listed jobs in one of states.
func (r *encRig) jobsIn(states ...JobState) []JobID {
	var ids []JobID
	for _, j := range r.s.StatusAll() {
		for _, st := range states {
			if j.State == st {
				ids = append(ids, j.ID)
			}
		}
	}
	return ids
}

func (r *encRig) pick(ids []JobID) []byte {
	if len(ids) == 0 {
		return []byte("404.cluster")
	}
	return []byte(ids[r.rng.Intn(len(ids))])
}

func (r *encRig) request() SubmitRequest {
	names := []string{"", "sim", "naïve-名前", strings.Repeat("n", 130)}
	req := SubmitRequest{
		Name:      names[r.rng.Intn(len(names))],
		Owner:     fmt.Sprintf("user%d", r.rng.Intn(3)),
		Script:    strings.Repeat("echo hi\n", r.rng.Intn(24)),
		NodeCount: 1 + r.rng.Intn(2),
		WallTime:  time.Duration(r.rng.Intn(5)) * time.Second,
		Hold:      r.rng.Intn(3) == 0,
		Priority:  r.rng.Intn(7) - 3,
	}
	if r.rng.Intn(4) == 0 {
		req.Resources.NCPUs = 2
	}
	return req
}

// step applies one random operation and returns its description.
func (r *encRig) step() string {
	s, rng := r.s, r.rng
	defer s.TakeActions()
	switch op := rng.Intn(16); {
	case op < 4:
		req := r.request()
		s.Submit(req)
		return fmt.Sprintf("Submit(hold=%v, nodes=%d)", req.Hold, req.NodeCount)
	case op < 5:
		req := r.request()
		req.Array = ArraySpec{Set: true, Start: rng.Intn(3), End: 3 + rng.Intn(3)}
		s.SubmitArray(req)
		return "SubmitArray"
	case op < 6:
		id := r.pick(r.jobsIn(StateQueued, StateHeld))
		s.Hold(id)
		return "Hold(" + string(id) + ")"
	case op < 8:
		id := r.pick(r.jobsIn(StateHeld))
		s.Release(id)
		return "Release(" + string(id) + ")"
	case op < 9:
		id := r.pick(r.jobsIn(StateQueued, StateHeld))
		s.Delete(id)
		return "Delete queued " + string(id)
	case op < 10:
		id := r.pick(r.jobsIn(StateRunning))
		s.Delete(id)
		return "Delete running " + string(id)
	case op < 12:
		id := JobID(r.pick(r.jobsIn(StateRunning, StateExiting)))
		s.JobDone(id, rng.Intn(3), strings.Repeat("out\n", rng.Intn(3)))
		return "JobDone(" + string(id) + ")"
	case op < 13:
		node := r.cfg.Nodes[rng.Intn(len(r.cfg.Nodes))]
		off := rng.Intn(2) == 0
		s.SetNodeOffline(node, off)
		return fmt.Sprintf("SetNodeOffline(%s, %v)", node, off)
	case op < 14:
		f := encFork{label: fmt.Sprintf("fork at version %d", s.Version()), encode: s.Fork(), want: fieldSnapshot(s)}
		r.forks = append(r.forks, f)
		if len(r.forks) > 4 {
			r.forks = r.forks[1:]
		}
		return "Fork"
	default:
		snap := s.Snapshot()
		twin := NewServer(r.cfg)
		if err := twin.Restore(snap); err != nil {
			r.t.Fatalf("restore into a twin: %v", err)
		}
		if !bytes.Equal(twin.Snapshot(), snap) {
			r.t.Fatal("twin's snapshot differs from the one it restored")
		}
		r.s = twin
		return "Restore into a twin"
	}
}

// check compares every encoding the server builds itself with one
// built field by field from the same jobs.
func (r *encRig) check(label string) {
	t, s := r.t, r.s
	t.Helper()
	checkCachedJobs(t, s, label)
	body, _ := s.Listing()
	if want := fieldListing(s); !bytes.Equal(body, want) {
		t.Fatalf("%s: Listing differs from the field-by-field listing (%d vs %d bytes)", label, len(body), len(want))
	}
	if len(body) != cap(body) {
		t.Fatalf("%s: Listing of %d bytes has capacity %d, want exact", label, len(body), cap(body))
	}
	if got, want := s.Snapshot(), fieldSnapshot(s); !bytes.Equal(got, want) {
		t.Fatalf("%s: Snapshot differs from the field-by-field snapshot (%d vs %d bytes)", label, len(got), len(want))
	}
	for _, f := range r.forks {
		if got := f.encode(); !bytes.Equal(got, f.want) {
			t.Fatalf("%s: %s encodes differently from the field-by-field snapshot taken with it", label, f.label)
		}
	}
}

// TestCachedEncodingProperty drives seeded random operations — submits
// held and runnable, arrays, hold, release, delete of queued and of
// running jobs, starts (on submit, release, completion and a node
// coming back), completions past KeepCompleted, forks, and restores
// into a twin that then carries on — and after each one requires
// Listing, Snapshot and every live fork to equal encodings built field
// by field with EncodeJob from the same jobs, and every job's cached
// bytes to be its own encoding. A restore re-caches every job, running
// and exiting ones included, so each mutation site's invalidation is
// exercised.
func TestCachedEncodingProperty(t *testing.T) {
	configs := map[string]Config{
		"fifo":     {},
		"backfill": {Policy: PolicyBackfill},
		"filtered": {IDFilter: func(id JobID) bool { return id[0]%3 != 0 }},
	}
	for name, cfg := range configs {
		cfg.ServerName = "cluster"
		cfg.Nodes = nodeNames(4)
		cfg.NodeCPUs = 2
		cfg.KeepCompleted = 3
		cfg.Clock = fixedClock()
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				r := &encRig{t: t, rng: rand.New(rand.NewSource(seed)), cfg: cfg, s: NewServer(cfg)}
				for step := 0; step < 300; step++ {
					what := r.step()
					r.check(fmt.Sprintf("%s seed %d step %d %s", name, seed, step, what))
				}
			}
		})
	}
}

// TestRestoreRejectsNonMinimalJob feeds Restore a snapshot whose one
// job writes its sequence number as a two-byte varint, with a valid
// CRC: the decoder reads it, but the bytes are not the encoding the
// job's strings are placed by (useText), which would cut the name one
// byte off, so Restore must refuse them.
func TestRestoreRejectsNonMinimalJob(t *testing.T) {
	s := testServer()
	if _, err := s.Submit(SubmitRequest{Name: "held", Owner: "u", Hold: true}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	d := codec.NewDecoder(snap)
	d.Uint()  // version
	d.Bytes() // server name
	d.Uint()  // epoch
	d.Uint()  // nextSeq
	d.Uint()  // ltick
	if n := d.Uint(); n != 1 || d.Err() != nil {
		t.Fatalf("snapshot holds %d jobs (%v)", n, d.Err())
	}
	d.Bytes() // the job's ID
	at := len(snap) - d.Remaining()
	var body []byte
	for k := 1; k <= 5 && body == nil; k++ {
		crc, _ := binary.Uvarint(snap[len(snap)-k:])
		if crc32.ChecksumIEEE(snap[:len(snap)-k]) == uint32(crc) {
			body = snap[:len(snap)-k]
		}
	}
	if body == nil || snap[at] >= 0x80 {
		t.Fatal("cannot locate the snapshot's body or its job's sequence number")
	}
	bad := append(append(append([]byte(nil), body[:at]...), snap[at]|0x80, 0), body[at+1:]...)
	bad = binary.AppendUvarint(bad, uint64(crc32.ChecksumIEEE(bad)))
	if err := testServer().Restore(bad); err == nil || !strings.Contains(err.Error(), "corrupt snapshot") {
		t.Fatalf("Restore of a non-minimal job encoding: %v, want a corrupt-snapshot error", err)
	}
	if err := testServer().Restore(snap); err != nil {
		t.Fatalf("Restore of the original: %v", err)
	}
}

// TestJobSize pins the Job record to 256 bytes, the size class it has
// always been allocated in: its cached encoding costs it one int, the
// encoding's length (see Job.cachedEnc).
func TestJobSize(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size > 256 {
		t.Errorf("a Job is %d bytes, want at most 256", size)
	}
}

// BenchmarkListingAfterWrite builds Listing after one write, as a
// jstat -a does on a head whose queue another client writes to: a held
// submit and a delete alternate on a queue of held jobs, so every
// listing is a cache miss.
func BenchmarkListingAfterWrite(b *testing.B) {
	for _, n := range []int{2000, 25000} {
		b.Run(fmt.Sprintf("jobs=%d", n), func(b *testing.B) {
			s := NewServer(Config{ServerName: "cluster", Nodes: []string{"c0"}})
			req := SubmitRequest{Name: "listed", Owner: "alice", Script: "#!/bin/sh\necho hi\n", Hold: true}
			for i := 0; i < n; i++ {
				s.Submit(req)
			}
			var last JobID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if last == "" {
					j, _ := s.Submit(req)
					last = j.ID
				} else {
					s.Delete([]byte(last))
					last = ""
				}
				if body, _ := s.Listing(); len(body) == 0 {
					b.Fatal("empty listing")
				}
			}
		})
	}
}
