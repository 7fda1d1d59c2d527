package pbs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"joshua/internal/codec"
)

// encodedStatusAll is the reference encoding of Listing's body: the
// job count, then EncodeJob of each StatusAll job.
func encodedStatusAll(s *Server) []byte {
	jobs := s.StatusAll()
	e := codec.NewEncoder(256)
	e.PutUint(uint64(len(jobs)))
	for _, j := range jobs {
		EncodeJob(e, j)
	}
	return e.Bytes()
}

// TestStatusCacheInvalidation pins the read-path contract: Status,
// StatusView and NodesStatus read the live table and are never cache
// events; StatusAll and Listing are each built once per version
// (repeat calls are hits), and every mutating entry point bumps the
// version so the next listing call rebuilds. Restore continues the
// snapshot's version and rebuilds too.
func TestStatusCacheInvalidation(t *testing.T) {
	s := testServer()

	j, err := s.Submit(SubmitRequest{Name: "a", Owner: "alice", WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := s.Version()

	hits0, miss0 := s.ReadCacheStats()
	for i := 0; i < 5; i++ {
		s.NodesStatus()
		if _, err := s.Status(j.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StatusView([]byte(j.ID)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Status("99.cluster"); err == nil {
			t.Fatal("Status of an unknown job succeeded")
		}
	}
	if hits, miss := s.ReadCacheStats(); hits != hits0 || miss != miss0 {
		t.Errorf("single-job and node reads were cache events: hits %d -> %d, misses %d -> %d", hits0, hits, miss0, miss)
	}

	first := s.StatusAll()
	body, bv := s.Listing()
	_, miss1 := s.ReadCacheStats()
	if miss1 != miss0+2 {
		t.Errorf("first StatusAll+Listing: misses %d -> %d, want +2", miss0, miss1)
	}
	for i := 0; i < 5; i++ {
		if got := s.StatusAll(); &got[0] != &first[0] {
			t.Fatal("StatusAll rebuilt at an unchanged version")
		}
		if got, gv := s.Listing(); &got[0] != &body[0] || gv != bv {
			t.Fatal("Listing rebuilt at an unchanged version")
		}
	}
	hits2, miss2 := s.ReadCacheStats()
	if miss2 != miss1 || hits2 != hits0+10 {
		t.Errorf("repeat listings: hits %d -> %d (want +10), misses %d -> %d (want +0)", hits0, hits2, miss1, miss2)
	}
	if s.Version() != v || bv != v {
		t.Errorf("reads moved the version: %d -> %d (listing stamped %d)", v, s.Version(), bv)
	}

	// Each mutating entry point invalidates both listings.
	bump := func(name string, f func()) {
		t.Helper()
		s.StatusAll()
		s.Listing()
		before := s.Version()
		_, m0 := s.ReadCacheStats()
		f()
		if s.Version() == before {
			t.Errorf("%s did not bump the version", name)
		}
		s.StatusAll()
		if _, lv := s.Listing(); lv != s.Version() {
			t.Errorf("%s: listing stamped %d, version %d", name, lv, s.Version())
		}
		if _, m1 := s.ReadCacheStats(); m1 != m0+2 {
			t.Errorf("%s: listings rebuilt %d times, want 2", name, m1-m0)
		}
		if got, want := encodedStatusAll(s), mustListing(s); !bytes.Equal(got, want) {
			t.Errorf("%s: Listing differs from the encoded StatusAll", name)
		}
	}
	bump("Submit", func() { s.Submit(SubmitRequest{Name: "b", Owner: "alice", Hold: true}) })
	bump("SubmitArray", func() {
		s.SubmitArray(SubmitRequest{Name: "arr", Owner: "bob", Hold: true, Array: ArraySpec{Set: true, Start: 0, End: 2}})
	})
	bump("Hold", func() { s.Hold([]byte(j.ID)) })
	bump("Release", func() { s.Release([]byte(j.ID)) })
	bump("SetNodeOffline", func() { s.SetNodeOffline("c1", true) })
	bump("JobDone", func() { s.JobDone(j.ID, 0, "out") })
	bump("Delete", func() { s.Delete([]byte("2.cluster")) })

	// Restore is no mutation of its own: it continues the snapshot's
	// version. It still drops both listings, because one cached before
	// it may carry the restored version number for another state: here
	// the state of a replica that ran other commands to the same count.
	twin := testServer()
	for twin.Version() < s.Version() {
		twin.Submit(SubmitRequest{Name: "twin", Owner: "carol", Hold: true})
	}
	s.StatusAll()
	s.Listing()
	_, m0 := s.ReadCacheStats()
	if err := s.Restore(twin.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s.Version() != twin.Version() {
		t.Errorf("Restore: version %d, want the snapshot's %d", s.Version(), twin.Version())
	}
	if !reflect.DeepEqual(s.StatusAll(), twin.StatusAll()) || !bytes.Equal(mustListing(s), mustListing(twin)) {
		t.Error("Restore: a listing cached before it was served after it")
	}
	if _, m1 := s.ReadCacheStats(); m1 != m0+2 {
		t.Errorf("Restore: listings rebuilt %d times, want 2", m1-m0)
	}

	// The listing handed out before the mutations is untouched.
	if got := s.StatusAll(); reflect.DeepEqual(got, first) {
		t.Error("post-mutation StatusAll returned the stale listing")
	}
	if len(first) != 1 || first[0].ID != j.ID || first[0].State != StateRunning {
		t.Errorf("earlier listing mutated in place: %+v", first)
	}
}

func mustListing(s *Server) []byte {
	b, _ := s.Listing()
	return b
}

// TestStatusViewAliasesOnlyNodes checks that StatusView's copy is
// detached from the live job except for the Nodes slice, which the
// server replaces rather than writes into.
func TestStatusViewAliasesOnlyNodes(t *testing.T) {
	s := testServer()
	j, err := s.Submit(SubmitRequest{Name: "a", Owner: "alice", NodeCount: 2, WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.StatusView([]byte(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateRunning || !reflect.DeepEqual(view.Nodes, []string{"c0", "c1"}) {
		t.Fatalf("view = %+v", view)
	}
	s.JobDone(j.ID, 3, "done")
	if view.State != StateRunning || view.ExitCode != 0 || !reflect.DeepEqual(view.Nodes, []string{"c0", "c1"}) {
		t.Errorf("earlier view changed with the live job: %+v", view)
	}
	if got := statusOf(t, s, j.ID); got.State != StateCompleted || got.ExitCode != 3 {
		t.Errorf("live job after JobDone: %+v", got)
	}
}

// TestStatusCacheConcurrentAccess runs every status-class read against
// a mutation stream; meaningful under -race. Each listing must decode
// to exactly the jobs it counts, and the final listing must agree with
// the live queue gauges.
func TestStatusCacheConcurrentAccess(t *testing.T) {
	s := testServer()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, j := range s.StatusAll() {
					_, _ = s.Status(j.ID)
					_, _ = s.StatusView([]byte(j.ID))
				}
				body, _ := s.Listing()
				d := codec.NewDecoder(body)
				n := d.Uint()
				for i := uint64(0); i < n; i++ {
					DecodeJob(d)
				}
				if err := d.Finish(); err != nil {
					errs <- fmt.Errorf("listing of %d jobs: %w", n, err)
					return
				}
				s.NodesStatus()
				s.QueueLengths()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		j, err := s.Submit(SubmitRequest{Name: fmt.Sprintf("job%d", i), Owner: "alice", Hold: i%5 != 0})
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			s.Release([]byte(j.ID))
		}
		if i%7 == 0 {
			s.Delete([]byte(j.ID))
		}
		if i%5 == 0 {
			s.JobDone(j.ID, 0, "")
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	waiting, running, completed := s.QueueLengths()
	if got, want := len(s.StatusAll()), waiting+running+completed; got != want {
		t.Errorf("final listing has %d jobs, queue gauges say %d", got, want)
	}
	if !bytes.Equal(mustListing(s), encodedStatusAll(s)) {
		t.Error("final Listing differs from the encoded StatusAll")
	}
}
