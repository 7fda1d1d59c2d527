package rsm

import (
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// startLeaseReplica runs a one-member durable replica of benchSvc over
// simnet with the given group-layer lease duration (negative grants no
// lease), replicating every client datagram under its own bytes as the
// ReqID. A long failure timeout keeps a granted lease live for the
// whole test. It returns the network so the test can attach a client.
func startLeaseReplica(t *testing.T, lease time.Duration) (*Replica, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	groupEP, err := net.Endpoint("rep0/gcs")
	if err != nil {
		t.Fatal(err)
	}
	clientEP, err := net.Endpoint("rep0/cli")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Start(Config{
		Self:           "rep0",
		GroupEndpoint:  groupEP,
		ClientEndpoint: clientEP,
		Peers:          map[gcs.MemberID]transport.Addr{"rep0": "rep0/gcs"},
		InitialMembers: []gcs.MemberID{"rep0"},
		Service:        newBenchSvc(),
		Classify:       func(p []byte) Classification { return Classification{Verdict: Replicate, ReqID: p} },
		DataDir:        t.TempDir(),
		TuneGCS: func(g *gcs.Config) {
			g.FailTimeout = 10 * time.Second
			g.LeaseDuration = lease
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		net.Close()
	})
	select {
	case <-r.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("replica not ready")
	}
	return r, net
}

// TestLeasedReadGateCounters drives each TryLeasedRead gate once and
// checks that the refusal is counted against that gate alone, and that
// LeaseFallbacks stays their sum.
func TestLeasedReadGateCounters(t *testing.T) {
	type counts struct{ reads, noLease, applyLag, durability, fallbacks uint64 }
	read := func(r *Replica) counts {
		st := r.Stats()
		return counts{st.LeaseReads, st.LeaseFallbackNoLease, st.LeaseFallbackApplyLag, st.LeaseFallbackDurability, st.LeaseFallbacks}
	}

	// Gate 1: a replica that never holds a lease.
	r, _ := startLeaseReplica(t, -1)
	if r.TryLeasedRead() {
		t.Fatal("leased read served without a lease")
	}
	if got, want := read(r), (counts{noLease: 1, fallbacks: 1}); got != want {
		t.Errorf("no lease: counters %+v, want %+v", got, want)
	}

	// Gates 2 and 3 on a leased replica that has applied one durable
	// command, so every gate passes until the test holds one back.
	r, net := startLeaseReplica(t, 5*time.Second)
	client, err := net.Endpoint("cl/0")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send("rep0/cli", []byte("gate#1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !(r.group.LeasedReadOK() && r.group.DeliveredCount() > 0 &&
		r.delivHandled.Load() == r.group.DeliveredCount() &&
		r.durableIdx.Load() >= r.appliedPub.Load() && r.appliedPub.Load() > 0) {
		if time.Now().After(deadline) {
			t.Fatal("replica never reached a leased, applied, durable state")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if !r.TryLeasedRead() {
		t.Fatalf("leased read refused with every gate open: %+v", read(r))
	}
	r.delivHandled.Add(^uint64(0)) // one delivery not yet applied
	if r.TryLeasedRead() {
		t.Error("leased read served behind an unapplied delivery")
	}
	r.delivHandled.Add(1)
	r.appliedPub.Add(1) // applied state ahead of the fsync watermark
	if r.TryLeasedRead() {
		t.Error("leased read served ahead of the durability watermark")
	}
	r.appliedPub.Add(^uint64(0))
	if got, want := read(r), (counts{reads: 1, applyLag: 1, durability: 1, fallbacks: 2}); got != want {
		t.Errorf("leased replica: counters %+v, want %+v", got, want)
	}
}
