package joshua

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
)

// TestListingFramingProperty drives a batch server through seeded
// random command streams — held and runnable submissions, hold,
// release, delete, completions, node offline/online and mid-stream
// restores — and after every command checks the jstat listing reply
// against the reference encoding: the framed pbs.Server.Listing must
// be byte-identical to an rpcResponse carrying StatusAll(), and the
// listing must be stamped with the current version. Odd steps read
// StatusAll first, even steps Listing first, so neither cache can
// lean on the other having been built.
func TestListingFramingProperty(t *testing.T) {
	reqID := []byte("user/raw#list")
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv := pbs.NewServer(pbs.Config{
			ServerName:    "cluster",
			Nodes:         []string{"c0", "c1", "c2"},
			NodeCPUs:      2,
			KeepCompleted: 6,
		})
		history := [][]byte{srv.Snapshot()}
		for step := 0; step < 300; step++ {
			what := randomPBSOp(rng, srv, history)
			label := fmt.Sprintf("seed %d step %d %s", seed, step, what)

			var jobs []pbs.Job
			if step%2 == 1 {
				jobs = srv.StatusAll()
			}
			body, v := srv.Listing()
			if step%2 == 0 {
				jobs = srv.StatusAll()
			}
			if v != srv.Version() {
				t.Fatalf("%s: listing stamped %d, version %d", label, v, srv.Version())
			}
			enc := codec.GetEncoder(64)
			putListing(enc, reqID, body, v)
			want := (&rpcResponse{ReqID: string(reqID), OK: true, Jobs: jobs, Epoch: srv.Version()}).encode()
			if !bytes.Equal(enc.Bytes(), want) {
				t.Fatalf("%s: framed listing differs from the encoded StatusAll", label)
			}
			enc.Release()
			history = append(history, srv.Snapshot())
		}
	}
}

// randomPBSOp applies one random interface command to srv and names
// it. Job IDs are drawn from the current listing, with an occasional
// unknown one.
func randomPBSOp(rng *rand.Rand, srv *pbs.Server, history [][]byte) string {
	var known, active []pbs.JobID
	for _, j := range srv.StatusAll() {
		known = append(known, j.ID)
		if j.State == pbs.StateRunning || j.State == pbs.StateExiting {
			active = append(active, j.ID)
		}
	}
	pick := func(ids []pbs.JobID) pbs.JobID {
		if len(ids) == 0 || rng.Intn(10) == 0 {
			return pbs.JobID(fmt.Sprintf("%d.cluster", 1000+rng.Intn(10)))
		}
		return ids[rng.Intn(len(ids))]
	}
	switch op := rng.Intn(20); {
	case op < 6:
		hold := rng.Intn(3) == 0
		srv.Submit(pbs.SubmitRequest{
			Name:      fmt.Sprintf("j%d", rng.Intn(100)),
			Owner:     []string{"alice", "bob"}[rng.Intn(2)],
			Script:    "echo hi\n",
			NodeCount: 1 + rng.Intn(2),
			WallTime:  time.Duration(1+rng.Intn(60)) * time.Second,
			Hold:      hold,
		})
		return fmt.Sprintf("Submit(hold=%v)", hold)
	case op < 8:
		id := pick(known)
		srv.Hold([]byte(id))
		return "Hold(" + string(id) + ")"
	case op < 10:
		id := pick(known)
		srv.Release([]byte(id))
		return "Release(" + string(id) + ")"
	case op < 12:
		id := pick(known)
		srv.Delete([]byte(id))
		return "Delete(" + string(id) + ")"
	case op < 17:
		id := pick(active)
		srv.JobDone(id, rng.Intn(3), "out\n")
		return "JobDone(" + string(id) + ")"
	case op < 19:
		node := fmt.Sprintf("c%d", rng.Intn(3))
		off := rng.Intn(2) == 0
		srv.SetNodeOffline(node, off)
		return fmt.Sprintf("SetNodeOffline(%s, %v)", node, off)
	default:
		if err := srv.Restore(history[rng.Intn(len(history))]); err != nil {
			panic(err)
		}
		return "Restore"
	}
}

// TestStatServeBytes pins the head's jstat replies, built straight
// into the pooled encoder, to the bytes of the rpcResponse they stand
// for: one job, an unknown job and the full listing.
func TestStatServeBytes(t *testing.T) {
	r := newRawRig(t, 1, nil)
	s := r.heads[0]
	for i := 0; i < 3; i++ {
		req := &rpcRequest{ReqID: fmt.Sprintf("user/raw#seed%d", i), Op: OpSubmit,
			Args: cmdArgs{Name: fmt.Sprintf("seed%d", i), Owner: "u", Script: "echo hi\n", Hold: i > 0}}
		if resp := r.sendReq(t, 0, req, 5*time.Second); !resp.OK {
			t.Fatalf("seed submit rejected: %s", resp.ErrMsg)
		}
	}
	srv := s.Daemon().Server()
	running, err := srv.Status("1.cluster")
	if err != nil || running.State != pbs.StateRunning || len(running.Nodes) != 1 {
		t.Fatalf("1.cluster = %+v, %v; want a running job with a node", running, err)
	}
	held, _ := srv.Status("2.cluster")
	_, unknownErr := srv.Status("9.cluster")

	one := func(j pbs.Job) []pbs.Job { return []pbs.Job{j} }
	cases := []struct {
		name string
		req  rpcRequest
		want rpcResponse
	}{
		{"jstat <running>", rpcRequest{Op: OpStat, Args: cmdArgs{JobID: "1.cluster"}}, rpcResponse{OK: true, Jobs: one(running)}},
		{"jstat <held>", rpcRequest{Op: OpStat, Args: cmdArgs{JobID: "2.cluster"}}, rpcResponse{OK: true, Jobs: one(held)}},
		{"jstat <unknown>", rpcRequest{Op: OpStat, Args: cmdArgs{JobID: "9.cluster"}}, rpcResponse{ErrMsg: unknownErr.Error()}},
		{"jstat <empty id>", rpcRequest{Op: OpStat}, rpcResponse{ErrMsg: (&pbs.Error{Op: "qstat", Msg: "Unknown Job Id"}).Error()}},
		{"jstat", rpcRequest{Op: OpStatAll}, rpcResponse{OK: true, Jobs: srv.StatusAll()}},
	}
	for i, c := range cases {
		c.req.ReqID = fmt.Sprintf("user/raw#%d", i)
		c.want.ReqID = c.req.ReqID
		c.want.Epoch = srv.Version()
		payload := c.req.encode()
		cls := s.classify(payload)
		if cls.Verdict != rsm.Reply || cls.Respond == nil {
			t.Fatalf("%s: not classified as a local read", c.name)
		}
		enc := cls.Respond(payload)
		if got, want := enc.Bytes(), c.want.encode(); !bytes.Equal(got, want) {
			_, gotResp, err := decodeRPC(got)
			t.Errorf("%s: reply bytes differ\n got %+v (%v)\nwant %+v", c.name, gotResp, err, c.want)
		}
		enc.Release()
	}
}

// bigListing encodes a response carrying n held jobs shaped like the
// benchmark's steady queue.
func bigListing(n int) []byte {
	jobs := make([]pbs.Job, n)
	for i := range jobs {
		jobs[i] = pbs.Job{
			ID: pbs.JobID(fmt.Sprintf("%d.cluster", i+1)), Seq: uint64(i + 1),
			Name: fmt.Sprintf("job%d", i), Owner: "bench", Script: "#!/bin/sh\ntrue\n",
			NodeCount: 1, WallTime: time.Second, State: pbs.StateHeld, ArrayIdx: -1,
			SubmittedAt: time.Unix(0, int64(i+1)),
		}
	}
	return (&rpcResponse{ReqID: "bench/cli#00000042", OK: true, Jobs: jobs, Epoch: 7}).encode()
}

// TestListingDecodeAllocs pins the client side of a 2,000-job jstat:
// the response value and one job slice — two allocations, not several
// per job, since every string is a view into the datagram.
func TestListingDecodeAllocs(t *testing.T) {
	payload := bigListing(2000)
	allocs := testing.AllocsPerRun(20, func() {
		if _, resp, err := decodeRPC(payload); err != nil || len(resp.Jobs) != 2000 {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs > 2 {
		t.Errorf("decoding a 2,000-job listing: %v allocs, want <= 2", allocs)
	}
}

// responseStrings lists every string a decoded response holds.
func responseStrings(r *rpcResponse) []string {
	ss := []string{r.ReqID, r.ErrMsg}
	for _, j := range r.Jobs {
		ss = append(ss, string(j.ID), j.Name, j.Owner, j.Script, j.Output)
		ss = append(ss, j.Nodes...)
	}
	return ss
}

// TestDecodedResponseViewsPayload checks the client's receive-side
// contract: decodeResponse matches the encoded response field for
// field, and every string it yields is a view into the datagram, not a
// copy, so overwriting the datagram shows through each of them. The
// client may keep such views only because the transport hands every
// received Payload to the receiver to own and never writes it again
// (TestReceivedPayloadIsOwned in simnet and tcpnet).
func TestDecodedResponseViewsPayload(t *testing.T) {
	for _, want := range []*rpcResponse{
		{
			ReqID: "x#1", OK: true, Epoch: 9,
			Jobs: []pbs.Job{
				{ID: "1.cluster", Seq: 1, Name: "a", Owner: "u", Script: "s", State: pbs.StateRunning, NodeCount: 2,
					Nodes: []string{"c0", "c1"}, Output: "", ArrayIdx: -1},
				{ID: "2.cluster", Seq: 2, Name: "", Owner: "v", State: pbs.StateCompleted, ExitCode: -271,
					Nodes: []string{}, Output: "out\n", ArrayIdx: 3},
			},
		},
		{ReqID: "x#2", ErrMsg: "qstat: Unknown Job Id 9.cluster", Jobs: []pbs.Job{}, Epoch: 10},
	} {
		payload := want.encode()
		got := new(rpcResponse)
		if err := decodeResponse(payload, got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded response differs:\n got %+v\nwant %+v", got, want)
		}
		for i := range payload {
			payload[i] = 'X'
		}
		for _, s := range responseStrings(got) {
			if strings.Trim(s, "X") != "" {
				t.Errorf("%s: %q did not change with the datagram: a copy, not a view", want.ReqID, s)
			}
		}
	}
}

func BenchmarkListingDecode(b *testing.B) {
	payload := bigListing(2000)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeRPC(payload); err != nil {
			b.Fatal(err)
		}
	}
}
