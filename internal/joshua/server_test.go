package joshua

import (
	"errors"
	"strings"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// rawRig builds one or two JOSHUA heads on simnet plus a raw client
// endpoint, for tests that need to hand-craft requests (duplicate
// request IDs, protocol probes).
type rawRig struct {
	net   *simnet.Network
	heads []*Server
	cli   transport.Endpoint
}

func newRawRig(t testing.TB, heads int, mutate func(*Config)) *rawRig {
	t.Helper()
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	r := &rawRig{net: net}

	peers := map[gcs.MemberID]transport.Addr{}
	var initial []gcs.MemberID
	for i := 0; i < heads; i++ {
		peers[member(i)] = gcsAddr(i)
		initial = append(initial, member(i))
	}
	for i := 0; i < heads; i++ {
		groupEP, _ := net.Endpoint(gcsAddr(i))
		clientEP, _ := net.Endpoint(clientAddr(i))
		pbsEP, _ := net.Endpoint(pbsAddr(i))
		srv := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: []string{"c0"}, Exclusive: true})
		daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{
			Endpoint: pbsEP,
			Moms:     map[string]transport.Addr{},
		})
		cfg := Config{
			Config: rsm.Config{
				Self:           member(i),
				GroupEndpoint:  groupEP,
				ClientEndpoint: clientEP,
				Peers:          peers,
				InitialMembers: initial,
				TuneGCS: func(g *gcs.Config) {
					g.Heartbeat = 10 * time.Millisecond
					g.FailTimeout = 80 * time.Millisecond
				},
			},
			Daemon: daemon,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		head, err := StartServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.heads = append(r.heads, head)
	}
	for _, h := range r.heads {
		select {
		case <-h.Ready():
		case <-time.After(10 * time.Second):
			t.Fatal("head not ready")
		}
	}
	var err error
	r.cli, err = net.Endpoint("user/raw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, h := range r.heads {
			h.Close()
		}
		net.Close()
	})
	return r
}

// sendReq transmits a hand-crafted request to a head and waits for the
// matching response.
func (r *rawRig) sendReq(t testing.TB, head int, req *rpcRequest, timeout time.Duration) *rpcResponse {
	t.Helper()
	if err := r.cli.Send(clientAddr(head), req.encode()); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(timeout)
	for {
		select {
		case dg := <-r.cli.Recv():
			_, resp, err := decodeRPC(dg.Payload)
			if err != nil || resp == nil || resp.ReqID != req.ReqID {
				continue
			}
			return resp
		case <-deadline:
			t.Fatalf("no response for %s", req.ReqID)
		}
	}
}

func TestDuplicateRequestExecutesOnce(t *testing.T) {
	// The exactly-once mechanism: a client that retried at a second
	// head (same request ID) must not get the job submitted twice.
	r := newRawRig(t, 2, nil)
	req := &rpcRequest{
		ReqID: "user/raw#1",
		Op:    OpSubmit,
		Args:  cmdArgs{Name: "once", Owner: "u", Hold: true},
	}
	resp1 := r.sendReq(t, 0, req, 5*time.Second)
	resp2 := r.sendReq(t, 1, req, 5*time.Second) // retry at the other head
	if !resp1.OK || !resp2.OK {
		t.Fatalf("responses: %+v / %+v", resp1, resp2)
	}
	if resp1.Jobs[0].ID != resp2.Jobs[0].ID {
		t.Errorf("retry produced a different job: %s vs %s", resp1.Jobs[0].ID, resp2.Jobs[0].ID)
	}
	// Exactly one job exists on both heads.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n0 := len(r.heads[0].Daemon().StatusAll())
		n1 := len(r.heads[1].Daemon().StatusAll())
		if n0 == 1 && n1 == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job counts: head0=%d head1=%d, want 1/1", n0, n1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hits := r.heads[0].Stats().DedupHits + r.heads[1].Stats().DedupHits; hits == 0 {
		t.Error("expected at least one dedup hit")
	}
}

func TestDuplicateBroadcastAppliesOnce(t *testing.T) {
	// Both heads receive the same request concurrently (a retry that
	// raced the first head's broadcast): the command is replicated
	// twice but applied once.
	r := newRawRig(t, 2, nil)
	req := &rpcRequest{
		ReqID: "user/raw#race",
		Op:    OpSubmit,
		Args:  cmdArgs{Name: "race", Hold: true},
	}
	// Fire at both heads back to back without waiting.
	r.cli.Send(clientAddr(0), req.encode())
	r.cli.Send(clientAddr(1), req.encode())

	deadline := time.Now().Add(5 * time.Second)
	for {
		n0 := len(r.heads[0].Daemon().StatusAll())
		n1 := len(r.heads[1].Daemon().StatusAll())
		if n0 == 1 && n1 == 1 && r.heads[0].Stats().Applied == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job counts: head0=%d head1=%d applied=%d, want 1/1/1",
				n0, n1, r.heads[0].Stats().Applied)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDedupEvictionIsBounded(t *testing.T) {
	r := newRawRig(t, 1, func(c *Config) { c.DedupLimit = 4 })
	for i := 0; i < 10; i++ {
		req := &rpcRequest{
			ReqID: string(rune('a'+i)) + "#x",
			Op:    OpSubmit,
			Args:  cmdArgs{Name: "j", Hold: true},
		}
		r.sendReq(t, 0, req, 5*time.Second)
	}
	// The server survives and keeps answering; a re-sent evicted
	// request ID is re-executed (documented at-least-once fallback
	// beyond the table size).
	old := &rpcRequest{ReqID: "a#x", Op: OpSubmit, Args: cmdArgs{Name: "j", Hold: true}}
	resp := r.sendReq(t, 0, old, 5*time.Second)
	if !resp.OK {
		t.Fatalf("resp: %+v", resp)
	}
	if got := len(r.heads[0].Daemon().StatusAll()); got != 11 {
		t.Errorf("jobs = %d, want 11 (10 + re-executed evicted retry)", got)
	}
}

func TestUnknownOperationRejected(t *testing.T) {
	r := newRawRig(t, 1, nil)
	req := &rpcRequest{ReqID: "user/raw#bad", Op: Op(77), Args: cmdArgs{}}
	resp := r.sendReq(t, 0, req, 5*time.Second)
	if resp.OK {
		t.Error("unknown op should fail")
	}
}

func TestServerStatsProgress(t *testing.T) {
	r := newRawRig(t, 1, nil)
	req := &rpcRequest{ReqID: "user/raw#s", Op: OpSubmit, Args: cmdArgs{Hold: true}}
	r.sendReq(t, 0, req, 5*time.Second)
	st := r.heads[0].Stats()
	if st.Intercepted != 1 || st.Applied != 1 || st.Replied != 1 || st.Views == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestJDoneRefusedUnlessFirstNode: every head refuses a completion
// from a node other than the job's first, which leaves the job
// running everywhere, and applies the first node's.
func TestJDoneRefusedUnlessFirstNode(t *testing.T) {
	r := newRawRig(t, 2, nil)
	sub := r.sendReq(t, 0, &rpcRequest{ReqID: "user/raw#sub", Op: OpSubmit, Args: cmdArgs{WallTime: time.Hour}}, 5*time.Second)
	if !sub.OK || len(sub.Jobs) != 1 || len(sub.Jobs[0].Nodes) == 0 || sub.Jobs[0].Nodes[0] != "c0" {
		t.Fatalf("jsub: %+v", sub)
	}
	id := sub.Jobs[0].ID
	states := func() []pbs.JobState {
		var out []pbs.JobState
		for _, h := range r.heads {
			j, err := h.Daemon().Status(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, j.State)
		}
		return out
	}

	resp := r.sendReq(t, 1, &rpcRequest{ReqID: "user/raw#wrong", Op: OpJDone, Args: cmdArgs{JobID: id, Node: "c9", Output: "x"}}, 5*time.Second)
	if resp.OK || !strings.HasPrefix(resp.ErrMsg, pbs.ErrNotFirstNode.Error()) {
		t.Fatalf("jdone from c9: %+v, want a refusal", resp)
	}
	// A read on each head after a later ordered command has applied there
	// sees what the refusal left.
	r.sendReq(t, 0, &rpcRequest{ReqID: "user/raw#fence", Op: OpStatAll, Ordered: true}, 5*time.Second)
	for i, st := range states() {
		if st != pbs.StateRunning {
			t.Errorf("head%d: job %s is %v after a refused jdone, want running", i, id, st)
		}
	}

	resp = r.sendReq(t, 1, &rpcRequest{ReqID: "jdone/" + string(id), Op: OpJDone, Args: cmdArgs{JobID: id, Node: "c0", Output: "hi\n"}}, 5*time.Second)
	if !resp.OK {
		t.Fatalf("jdone from c0: %+v", resp)
	}
	waitHeads(t, "the completion on every head", func() bool {
		for _, st := range states() {
			if st != pbs.StateCompleted {
				return false
			}
		}
		return true
	})
}

// waitHeads polls cond for up to five seconds.
func waitHeads(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStartServerValidation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("h/x")
	if _, err := StartServer(Config{Config: rsm.Config{ClientEndpoint: ep}}); err == nil {
		t.Error("missing Daemon should fail")
	}
	srv := pbs.NewServer(pbs.Config{ServerName: "c", Nodes: []string{"n"}})
	ep2, _ := net.Endpoint("h/pbs")
	d := pbs.NewDaemon(srv, pbs.DaemonConfig{Endpoint: ep2, Moms: map[string]transport.Addr{}})
	defer d.Close()
	if _, err := StartServer(Config{Daemon: d}); err == nil {
		t.Error("missing ClientEndpoint should fail")
	}
}

func TestNewClientValidation(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("c/x")
	if _, err := NewClient(ClientConfig{Heads: []transport.Addr{"h/j"}}); err == nil {
		t.Error("missing Endpoint should fail")
	}
	if _, err := NewClient(ClientConfig{Endpoint: ep}); err != ErrNoHeads {
		t.Errorf("missing Heads: err = %v", err)
	}
}

func TestClientUnreachableHeads(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("c/x")
	cli, err := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{"ghost/joshua"},
		AttemptTimeout: 30 * time.Millisecond,
		Rounds:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Submit(pbs.SubmitRequest{}); err == nil {
		t.Error("submit with no live heads should fail")
	}
}

func TestClientClosePromptlyFailsCalls(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("c/x")
	cli, _ := NewClient(ClientConfig{
		Endpoint:       ep,
		Heads:          []transport.Addr{"ghost/joshua"},
		AttemptTimeout: 10 * time.Second,
	})
	errc := make(chan error, 1)
	go func() {
		_, err := cli.Submit(pbs.SubmitRequest{})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call did not fail after Close")
	}
	if _, err := cli.Submit(pbs.SubmitRequest{}); err != ErrClosed {
		t.Errorf("post-close err = %v, want ErrClosed", err)
	}
}

func TestPlainServerServesAllOps(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	ep, _ := net.Endpoint("head/joshua")
	srv := pbs.NewServer(pbs.Config{ServerName: "solo", Nodes: []string{"c0"}, Exclusive: true})
	pbsEP, _ := net.Endpoint("head/pbs")
	daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{Endpoint: pbsEP, Moms: map[string]transport.Addr{}})
	plain := StartPlainServer(ep, daemon)
	defer plain.Close()

	cliEP, _ := net.Endpoint("user/cli")
	cli, err := NewClient(ClientConfig{Endpoint: cliEP, Heads: []transport.Addr{"head/joshua"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	j, err := cli.Submit(pbs.SubmitRequest{Name: "solo-job", Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "1.solo" {
		t.Errorf("job ID = %s", j.ID)
	}
	if got, err := cli.Stat(j.ID); err != nil || got.Name != "solo-job" {
		t.Errorf("Stat = %+v, %v", got, err)
	}
	// A held job has no first node, so any jdone for it is refused.
	if err := cli.JDone(j.ID, "c0", 0, ""); !errors.Is(err, pbs.ErrNotFirstNode) {
		t.Errorf("JDone for a held job = %v, want ErrNotFirstNode", err)
	}
	if all, err := cli.StatAll(); err != nil || len(all) != 1 {
		t.Errorf("StatAll = %v, %v", all, err)
	}
	if info, err := cli.Info(); err != nil || info["mode"] != "plain" || info["jobs_waiting"] != "1" {
		t.Errorf("Info = %v, %v", info, err)
	}
	if nodes, err := cli.Nodes(); err != nil || len(nodes) != 1 || nodes[0].Name != "c0" {
		t.Errorf("Nodes = %v, %v", nodes, err)
	}
	if _, err := cli.Release(j.ID); err != nil {
		t.Error(err)
	}
	if _, err := cli.Delete(j.ID); err != nil {
		t.Error(err)
	}
}

func TestInfoLocal(t *testing.T) {
	r := newRawRig(t, 2, nil)
	r.sendReq(t, 0, &rpcRequest{ReqID: "user/raw#i0", Op: OpSubmit, Args: cmdArgs{Hold: true}}, 5*time.Second)

	resp := r.sendReq(t, 0, &rpcRequest{ReqID: "user/raw#info", Op: OpInfoLocal}, 5*time.Second)
	if !resp.OK || resp.Info == nil {
		t.Fatalf("info response: %+v", resp)
	}
	for _, key := range []string{"head", "view", "members", "primary", "jobs_waiting", "cmds_applied", "gcs_views"} {
		if _, ok := resp.Info[key]; !ok {
			t.Errorf("info missing %q: %v", key, resp.Info)
		}
	}
	if resp.Info["head"] != "head0" || resp.Info["mode"] != "replicated" {
		t.Errorf("info identity: %v", resp.Info)
	}
	if resp.Info["jobs_waiting"] != "1" {
		t.Errorf("jobs_waiting = %s, want 1", resp.Info["jobs_waiting"])
	}
}
