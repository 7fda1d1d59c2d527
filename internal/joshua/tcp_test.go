package joshua

import (
	"fmt"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

// tcpCluster assembles a real-TCP deployment in-process: n head
// nodes, one mom, one client — the same wiring the joshuad/jmomd/jsub
// binaries use, validating the whole stack over actual sockets.
type tcpCluster struct {
	res     tcpnet.StaticResolver
	heads   []*Server
	mom     *pbs.Mom
	doneCli *Client
	client  *Client
}

func newTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	tc := &tcpCluster{res: tcpnet.StaticResolver{}}

	peers := map[gcs.MemberID]transport.Addr{}
	var headClientAddrs, headPBSAddrs []transport.Addr
	for i := 0; i < n; i++ {
		peers[member(i)] = gcsAddr(i)
		headClientAddrs = append(headClientAddrs, clientAddr(i))
		headPBSAddrs = append(headPBSAddrs, pbsAddr(i))
	}

	// Listen on every endpoint and fill the resolver before anything
	// starts: the mom, the jdone client and every head's group layer
	// resolve addresses from their own goroutines as soon as they run,
	// and a StaticResolver is a plain map.
	listen := func(addr transport.Addr) *tcpnet.Endpoint {
		t.Helper()
		ep, err := tcpnet.Listen(addr, "127.0.0.1:0", tc.res)
		if err != nil {
			t.Fatal(err)
		}
		tc.res[addr] = ep.TCPAddr()
		return ep
	}
	momEP := listen("compute0/mom")
	var groupEPs, clientEPs, pbsEPs []*tcpnet.Endpoint
	for i := 0; i < n; i++ {
		groupEPs = append(groupEPs, listen(gcsAddr(i)))
		clientEPs = append(clientEPs, listen(clientAddr(i)))
		pbsEPs = append(pbsEPs, listen(pbsAddr(i)))
	}
	doneEP, err := tcpnet.Listen("compute0/jdone", "127.0.0.1:0", tc.res)
	if err != nil {
		t.Fatal(err)
	}

	tc.doneCli, err = NewClient(ClientConfig{
		Endpoint:       doneEP,
		Heads:          headClientAddrs,
		AttemptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.mom = pbs.StartMom(pbs.MomConfig{
		Name:     "compute0",
		Endpoint: momEP,
		Complete: MomHooks(tc.doneCli, "compute0"),
	})

	var initial []gcs.MemberID
	for i := 0; i < n; i++ {
		initial = append(initial, member(i))
	}
	for i := 0; i < n; i++ {
		srv := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: []string{"compute0"}, Exclusive: true})
		daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{
			Endpoint:       pbsEPs[i],
			Moms:           map[string]transport.Addr{"compute0": "compute0/mom"},
			ResendInterval: 100 * time.Millisecond,
		})
		head, err := StartServer(Config{
			Config: rsm.Config{
				Self:           member(i),
				GroupEndpoint:  groupEPs[i],
				ClientEndpoint: clientEPs[i],
				Peers:          peers,
				InitialMembers: initial,
				TuneGCS: func(g *gcs.Config) {
					g.Heartbeat = 15 * time.Millisecond
					g.FailTimeout = 120 * time.Millisecond
					g.FlushTimeout = 200 * time.Millisecond
				},
			},
			Daemon: daemon,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.heads = append(tc.heads, head)
	}
	for _, h := range tc.heads {
		select {
		case <-h.Ready():
		case <-time.After(10 * time.Second):
			t.Fatal("head not ready over TCP")
		}
	}

	cliEP, err := tcpnet.Listen("user/client", "127.0.0.1:0", tc.res)
	if err != nil {
		t.Fatal(err)
	}
	tc.client, err = NewClient(ClientConfig{
		Endpoint:       cliEP,
		Heads:          headClientAddrs,
		AttemptTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Cleanup(func() {
		tc.client.Close()
		tc.doneCli.Close()
		tc.mom.Close()
		for _, h := range tc.heads {
			h.Close()
		}
	})
	return tc
}

func member(i int) gcs.MemberID { return gcs.MemberID(fmt.Sprintf("head%d", i)) }
func gcsAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("head%d/gcs", i))
}
func clientAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("head%d/joshua", i))
}
func pbsAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("head%d/pbs", i))
}

func TestTCPEndToEnd(t *testing.T) {
	tc := newTCPCluster(t, 2)

	j, err := tc.client.Submit(pbs.SubmitRequest{Name: "tcp-job", Owner: "alice", WallTime: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "1.cluster" {
		t.Errorf("job ID = %s", j.ID)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		got, err := tc.client.Stat(j.ID)
		if err == nil && got.State == pbs.StateCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed over TCP (last: %+v, %v)", got, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := tc.mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	// Both heads converged.
	deadline = time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, h := range tc.heads {
			jj, err := h.Daemon().Status(j.ID)
			if err != nil || jj.State != pbs.StateCompleted {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("heads did not converge over TCP")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTCPHeadFailureFailover(t *testing.T) {
	tc := newTCPCluster(t, 3)

	if _, err := tc.client.Submit(pbs.SubmitRequest{Name: "pre", Hold: true}); err != nil {
		t.Fatal(err)
	}
	// Kill the sequencer head (its sockets close; peers detect the
	// silence).
	tc.heads[0].Close()

	j, err := tc.client.Submit(pbs.SubmitRequest{Name: "post", Hold: true})
	if err != nil {
		t.Fatalf("submission after TCP head failure: %v", err)
	}
	if j.ID != "2.cluster" {
		t.Errorf("post-failure job ID = %s (state lost?)", j.ID)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		v := tc.heads[1].View()
		if len(v.Members) == 2 && v.Primary {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never installed 2-member view: %v", tc.heads[1].View())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
