package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"joshua/internal/config"
	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.conf")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadConfigSources(t *testing.T) {
	path := writeConfig(t, "[head h0]\ngcs=a\nclient=b\npbs=c\n")

	if _, err := LoadConfig(path); err != nil {
		t.Fatalf("explicit path: %v", err)
	}

	t.Setenv("JOSHUA_CONFIG", path)
	if _, err := LoadConfig(""); err != nil {
		t.Fatalf("env fallback: %v", err)
	}

	t.Setenv("JOSHUA_CONFIG", "")
	if _, err := LoadConfig(""); err == nil {
		t.Fatal("no config source should fail")
	}
	if _, err := LoadConfig("/does/not/exist"); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestBindAddrPrecedence(t *testing.T) {
	conf := &config.ClusterFile{ClientBind: "10.0.0.7:0"}

	t.Setenv("JOSHUA_BIND", "")
	if got := BindAddr("", nil); got != "127.0.0.1:0" {
		t.Errorf("default = %q", got)
	}
	if got := BindAddr("", conf); got != "10.0.0.7:0" {
		t.Errorf("config = %q", got)
	}
	t.Setenv("JOSHUA_BIND", "192.168.1.2:0")
	if got := BindAddr("", conf); got != "192.168.1.2:0" {
		t.Errorf("env should beat config, got %q", got)
	}
	if got := BindAddr("0.0.0.0:9999", conf); got != "0.0.0.0:9999" {
		t.Errorf("flag should beat env and config, got %q", got)
	}
}

func TestNewClientUsesConfiguredBind(t *testing.T) {
	// A config-supplied client_bind must reach the client's listen
	// socket (observable through the resulting TCP address).
	srv := pbs.NewServer(pbs.Config{ServerName: "bindtest", Nodes: []string{"c0"}, Exclusive: true})
	pbsEP, err := tcpnet.Listen("h0/pbs", "127.0.0.1:0", tcpnet.StaticResolver{})
	if err != nil {
		t.Fatal(err)
	}
	daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{Endpoint: pbsEP, Moms: map[string]transport.Addr{}})
	clientEP, err := tcpnet.Listen("h0/joshua", "127.0.0.1:0", tcpnet.StaticResolver{})
	if err != nil {
		t.Fatal(err)
	}
	head := joshua.StartPlainServer(clientEP, daemon)
	defer head.Close()

	path := writeConfig(t, `
server_name = bindtest
client_bind = 127.0.0.1:0
[head h0]
gcs    = 127.0.0.1:1
client = `+clientEP.TCPAddr()+`
pbs    = 127.0.0.1:1
`)
	conf, err := config.LoadCluster(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("JOSHUA_BIND", "")
	cli, err := NewClient(conf, 2*time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Submit(pbs.SubmitRequest{Name: "bound", Hold: true}); err != nil {
		t.Fatal(err)
	}

	// And an unusable bind address fails loudly instead of silently
	// falling back to loopback.
	if _, err := NewClient(conf, time.Second, "203.0.113.1:1"); err == nil {
		t.Error("NewClient with an unbindable address should fail")
	}
}

func TestNewClientAgainstLiveHead(t *testing.T) {
	// Stand up a single plain head over real TCP, point a config at
	// it, and run a full command through the cli-built client.
	srv := pbs.NewServer(pbs.Config{ServerName: "clitest", Nodes: []string{"c0"}, Exclusive: true})
	pbsEP, err := tcpnet.Listen("h0/pbs", "127.0.0.1:0", tcpnet.StaticResolver{})
	if err != nil {
		t.Fatal(err)
	}
	daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{Endpoint: pbsEP, Moms: map[string]transport.Addr{}})
	clientEP, err := tcpnet.Listen("h0/joshua", "127.0.0.1:0", tcpnet.StaticResolver{})
	if err != nil {
		t.Fatal(err)
	}
	head := joshua.StartPlainServer(clientEP, daemon)
	defer head.Close()

	path := writeConfig(t, `
server_name = clitest
[head h0]
gcs    = 127.0.0.1:1
client = `+clientEP.TCPAddr()+`
pbs    = 127.0.0.1:1
`)
	conf, err := config.LoadCluster(path)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(conf, 2*time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	j, err := cli.Submit(pbs.SubmitRequest{Name: "via-cli", Owner: "tester", Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "1.clitest" {
		t.Errorf("job ID = %s", j.ID)
	}
	got, err := cli.Stat(j.ID)
	if err != nil || got.Name != "via-cli" {
		t.Errorf("Stat = %+v, %v", got, err)
	}
}

// TestCLIFirstWriteToNonSequencer runs the command-line shape over
// TCP: a client built by NewClient, whose own address is in no
// resolver table, submits to three replicated heads. Its first jsub
// reaches a head that is not the sequencer, and the sequencer cannot
// open a connection to such a client, so the origin's reply is the one
// that counts: it must arrive before the hedge delay (a sixteenth of
// the attempt timeout), and the job must run once.
//
// The configuration lists heads sorted by name and joshuad makes the
// name the member ID, so the first listed head is normally the
// sequencer itself. These heads are started directly with member IDs
// rotated against their names (head0 is member m2, head1 is m0, the
// sequencer) so that the first jsub lands on a follower.
func TestCLIFirstWriteToNonSequencer(t *testing.T) {
	const attempt, hedge = 8 * time.Second, 500 * time.Millisecond
	res := tcpnet.StaticResolver{}
	listen := func(addr transport.Addr) *tcpnet.Endpoint {
		t.Helper()
		ep, err := tcpnet.Listen(addr, "127.0.0.1:0", res)
		if err != nil {
			t.Fatal(err)
		}
		res[addr] = ep.TCPAddr()
		return ep
	}
	member := func(i int) gcs.MemberID { return gcs.MemberID(fmt.Sprintf("m%d", (i+2)%3)) }
	peers := map[gcs.MemberID]transport.Addr{}
	var gcsEPs, clientEPs, pbsEPs []*tcpnet.Endpoint
	text := "server_name = tcpcli\n"
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("head%d", i)
		peers[member(i)] = transport.Addr(name + "/gcs")
		gcsEPs = append(gcsEPs, listen(transport.Addr(name+"/gcs")))
		clientEPs = append(clientEPs, listen(transport.Addr(name+"/joshua")))
		pbsEPs = append(pbsEPs, listen(transport.Addr(name+"/pbs")))
		text += fmt.Sprintf("[head %s]\ngcs = %s\nclient = %s\npbs = %s\n",
			name, gcsEPs[i].TCPAddr(), clientEPs[i].TCPAddr(), pbsEPs[i].TCPAddr())
	}
	momEP := listen("compute0/mom")
	text += "[compute compute0]\nmom = " + momEP.TCPAddr() + "\n"
	conf, err := config.LoadCluster(writeConfig(t, text))
	if err != nil {
		t.Fatal(err)
	}

	initial := []gcs.MemberID{"m0", "m1", "m2"}
	var heads []*joshua.Server
	for i := 0; i < 3; i++ {
		srv := pbs.NewServer(pbs.Config{ServerName: "tcpcli", Nodes: []string{"compute0"}, Exclusive: true})
		daemon := pbs.NewDaemon(srv, pbs.DaemonConfig{
			Endpoint:       pbsEPs[i],
			Moms:           conf.MomAddrs(),
			ResendInterval: 100 * time.Millisecond,
		})
		head, err := joshua.StartServer(joshua.Config{
			Config: rsm.Config{
				Self:           member(i),
				GroupEndpoint:  gcsEPs[i],
				ClientEndpoint: clientEPs[i],
				Peers:          peers,
				InitialMembers: initial,
			},
			Daemon: daemon,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer head.Close()
		heads = append(heads, head)
	}
	for _, h := range heads {
		select {
		case <-h.Ready():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s not ready", h.Self())
		}
	}
	if first, seq := conf.HeadClientAddrs()[0], heads[0].View().Sequencer(); first != "head0/joshua" || seq != "m0" || heads[1].Self() != seq {
		t.Fatalf("first listed head %s, sequencer %s: want head0/joshua ahead of head1 (m0)", first, seq)
	}

	doneEP, err := tcpnet.Listen("compute0/jdone", "127.0.0.1:0", res)
	if err != nil {
		t.Fatal(err)
	}
	doneCli, err := joshua.NewClient(joshua.ClientConfig{Endpoint: doneEP, Heads: conf.HeadClientAddrs(), AttemptTimeout: attempt})
	if err != nil {
		t.Fatal(err)
	}
	defer doneCli.Close()
	mom := pbs.StartMom(pbs.MomConfig{
		Name:     "compute0",
		Endpoint: momEP,
		Complete: joshua.MomHooks(doneCli, "compute0"),
	})
	defer mom.Close()

	cli, err := NewClient(conf, attempt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	t0 := time.Now()
	j, err := cli.Submit(pbs.SubmitRequest{Name: "one-shot", WallTime: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= hedge {
		t.Fatalf("first jsub took %v; the origin must answer before the %v hedge", d, hedge)
	}
	// The client's start-up health probes may have connected it to the
	// sequencer, so also check that the origin itself relayed the reply:
	// its replies beyond local reads are the ordered command's.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := heads[0].Stats()
		if st.Replied > st.LocalReads+st.DedupHits {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("origin head0 never relayed the jsub reply: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		got, err := cli.Stat(j.ID)
		if err == nil && got.State == pbs.StateCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed (last: %+v, %v)", got, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := mom.Executions(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
}
