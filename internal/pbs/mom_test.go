package pbs

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

// rig is a single-head batch system on a simulated network: one
// daemon-wrapped server and a set of moms, i.e. the paper's baseline
// TORQUE configuration.
type rig struct {
	net    *simnet.Network
	daemon *Daemon
	moms   []*Mom
}

func newRig(t *testing.T, nodes int, momCfg func(i int, c *MomConfig)) *rig {
	t.Helper()
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})

	nodeNames := make([]string, nodes)
	momAddrs := make(map[string]transport.Addr, nodes)
	for i := range nodeNames {
		nodeNames[i] = nodeName(i)
		momAddrs[nodeNames[i]] = transport.Addr(nodeNames[i] + "/mom")
	}

	srv := NewServer(Config{ServerName: "cluster", Nodes: nodeNames, Exclusive: true})
	headEp, err := net.Endpoint("head0/pbs")
	if err != nil {
		t.Fatal(err)
	}
	daemon := NewDaemon(srv, DaemonConfig{
		Endpoint:       headEp,
		Moms:           momAddrs,
		ResendInterval: 50 * time.Millisecond,
	})

	r := &rig{net: net, daemon: daemon}
	for i := 0; i < nodes; i++ {
		ep, err := net.Endpoint(momAddrs[nodeNames[i]])
		if err != nil {
			t.Fatal(err)
		}
		cfg := MomConfig{
			Name:     nodeNames[i],
			Endpoint: ep,
			Complete: applyTo(daemon, nodeNames[i]),
		}
		if momCfg != nil {
			momCfg(i, &cfg)
		}
		r.moms = append(r.moms, StartMom(cfg))
	}
	t.Cleanup(func() {
		daemon.Close()
		for _, m := range r.moms {
			m.Close()
		}
		net.Close()
	})
	return r
}

// applyTo is the Complete hook of a mom named node reporting straight
// to one head's daemon.
func applyTo(d *Daemon, node string) func(Job, int, string) error {
	return func(j Job, exitCode int, output string) error {
		return d.ApplyDone([]byte(j.ID), []byte(node), exitCode, []byte(output))
	}
}

// countCompletions wraps a mom's Complete hook so that n counts its
// calls.
func countCompletions(c *MomConfig, n *atomic.Int32) {
	next := c.Complete
	c.Complete = func(j Job, exitCode int, output string) error {
		n.Add(1)
		return next(j, exitCode, output)
	}
}

func nodeName(i int) string {
	return "compute" + string(rune('0'+i))
}

func waitState(t *testing.T, d *Daemon, id JobID, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, err := d.Status(id)
		if err == nil && j.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, err := d.Status(id)
	t.Fatalf("job %s never reached %v (now %+v, err %v)", id, want, j, err)
}

func TestJobRunsToCompletion(t *testing.T) {
	r := newRig(t, 1, nil)
	j, err := r.daemon.Submit(SubmitRequest{Name: "hello", WallTime: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.ExitCode != 0 {
		t.Errorf("exit code = %d", got.ExitCode)
	}
}

func TestJobsRunInFIFOOrder(t *testing.T) {
	r := newRig(t, 1, nil)
	var ids []JobID
	for i := 0; i < 5; i++ {
		j, err := r.daemon.Submit(SubmitRequest{WallTime: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	waitState(t, r.daemon, ids[4], StateCompleted, 10*time.Second)
	// Completion order must match submission order.
	var prev time.Time
	for _, id := range ids {
		j, _ := r.daemon.Status(id)
		if j.State != StateCompleted {
			t.Fatalf("job %s not completed", id)
		}
		if j.CompletedAt.Before(prev) {
			t.Fatalf("job %s completed before its FIFO predecessor", id)
		}
		prev = j.CompletedAt
	}
}

func TestKillRunningJob(t *testing.T) {
	r := newRig(t, 1, nil)
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: 10 * time.Second})
	waitState(t, r.daemon, j.ID, StateRunning, 5*time.Second)
	if _, err := r.daemon.Delete([]byte(j.ID)); err != nil {
		t.Fatal(err)
	}
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.ExitCode != ExitCodeKilled {
		t.Errorf("exit code = %d, want %d", got.ExitCode, ExitCodeKilled)
	}
}

// TestPrologueElectsSingleExecution: of a two-node job's moms, only
// the first node, the mother superior, executes it and completes it;
// the sister emulates the start and never completes. (The name is from
// when a prologue elected the run; the job's node list elects it now.)
func TestPrologueElectsSingleExecution(t *testing.T) {
	completions := make([]atomic.Int32, 2)
	r := newRig(t, 2, func(i int, c *MomConfig) { countCompletions(c, &completions[i]) })
	j, err := r.daemon.Submit(SubmitRequest{NodeCount: 2, WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	for i, m := range r.moms {
		want := 0
		if m.Name() == got.Nodes[0] {
			want = 1
		}
		if n := m.Executions(); n != want {
			t.Errorf("%s (job nodes %v): executions = %d, want %d", m.Name(), got.Nodes, n, want)
		}
		if n := completions[i].Load(); int(n) != want {
			t.Errorf("%s (job nodes %v): completions = %d, want %d", m.Name(), got.Nodes, n, want)
		}
	}
}

// TestEpilogueRuns: the Complete hook, the mom's job epilogue, runs
// exactly once for an executed job.
func TestEpilogueRuns(t *testing.T) {
	var completions atomic.Int32
	r := newRig(t, 1, func(i int, c *MomConfig) { countCompletions(c, &completions) })
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: time.Millisecond})
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	if n := completions.Load(); n != 1 {
		t.Errorf("completions = %d, want 1", n)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLateHeadStillHearsReport: a head that is down when its job
// finishes still hears the completion once it comes up, because the
// mom retries the completion until a head answers.
func TestLateHeadStillHearsReport(t *testing.T) {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	var head atomic.Pointer[Daemon]
	var calls atomic.Int32
	momEp, err := net.Endpoint("compute0/mom")
	if err != nil {
		t.Fatal(err)
	}
	mom := StartMom(MomConfig{
		Name:     "compute0",
		Endpoint: momEp,
		Complete: func(j Job, exitCode int, output string) error {
			calls.Add(1)
			d := head.Load()
			if d == nil {
				return errors.New("head0 unreachable")
			}
			return d.ApplyDone([]byte(j.ID), []byte("compute0"), exitCode, []byte(output))
		},
	})
	defer mom.Close()

	// The head's state machine schedules the job, but its start request
	// goes out from another address before the head's daemon exists.
	srv := NewServer(Config{ServerName: "cluster", Nodes: []string{"compute0"}, Exclusive: true})
	job, err := srv.Submit(SubmitRequest{WallTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	starter, err := net.Endpoint("starter/pbs")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range srv.TakeActions() {
		if s, ok := a.(StartAction); ok {
			start := encodeStart(&Job{ID: s.Job.ID, WallTime: s.Job.WallTime, Nodes: s.Job.Nodes})
			if err := starter.Send("compute0/mom", start); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "the first completion attempt to fail", func() bool { return calls.Load() > 0 })

	headEp, err := net.Endpoint("head0/pbs")
	if err != nil {
		t.Fatal(err)
	}
	daemon := NewDaemon(srv, DaemonConfig{
		Endpoint:       headEp,
		Moms:           map[string]transport.Addr{"compute0": "compute0/mom"},
		ResendInterval: time.Hour,
	})
	defer daemon.Close()
	head.Store(daemon)
	waitState(t, daemon, job.ID, StateCompleted, 5*time.Second)
	if n := mom.Executions(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

func TestMultiNodeJob(t *testing.T) {
	r := newRig(t, 2, nil)
	j, _ := r.daemon.Submit(SubmitRequest{NodeCount: 2, WallTime: 5 * time.Millisecond})
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if len(got.Nodes) != 2 {
		t.Errorf("allocated nodes = %v", got.Nodes)
	}
}

func TestStartSurvivesDatagramLoss(t *testing.T) {
	// Heavy loss on the start path: the daemon's retransmission must
	// still get the job to its mom, whose completion then applies.
	net := simnet.New(simnet.Config{
		Latency:  simnet.Latency{Remote: time.Millisecond},
		DropRate: 0.4,
		Seed:     3,
	})
	defer net.Close()
	srv := NewServer(Config{ServerName: "cluster", Nodes: []string{"compute0"}, Exclusive: true})
	headEp, _ := net.Endpoint("head0/pbs")
	daemon := NewDaemon(srv, DaemonConfig{
		Endpoint:       headEp,
		Moms:           map[string]transport.Addr{"compute0": "compute0/mom"},
		ResendInterval: 20 * time.Millisecond,
	})
	defer daemon.Close()
	momEp, _ := net.Endpoint("compute0/mom")
	mom := StartMom(MomConfig{Name: "compute0", Endpoint: momEp, Complete: applyTo(daemon, "compute0")})
	defer mom.Close()

	j, _ := daemon.Submit(SubmitRequest{WallTime: time.Millisecond})
	waitState(t, daemon, j.ID, StateCompleted, 15*time.Second)
}

func TestMomCrashLeavesJobRunning(t *testing.T) {
	// The paper's documented limitation: compute-node failure is not
	// tolerated; the job stays Running at the head.
	r := newRig(t, 1, nil)
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: 50 * time.Millisecond})
	waitState(t, r.daemon, j.ID, StateRunning, 5*time.Second)
	r.net.CrashHost("compute0")
	r.moms[0].Close()
	time.Sleep(300 * time.Millisecond)
	got, _ := r.daemon.Status(j.ID)
	if got.State != StateRunning {
		t.Errorf("state = %v; compute failure handling is documented as out of scope (paper §5)", got.State)
	}
}

func TestOnJobDoneCallback(t *testing.T) {
	var calls atomic.Int32
	net := simnet.New(simnet.Config{})
	defer net.Close()
	srv := NewServer(Config{ServerName: "cluster", Nodes: []string{"compute0"}, Exclusive: true})
	headEp, _ := net.Endpoint("head0/pbs")
	daemon := NewDaemon(srv, DaemonConfig{
		Endpoint: headEp,
		Moms:     map[string]transport.Addr{"compute0": "compute0/mom"},
		OnJobDone: func(id JobID, rc int) {
			calls.Add(1)
		},
	})
	defer daemon.Close()
	momEp, _ := net.Endpoint("compute0/mom")
	mom := StartMom(MomConfig{Name: "compute0", Endpoint: momEp, Complete: applyTo(daemon, "compute0")})
	defer mom.Close()

	j, _ := daemon.Submit(SubmitRequest{WallTime: time.Millisecond})
	waitState(t, daemon, j.ID, StateCompleted, 5*time.Second)
	waitFor(t, "the OnJobDone callback", func() bool { return calls.Load() > 0 })
	// A duplicate report must not double-fire the callback.
	if err := daemon.ApplyDone([]byte(j.ID), []byte("compute0"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("OnJobDone calls = %d, want 1", calls.Load())
	}
}

func TestMomTimeScale(t *testing.T) {
	r := newRig(t, 1, func(i int, c *MomConfig) { c.TimeScale = 0.1 })
	start := time.Now()
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: time.Second})
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	if elapsed := time.Since(start); elapsed > 700*time.Millisecond {
		t.Errorf("scaled job took %v, want ~100ms", elapsed)
	}
}

func TestMomRunningJobs(t *testing.T) {
	r := newRig(t, 1, nil)
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: 10 * time.Second})
	waitState(t, r.daemon, j.ID, StateRunning, 5*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if ids := r.moms[0].RunningJobs(); len(ids) == 1 && ids[0] == j.ID {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("mom RunningJobs = %v, want [%s]", r.moms[0].RunningJobs(), j.ID)
}
