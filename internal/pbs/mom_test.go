package pbs

import (
	"sync"
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
			Name:           nodeNames[i],
			Endpoint:       ep,
			Servers:        []transport.Addr{"head0/pbs"},
			ReportInterval: 50 * time.Millisecond,
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
	if _, err := r.daemon.Delete(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.ExitCode != ExitCodeKilled {
		t.Errorf("exit code = %d, want %d", got.ExitCode, ExitCodeKilled)
	}
}

func TestPrologueElectsSingleExecution(t *testing.T) {
	var executions atomic.Int32
	var attempts atomic.Int32
	var mu sync.Mutex
	elected := map[JobID]bool{}
	r := newRig(t, 1, func(i int, c *MomConfig) {
		c.Prologue = func(job Job) (bool, error) {
			attempts.Add(1)
			mu.Lock()
			defer mu.Unlock()
			if elected[job.ID] {
				return false, nil
			}
			elected[job.ID] = true
			executions.Add(1)
			return true, nil
		}
	})
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: 5 * time.Millisecond})
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	if executions.Load() != 1 {
		t.Errorf("executions = %d, want 1", executions.Load())
	}
	if attempts.Load() != 1 {
		t.Errorf("prologue ran %d times, want 1", attempts.Load())
	}
}

func TestEpilogueRuns(t *testing.T) {
	var epilogues atomic.Int32
	r := newRig(t, 1, func(i int, c *MomConfig) {
		c.Epilogue = func(job Job) { epilogues.Add(1) }
	})
	j, _ := r.daemon.Submit(SubmitRequest{WallTime: time.Millisecond})
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	// The epilogue follows the completion report, so it may still be
	// on its way when the head has the job completed.
	waitFor(t, "the epilogue", func() bool { return epilogues.Load() > 0 })
	if epilogues.Load() != 1 {
		t.Errorf("epilogues = %d, want 1", epilogues.Load())
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

// TestReportPrecedesEpilogue: the heads hear of a finished job before
// the epilogue (JOSHUA's jdone) runs, and the epilogue still runs
// exactly once: for an executed job, and for one killed before any
// attempt executed.
func TestReportPrecedesEpilogue(t *testing.T) {
	for _, killed := range []bool{false, true} {
		name := "executed"
		if killed {
			name = "killed-before-execution"
		}
		t.Run(name, func(t *testing.T) {
			var entered, exited atomic.Int32
			releaseEpilogue := make(chan struct{})
			releasePrologue := make(chan struct{})
			prologueEntered := make(chan struct{}, 1)
			// The observer hears only the mom's first send: it never
			// asks for a report, and resends are an hour apart. (The
			// head also hears one when its start retransmission finds
			// the job finished.)
			r := newRig(t, 1, func(i int, c *MomConfig) {
				c.Servers = append(c.Servers, "observer/pbs")
				c.ReportInterval = time.Hour
				c.Prologue = func(Job) (bool, error) {
					prologueEntered <- struct{}{}
					if killed {
						<-releasePrologue
					}
					return true, nil
				}
				c.Epilogue = func(Job) {
					entered.Add(1)
					<-releaseEpilogue
					exited.Add(1)
				}
			})
			// Registered after the rig, so it runs before the rig's
			// cleanup and no hook is left blocked.
			var once sync.Once
			release := func() {
				once.Do(func() {
					close(releasePrologue)
					close(releaseEpilogue)
				})
			}
			t.Cleanup(release)
			observer, err := r.net.Endpoint("observer/pbs")
			if err != nil {
				t.Fatal(err)
			}
			reports := recordReports(observer)

			wall := time.Millisecond
			if killed {
				wall = 10 * time.Second
			}
			j, err := r.daemon.Submit(SubmitRequest{WallTime: wall})
			if err != nil {
				t.Fatal(err)
			}
			<-prologueEntered
			if killed {
				if _, err := r.daemon.Delete(j.ID); err != nil {
					t.Fatal(err)
				}
			}
			waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
			waitFor(t, "the report at the observer", func() bool { return len(reports()) > 0 })
			if got := exited.Load(); got != 0 {
				t.Fatalf("epilogue returned %d times before its release; the report must not wait for it", got)
			}
			if killed {
				got, _ := r.daemon.Status(j.ID)
				if got.ExitCode != ExitCodeKilled {
					t.Errorf("exit code = %d, want %d", got.ExitCode, ExitCodeKilled)
				}
			}
			release()
			waitFor(t, "the epilogue to return", func() bool { return exited.Load() > 0 })
			if n := entered.Load(); n != 1 {
				t.Errorf("epilogue ran %d times, want 1", n)
			}
		})
	}
}

// recordReports collects the arrival times of completion reports at ep,
// which never acknowledges them.
func recordReports(ep transport.Endpoint) func() []time.Time {
	var mu sync.Mutex
	var at []time.Time
	go func() {
		for dg := range ep.Recv() {
			if msg, err := decodeMomMsg(dg.Payload); err == nil && msg.Kind == momKindDone {
				mu.Lock()
				at = append(at, time.Now())
				mu.Unlock()
			}
		}
	}()
	return func() []time.Time {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Time(nil), at...)
	}
}

// TestReportRetransmitBackoff: a head that is listed but never acks
// (down, or never started) gets a backed-off series of resends that
// stops at the horizon, not one resend per tick.
func TestReportRetransmitBackoff(t *testing.T) {
	const interval = 10 * time.Millisecond
	const slack = interval + 10*time.Millisecond
	r := newRig(t, 1, func(i int, c *MomConfig) {
		c.Servers = append(c.Servers, "silent/pbs")
		c.ReportInterval = interval
	})
	silent, err := r.net.Endpoint("silent/pbs")
	if err != nil {
		t.Fatal(err)
	}
	reports := recordReports(silent)

	j, _ := r.daemon.Submit(SubmitRequest{WallTime: time.Millisecond})
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	waitFor(t, "the first report at the silent head", func() bool { return len(reports()) > 0 })
	first := reports()[0]
	// Past the horizon by a margin wider than the longest gap.
	time.Sleep(time.Until(first.Add((reportHorizon + 2*maxReportGap) * interval)))

	at := reports()
	gaps := make([]time.Duration, 0, len(at))
	for i := 1; i < len(at); i++ {
		gaps = append(gaps, at[i].Sub(at[i-1]).Round(time.Millisecond))
	}
	t.Logf("%d reports at the silent head, gaps %v", len(at), gaps)
	if len(at) > 12 {
		t.Fatalf("silent head got %d reports in %d intervals, want <= 12", len(at), reportHorizon)
	}
	if len(at) < 4 {
		t.Fatalf("silent head got %d reports, want the report retransmitted", len(at))
	}
	for i, gap := range gaps {
		if i > 0 && gap+slack < gaps[i-1] {
			t.Errorf("gap %d is %v after a gap of %v: gaps must not shrink", i, gap, gaps[i-1])
		}
		if gap > maxReportGap*interval+slack {
			t.Errorf("gap %d is %v, want <= %v", i, gap, maxReportGap*interval)
		}
	}
	if last := at[len(at)-1].Sub(first); last > reportHorizon*interval+slack {
		t.Errorf("report resent %v after the first, past the %v horizon", last, reportHorizon*interval)
	}
}

// TestLateHeadStillHearsReport: a head that comes up after the job
// finished, and never asks the mom again, hears the report within one
// capped gap.
func TestLateHeadStillHearsReport(t *testing.T) {
	const interval = 10 * time.Millisecond
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: time.Millisecond}})
	defer net.Close()
	momEp, err := net.Endpoint("compute0/mom")
	if err != nil {
		t.Fatal(err)
	}
	mom := StartMom(MomConfig{
		Name:           "compute0",
		Endpoint:       momEp,
		Servers:        []transport.Addr{"head0/pbs"},
		ReportInterval: interval,
	})
	defer mom.Close()

	// The head's state machine schedules the job, but its start request
	// goes out from another address before the head's endpoint exists,
	// so every report until then is lost.
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
			msg := &momMsg{Kind: momKindStart, JobID: s.Job.ID, WallTime: s.Job.WallTime, Nodes: s.Job.Nodes}
			if err := starter.Send("compute0/mom", msg.encode()); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "the job to finish", func() bool {
		mom.mu.Lock()
		defer mom.mu.Unlock()
		j, ok := mom.jobs[job.ID]
		return ok && j.state == momFinished
	})
	// Into the capped part of the schedule, where gaps are longest.
	time.Sleep(2 * maxReportGap * interval)

	headEp, err := net.Endpoint("head0/pbs")
	if err != nil {
		t.Fatal(err)
	}
	up := time.Now()
	daemon := NewDaemon(srv, DaemonConfig{
		Endpoint:       headEp,
		Moms:           map[string]transport.Addr{"compute0": "compute0/mom"},
		ResendInterval: time.Hour,
	})
	defer daemon.Close()
	waitState(t, daemon, job.ID, StateCompleted, 5*time.Second)
	if took, limit := time.Since(up), (maxReportGap+4)*interval; took > limit {
		t.Errorf("late head heard the report after %v, want <= %v", took, limit)
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
	// Heavy loss: daemon retransmission and mom report retransmission
	// must still complete the job.
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
	mom := StartMom(MomConfig{
		Name:           "compute0",
		Endpoint:       momEp,
		Servers:        []transport.Addr{"head0/pbs"},
		ReportInterval: 20 * time.Millisecond,
	})
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
	mom := StartMom(MomConfig{
		Name: "compute0", Endpoint: momEp,
		Servers:        []transport.Addr{"head0/pbs"},
		ReportInterval: 20 * time.Millisecond,
	})
	defer mom.Close()

	j, _ := daemon.Submit(SubmitRequest{WallTime: time.Millisecond})
	waitState(t, daemon, j.ID, StateCompleted, 5*time.Second)
	// Duplicate reports must not double-fire the callback.
	time.Sleep(100 * time.Millisecond)
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
