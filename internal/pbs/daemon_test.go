package pbs

import (
	"strings"
	"testing"
	"time"

	"joshua/internal/simnet"
	"joshua/internal/transport"
)

func TestDaemonRestoreDropsOutstanding(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	srv := NewServer(Config{ServerName: "c", Nodes: []string{"n0"}, Exclusive: true})
	ep, _ := net.Endpoint("h/pbs")
	d := NewDaemon(srv, DaemonConfig{
		Endpoint:       ep,
		Moms:           map[string]transport.Addr{"n0": "nowhere/mom"},
		ResendInterval: 20 * time.Millisecond,
	})
	defer d.Close()

	// Start a job whose mom does not exist: it stays outstanding.
	j, err := d.Submit(SubmitRequest{WallTime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.Status(j.ID)
	if got.State != StateRunning {
		t.Fatalf("state = %v", got.State)
	}

	// Restore from a fresh snapshot of another server with the same
	// config: outstanding requests must be dropped with the old state.
	other := NewServer(Config{ServerName: "c", Nodes: []string{"n0"}, Exclusive: true})
	other.Submit(SubmitRequest{Name: "restored", Hold: true})
	if err := d.Restore(other.Snapshot()); err != nil {
		t.Fatal(err)
	}
	all := d.StatusAll()
	if len(all) != 1 || all[0].Name != "restored" {
		t.Fatalf("restored state = %+v", all)
	}
	// The old outstanding start must not be retransmitted for a job
	// that no longer exists; nothing to assert directly on the wire,
	// but resend() must not panic with the cleared table.
	time.Sleep(60 * time.Millisecond)
}

func TestDaemonRestoreRejectsCorrupt(t *testing.T) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	srv := NewServer(Config{ServerName: "c", Nodes: []string{"n0"}})
	ep, _ := net.Endpoint("h/pbs")
	d := NewDaemon(srv, DaemonConfig{Endpoint: ep, Moms: map[string]transport.Addr{}})
	defer d.Close()
	if err := d.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt snapshot should fail")
	}
}

func TestRunScript(t *testing.T) {
	cases := []struct {
		script string
		want   string
	}{
		{"", ""},
		{"echo hello", "hello\n"},
		{"#!/bin/sh\necho one\ntrue\necho two\n", "one\ntwo\n"},
		{`echo "quoted words"`, "quoted words\n"},
		{"echo 'single'", "single\n"},
		{"make -j8", "[1.c completed on nodeX]\n"},
	}
	for _, c := range cases {
		got := runScript(Job{ID: "1.c", Script: c.script}, "nodeX")
		if got != c.want {
			t.Errorf("runScript(%q) = %q, want %q", c.script, got, c.want)
		}
	}
}

func TestJobOutputThroughMom(t *testing.T) {
	r := newRig(t, 1, nil)
	j, err := r.daemon.Submit(SubmitRequest{
		Script:   "echo captured output",
		WallTime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.Output != "captured output\n" {
		t.Errorf("output = %q", got.Output)
	}
	if !strings.Contains(FullStatusText(got), "exit_status = 0") {
		t.Errorf("FullStatusText missing exit status")
	}
}

func TestKilledJobHasNoOutput(t *testing.T) {
	r := newRig(t, 1, nil)
	j, _ := r.daemon.Submit(SubmitRequest{Script: "echo never", WallTime: 10 * time.Second})
	waitState(t, r.daemon, j.ID, StateRunning, 5*time.Second)
	r.daemon.Delete(j.ID)
	waitState(t, r.daemon, j.ID, StateCompleted, 5*time.Second)
	got, _ := r.daemon.Status(j.ID)
	if got.Output != "" {
		t.Errorf("killed job output = %q, want empty", got.Output)
	}
	if got.ExitCode != ExitCodeKilled {
		t.Errorf("exit = %d", got.ExitCode)
	}
}
