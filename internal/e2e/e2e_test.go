// Package e2e builds the one command binary, links it under the
// paper's command names (joshuad, jmomd, jsub, jstat, jdel, ...), and
// drives a two-head deployment over actual TCP sockets and OS
// processes — the closest this repository gets to the paper's physical
// test cluster, including a kill -9 of a head node mid-service.
package e2e

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// commandNames are the names the joshua binary answers to, one link
// each in the bin directory.
var commandNames = []string{"joshuad", "jmomd", "jsub", "jdel", "jhold", "jrls", "jsig", "jstat", "jnodes", "jadmin"}

// binDir holds the built binary and its links, shared across tests in
// this package.
var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func buildBinaries(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "joshua-e2e-bin")
		if binErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, "joshua"), "./cmd/joshua")
		cmd.Dir = repoRoot()
		out, err := cmd.CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		for _, name := range commandNames {
			if binErr = os.Symlink("joshua", filepath.Join(binDir, name)); binErr != nil {
				return
			}
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binDir
}

func repoRoot() string {
	dir, _ := os.Getwd()
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// freePorts grabs n distinct free TCP ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, 0, n)
	listeners := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

type deployment struct {
	t       *testing.T
	bin     string
	conf    string
	daemons map[string]*exec.Cmd
}

func deploy(t *testing.T) *deployment {
	t.Helper()
	bin := buildBinaries(t)
	p := freePorts(t, 7)
	conf := filepath.Join(t.TempDir(), "cluster.conf")
	body := fmt.Sprintf(`server_name = cluster

[head head0]
gcs    = 127.0.0.1:%d
client = 127.0.0.1:%d
pbs    = 127.0.0.1:%d

[head head1]
gcs    = 127.0.0.1:%d
client = 127.0.0.1:%d
pbs    = 127.0.0.1:%d

[compute compute0]
mom = 127.0.0.1:%d

[options]
exclusive = true
apply_concurrency = 2
checkpoint_every = 64
sync_policy = interval
lease_duration = 300ms
`, p[0], p[1], p[2], p[3], p[4], p[5], p[6])
	if err := os.WriteFile(conf, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	d := &deployment{t: t, bin: bin, conf: conf, daemons: map[string]*exec.Cmd{}}
	d.startDaemon("joshuad", "head0")
	d.startDaemon("joshuad", "head1")
	d.startDaemon("jmomd", "compute0")
	t.Cleanup(d.stopAll)

	// Wait for the group to answer a status query.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := d.run("jstat"); err == nil {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatal("deployment never became ready")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func (d *deployment) startDaemon(name, id string) {
	cmd := exec.Command(filepath.Join(d.bin, name), "-config", d.conf, "-id", id)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		d.t.Fatal(err)
	}
	d.daemons[id] = cmd
}

// killHard delivers SIGKILL — the forced shutdown of the paper's
// failure testing.
func (d *deployment) killHard(id string) {
	cmd := d.daemons[id]
	if cmd == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()
	delete(d.daemons, id)
}

func (d *deployment) stopAll() {
	for id, cmd := range d.daemons {
		cmd.Process.Kill()
		cmd.Wait()
		delete(d.daemons, id)
	}
}

// run executes a control command against the deployment.
func (d *deployment) run(name string, args ...string) (string, error) {
	full := append([]string{"-config", d.conf}, args...)
	cmd := exec.Command(filepath.Join(d.bin, name), full...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	d := deploy(t)

	// Submit a short job via jsub and watch it complete via jstat.
	out, err := d.run("jsub", "-N", "e2e-job", "-o", "alice", "-w", "300ms")
	if err != nil {
		t.Fatalf("jsub: %v\n%s", err, out)
	}
	jobID := strings.TrimSpace(out)
	if jobID != "1.cluster" {
		t.Fatalf("job ID = %q", jobID)
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		out, err := d.run("jstat", "-f", jobID)
		if err == nil && strings.Contains(out, "job_state = C") {
			if !strings.Contains(out, "exit_status = 0") {
				t.Fatalf("unexpected completion record:\n%s", out)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed; last jstat:\n%s", out)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Hold / release / delete round trip.
	out, err = d.run("jsub", "-N", "held", "-hold")
	if err != nil {
		t.Fatalf("jsub -hold: %v\n%s", err, out)
	}
	held := strings.TrimSpace(out)
	if out, err := d.run("jrls", held); err != nil {
		t.Fatalf("jrls: %v\n%s", err, out)
	}
	if out, err := d.run("jdel", held); err != nil {
		// The released job may already have completed (it has zero
		// wall time); unknown-job is then the correct answer.
		if !strings.Contains(out, "Unknown Job Id") && !strings.Contains(out, "invalid for state") {
			t.Fatalf("jdel: %v\n%s", err, out)
		}
	}
}

func TestBinariesSurviveHeadKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	d := deploy(t)

	out, err := d.run("jsub", "-N", "pre-kill", "-hold")
	if err != nil {
		t.Fatalf("jsub: %v\n%s", err, out)
	}

	// kill -9 the sequencer head.
	d.killHard("head0")

	// The service keeps answering; state is intact.
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for {
		out, err := d.run("jsub", "-N", "post-kill", "-hold")
		if err == nil {
			if strings.TrimSpace(out) != "2.cluster" {
				t.Fatalf("post-kill job ID = %q (state lost?)", strings.TrimSpace(out))
			}
			break
		}
		lastErr = fmt.Errorf("%v: %s", err, out)
		if time.Now().After(deadline) {
			t.Fatalf("service unavailable after head kill: %v", lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}

	out, err = d.run("jstat")
	if err != nil {
		t.Fatalf("jstat after kill: %v\n%s", err, out)
	}
	if !strings.Contains(out, "pre-kill") || !strings.Contains(out, "post-kill") {
		t.Fatalf("queue state lost:\n%s", out)
	}
}

func TestBinariesDirectivesAndNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	d := deploy(t)

	// A job script with #PBS directives, submitted via stdin.
	script := "#!/bin/sh\n#PBS -N scripted\n#PBS -l nodes=1,walltime=00:00:01\necho scripted output\n"
	scriptPath := filepath.Join(t.TempDir(), "job.sh")
	if err := os.WriteFile(scriptPath, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := d.run("jsub", scriptPath)
	if err != nil {
		t.Fatalf("jsub script: %v\n%s", err, out)
	}
	jobID := strings.TrimSpace(out)

	deadline := time.Now().Add(20 * time.Second)
	for {
		out, err := d.run("jstat", "-f", jobID)
		if err == nil && strings.Contains(out, "job_state = C") {
			if !strings.Contains(out, "Job_Name = scripted") {
				t.Fatalf("directive name lost:\n%s", out)
			}
			if !strings.Contains(out, "scripted output") {
				t.Fatalf("captured output missing:\n%s", out)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scripted job never completed:\n%s", out)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Operator report from every head.
	out, err = d.run("jadmin")
	if err != nil {
		t.Fatalf("jadmin: %v\n%s", err, out)
	}
	if !strings.Contains(out, "head0") || !strings.Contains(out, "mode") ||
		!strings.Contains(out, "primary") {
		t.Fatalf("jadmin output:\n%s", out)
	}
	// The [options] apply_concurrency key reached both heads' engines.
	if n := len(regexp.MustCompile(`apply_workers\s+2\n`).FindAllString(out, -1)); n != 2 {
		t.Fatalf("jadmin reports apply_concurrency = 2 on %d of 2 heads:\n%s", n, out)
	}

	// Node management round trip.
	if out, err := d.run("jnodes", "-o", "compute0"); err != nil {
		t.Fatalf("jnodes -o: %v\n%s", err, out)
	}
	out, err = d.run("jnodes")
	if err != nil || !strings.Contains(out, "offline") {
		t.Fatalf("jnodes listing: %v\n%s", err, out)
	}
	if out, err := d.run("jnodes", "-c", "compute0"); err != nil {
		t.Fatalf("jnodes -c: %v\n%s", err, out)
	}
	out, err = d.run("jnodes")
	if err != nil || strings.Contains(out, "offline") {
		t.Fatalf("node still offline: %v\n%s", err, out)
	}
}

// TestCommandDispatch checks that the one binary answers to each
// command's name, both through its link and as "joshua <name>", and
// that an unknown command lists the table and fails.
func TestCommandDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	bin := buildBinaries(t)
	joshua := filepath.Join(bin, "joshua")
	for _, name := range commandNames {
		for _, argv := range [][]string{{filepath.Join(bin, name), "-h"}, {joshua, name, "-h"}} {
			out, err := exec.Command(argv[0], argv[1:]...).CombinedOutput()
			if err != nil {
				t.Errorf("%v: %v\n%s", argv, err, out)
			}
			if !strings.HasPrefix(string(out), "usage: "+name+" -config") || !strings.Contains(string(out), "-config string") {
				t.Errorf("%v printed another command's usage:\n%s", argv, out)
			}
		}
	}

	out, err := exec.Command(joshua, "nosuch").CombinedOutput()
	if err == nil {
		t.Fatalf("joshua nosuch succeeded:\n%s", out)
	}
	for _, name := range commandNames {
		if !strings.Contains(string(out), "\n  "+name+" ") {
			t.Errorf("joshua nosuch does not list %s:\n%s", name, out)
		}
	}
}
