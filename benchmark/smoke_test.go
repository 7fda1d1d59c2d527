package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The smoke runs shorten every phase to a few hundred milliseconds
// (one fault cycle for failover) and assert nothing about time: only
// that each workload runs, that the invariants hold, and that every
// metric of the contract is reported.

func smokeConfig(t *testing.T, trace bool) *config {
	return &config{seed: 11, seconds: 0.6, trace: trace, runs: 1, out: t.TempDir(), setups: 1}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t, false)
			wr, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(wr.Violations) > 0 || !wr.Correct {
				t.Errorf("violations: %q", wr.Violations)
			}
			if wr.Attempted < 1 {
				t.Errorf("attempted %d operations", wr.Attempted)
			}
			for _, d := range endToEnd {
				m, ok := wr.Metrics[d.Name]
				if !ok {
					t.Errorf("metric %s missing", d.Name)
				} else if m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("metric %s = %v %s, want a positive value in %s", d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.out, "data-*")); len(left) > 0 {
				t.Errorf("data directories left behind: %v", left)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer drivers take some seconds")
	}
	cfg := smokeConfig(t, true)
	wr, err := runWorkload(cfg, findWorkload("lifecycle"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Violations) > 0 {
		t.Errorf("violations: %q", wr.Violations)
	}
	for _, d := range perLayer {
		if _, ok := wr.Metrics[d.Name]; !ok {
			t.Errorf("layer metric %s missing", d.Name)
		}
	}
	// A driver that ran reports something; these never read 0.
	for _, name := range []string{
		"codec.job_roundtrip_ns", "simnet.hop_overhead_us", "tcpnet.rtt_p50_us", "gcs.order_p50_ms",
		"gcs.view_change_ms", "wal.append_commit_p50_us", "wal.replay_records_per_s", "rsm.put_p50_ms",
		"pbs.submit_ns_q25k", "pbs.restore_ms_q25k", "joshua.heads4_submit_p50_ms", "joshua.client_failover_ms",
		"shard.submits_per_s_2x2", "cluster.boot_ms", "pbs.commands_per_job", "pbs.executions_per_job",
		"client.turnaround_p50_ms", "simnet.msgs_per_op",
	} {
		if wr.Metrics[name].Value <= 0 {
			t.Errorf("layer metric %s = %v, want a positive value", name, wr.Metrics[name].Value)
		}
	}
	if fi, err := os.Stat(filepath.Join(cfg.out, "trace-lifecycle.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.out, "d*-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
