package pbs

import (
	"strings"
	"testing"
	"time"
)

func TestApplyDirectivesFull(t *testing.T) {
	req := SubmitRequest{Script: `#!/bin/sh
#PBS -N sim-run
#PBS -l nodes=2,walltime=01:30:00
#PBS -h
mpirun ./sim
`}
	if err := ApplyDirectives(&req); err != nil {
		t.Fatal(err)
	}
	if req.Name != "sim-run" || req.NodeCount != 2 || !req.Hold {
		t.Errorf("req = %+v", req)
	}
	if req.WallTime != 90*time.Minute {
		t.Errorf("walltime = %v", req.WallTime)
	}
}

func TestApplyDirectivesExplicitFieldsWin(t *testing.T) {
	req := SubmitRequest{
		Name:      "cli-name",
		NodeCount: 4,
		WallTime:  time.Hour,
		Script:    "#PBS -N script-name\n#PBS -l nodes=1,walltime=00:00:10\n",
	}
	if err := ApplyDirectives(&req); err != nil {
		t.Fatal(err)
	}
	if req.Name != "cli-name" || req.NodeCount != 4 || req.WallTime != time.Hour {
		t.Errorf("directives overrode explicit fields: %+v", req)
	}
}

func TestApplyDirectivesResources(t *testing.T) {
	req := SubmitRequest{Script: `#!/bin/sh
#PBS -l nodes=2,ncpus=2,mem=512mb,walltime=00:10:00
#PBS -p 7
#PBS -t 0-3
./work
`}
	if err := ApplyDirectives(&req); err != nil {
		t.Fatal(err)
	}
	if req.NodeCount != 2 || req.Resources.NCPUs != 2 || req.Resources.Mem != 512<<20 {
		t.Errorf("resources = %+v", req)
	}
	if req.Priority != 7 {
		t.Errorf("priority = %d", req.Priority)
	}
	if !req.Array.Set || req.Array.Start != 0 || req.Array.End != 3 {
		t.Errorf("array = %+v", req.Array)
	}
}

func TestApplyDirectivesStopAtFirstCommand(t *testing.T) {
	req := SubmitRequest{Script: `#!/bin/sh
echo running
#PBS -N too-late
`}
	if err := ApplyDirectives(&req); err != nil {
		t.Fatal(err)
	}
	if req.Name != "" {
		t.Errorf("directive after first command applied: %q", req.Name)
	}
}

func TestApplyDirectivesErrors(t *testing.T) {
	bad := []string{
		"#PBS -X unknown\n",
		"#PBS -N\n",
		"#PBS -l\n",
		"#PBS -l nodes\n",
		"#PBS -l nodes=zero\n",
		"#PBS -l walltime=1:2:3:4\n",
		"#PBS -l mem=lots\n",
		"#PBS -l ncpus=0\n",
		"#PBS -l vmem=4gb\n",
		"#PBS -p\n",
		"#PBS -p high\n",
		"#PBS -t\n",
		"#PBS -t 5-2\n",
	}
	for _, script := range bad {
		req := SubmitRequest{Script: script}
		if err := ApplyDirectives(&req); err == nil {
			t.Errorf("ApplyDirectives(%q) should fail", script)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("error should carry the line number: %v", err)
		}
	}
}

func TestParseWalltime(t *testing.T) {
	good := map[string]time.Duration{
		"01:30:00": 90 * time.Minute,
		"00:00:05": 5 * time.Second,
		"5:00":     5 * time.Minute,
		"42":       42 * time.Second,
		"90m":      90 * time.Minute,
		"1.5h":     90 * time.Minute,
	}
	for in, want := range good {
		got, err := ParseWalltime(in)
		if err != nil || got != want {
			t.Errorf("ParseWalltime(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "x", "-5", "-1h", "1:x:3", "1:2:3:4"} {
		if _, err := ParseWalltime(in); err == nil {
			t.Errorf("ParseWalltime(%q) should fail", in)
		}
	}
}

func TestApplyDirectivesEmptyScript(t *testing.T) {
	req := SubmitRequest{}
	if err := ApplyDirectives(&req); err != nil {
		t.Fatal(err)
	}
}

func TestFormatWalltime(t *testing.T) {
	cases := map[time.Duration]string{
		0:                               "00:00:00",
		5 * time.Second:                 "00:00:05",
		90 * time.Minute:                "01:30:00",
		25*time.Hour + 61*time.Second:   "25:01:01",
		123*time.Hour + 245*time.Second: "123:04:05",
		-time.Second:                    "00:00:00",
		1500 * time.Millisecond:         "00:00:01",
	}
	for d, want := range cases {
		if got := FormatWalltime(d); got != want {
			t.Errorf("FormatWalltime(%v) = %q, want %q", d, got, want)
		}
	}
	// Round trip with the parser.
	for _, d := range []time.Duration{0, time.Second, 90 * time.Minute, 48 * time.Hour} {
		got, err := ParseWalltime(FormatWalltime(d))
		if err != nil || got != d {
			t.Errorf("roundtrip %v -> %q -> %v, %v", d, FormatWalltime(d), got, err)
		}
	}
}
