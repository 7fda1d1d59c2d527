package pbs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// PBS directive parsing. Batch scripts conventionally embed their
// resource requests as "#PBS" comment lines, which qsub reads so the
// command line stays clean:
//
//	#!/bin/sh
//	#PBS -N my-simulation
//	#PBS -l nodes=2,walltime=01:30:00
//	#PBS -h
//	mpirun ./sim
//
// ApplyDirectives scans a script for such lines and fills the
// corresponding SubmitRequest fields. Explicitly set fields win over
// directives (command-line flags override the script, as in PBS).

// ApplyDirectives parses #PBS lines in req.Script and applies them to
// req. Fields already set (non-zero) are left alone. Unknown options
// and malformed resource lists are errors, mirroring qsub's strictness.
func ApplyDirectives(req *SubmitRequest) error {
	if req.Script == "" {
		return nil
	}
	for lineNo, raw := range strings.Split(req.Script, "\n") {
		line := strings.TrimSpace(raw)
		rest, ok := strings.CutPrefix(line, "#PBS")
		if !ok {
			// Directives must precede the first non-comment command
			// line, as in PBS.
			if line != "" && !strings.HasPrefix(line, "#") {
				break
			}
			continue
		}
		if err := applyDirectiveLine(req, strings.TrimSpace(rest)); err != nil {
			return fmt.Errorf("pbs: script line %d: %w", lineNo+1, err)
		}
	}
	return nil
}

func applyDirectiveLine(req *SubmitRequest, line string) error {
	fields := strings.Fields(line)
	for i := 0; i < len(fields); i++ {
		switch fields[i] {
		case "-N":
			i++
			if i >= len(fields) {
				return fmt.Errorf("-N requires a job name")
			}
			if req.Name == "" {
				req.Name = fields[i]
			}
		case "-h":
			req.Hold = true
		case "-p":
			i++
			if i >= len(fields) {
				return fmt.Errorf("-p requires a priority")
			}
			p, err := strconv.Atoi(fields[i])
			if err != nil {
				return fmt.Errorf("invalid priority %q", fields[i])
			}
			if req.Priority == 0 {
				req.Priority = p
			}
		case "-t":
			i++
			if i >= len(fields) {
				return fmt.Errorf("-t requires an array range")
			}
			a, err := ParseArrayRange(fields[i])
			if err != nil {
				return err
			}
			if !req.Array.Set {
				req.Array = a
			}
		case "-l":
			i++
			if i >= len(fields) {
				return fmt.Errorf("-l requires a resource list")
			}
			if err := ApplyResourceList(req, fields[i]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported directive %q", fields[i])
		}
	}
	return nil
}

// ApplyResourceList parses a "nodes=2,ncpus=2,mem=512mb,walltime=01:30:00"
// style list into req, leaving already-set fields alone. It backs both
// the #PBS -l directive and the jsub -l flag.
func ApplyResourceList(req *SubmitRequest, list string) error {
	for _, item := range strings.Split(list, ",") {
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return fmt.Errorf("malformed resource %q", item)
		}
		switch key {
		case "nodes", "nodect":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("invalid node count %q", val)
			}
			if req.NodeCount == 0 {
				req.NodeCount = n
			}
		case "ncpus":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return fmt.Errorf("invalid ncpus %q", val)
			}
			if req.Resources.NCPUs == 0 {
				req.Resources.NCPUs = n
			}
		case "mem":
			m, err := ParseMem(val)
			if err != nil {
				return err
			}
			if req.Resources.Mem == 0 {
				req.Resources.Mem = m
			}
		case "walltime":
			d, err := ParseWalltime(val)
			if err != nil {
				return err
			}
			if req.WallTime == 0 {
				req.WallTime = d
			}
		default:
			return fmt.Errorf("unsupported resource %q", key)
		}
	}
	return nil
}

// FormatWalltime renders a duration in the PBS HH:MM:SS form used by
// qstat and the accounting log.
func FormatWalltime(d time.Duration) string {
	return string(appendWalltime(make([]byte, 0, 8), d))
}

// appendWalltime appends FormatWalltime's text to b.
func appendWalltime(b []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	for i, v := range [3]int64{total / 3600, (total / 60) % 60, total % 60} {
		if i > 0 {
			b = append(b, ':')
		}
		if v < 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// ParseWalltime accepts the PBS HH:MM:SS form (also MM:SS and plain
// seconds) as well as Go duration strings ("90m", "1.5h").
func ParseWalltime(s string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("empty walltime")
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) > 3 {
			return 0, fmt.Errorf("invalid walltime %q", s)
		}
		var total time.Duration
		for _, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("invalid walltime %q", s)
			}
			total = total*60 + time.Duration(n)*time.Second
		}
		return total, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("invalid walltime %q", s)
		}
		return time.Duration(n) * time.Second, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid walltime %q", s)
	}
	return d, nil
}
