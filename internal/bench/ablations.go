package bench

import (
	"errors"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/pbs"
)

// This file measures the design-choice ablations DESIGN.md calls out.

var errTimeout = errors.New("bench: workload did not complete in time")

// clusterNew is a seam for building ablation clusters.
func clusterNew(opts cluster.Options) (*cluster.Cluster, error) {
	return cluster.New(opts)
}

// AblationResult is one compared pair of configurations.
type AblationResult struct {
	Name     string
	Variants map[string]time.Duration
}

// AblationSafeDelivery compares submission latency under safe
// delivery (deliver after every member acknowledged receipt — the
// calibrated default, closing the amnesia window) against agreed
// delivery (deliver on sequencer order alone).
func AblationSafeDelivery(cal Calibration, heads, samples int) (AblationResult, error) {
	res := AblationResult{Name: "delivery guarantee", Variants: map[string]time.Duration{}}

	for _, agreed := range []bool{false, true} {
		c := cal
		c.Agreed = agreed
		sys, err := StartSystem(c, heads, false)
		if err != nil {
			return res, err
		}
		lat, err := MeasureLatency(sys.Client, samples)
		sys.Close()
		if err != nil {
			return res, err
		}
		if agreed {
			res.Variants["agreed"] = lat
		} else {
			res.Variants["safe"] = lat
		}
	}
	return res, nil
}

// AblationBatchSubmission compares enqueueing n jobs as n sequential
// commands versus one batched command — quantifying the remedy the
// paper suggests for total-order throughput overhead.
func AblationBatchSubmission(cal Calibration, heads, n int) (AblationResult, error) {
	res := AblationResult{Name: "batched submission", Variants: map[string]time.Duration{}}
	sys, err := StartSystem(cal, heads, false)
	if err != nil {
		return res, err
	}
	defer sys.Close()

	seq, err := MeasureThroughput(sys.Client, n)
	if err != nil {
		return res, err
	}
	res.Variants["sequential"] = seq

	batched, err := MeasureBatchThroughput(sys.Client, n)
	if err != nil {
		return res, err
	}
	res.Variants["batched"] = batched
	return res, nil
}

// AblationReads compares totally ordered (linearizable) jstat reads
// against local (possibly stale) reads on the same group.
func AblationReads(cal Calibration, heads, samples int) (AblationResult, error) {
	res := AblationResult{Name: "ordered vs local reads", Variants: map[string]time.Duration{}}
	sys, err := StartSystem(cal, heads, false)
	if err != nil {
		return res, err
	}
	defer sys.Close()

	j, err := sys.Client.Submit(pbs.SubmitRequest{Name: "probe", Owner: "bench", Hold: true})
	if err != nil {
		return res, err
	}

	start := time.Now()
	for i := 0; i < samples; i++ {
		if _, err := sys.Client.StatOrdered(j.ID); err != nil {
			return res, err
		}
	}
	res.Variants["ordered"] = time.Since(start) / time.Duration(samples)

	start = time.Now()
	for i := 0; i < samples; i++ {
		if _, err := sys.Client.StatLocal(j.ID); err != nil {
			return res, err
		}
	}
	res.Variants["local"] = time.Since(start) / time.Duration(samples)
	return res, nil
}

// MeasureSequencerFailoverStall measures JOSHUA's worst-case command
// stall: the sequencer head fails and a command submitted through a
// surviving head cannot be ordered until the failure is detected and
// the view change completes. This is the replicated system's analogue
// of the 3-5 second active/standby failover the paper's related work
// reports — except the service state is never lost and jobs never
// restart; only ordering pauses, bounded by the failure-detection
// timeout plus one flush round.
func MeasureSequencerFailoverStall(cal Calibration) (stall, normal time.Duration, err error) {
	sys, err := StartSystem(cal, 2, false) // client pinned to head1
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()

	// Warm path, and a baseline sample.
	if err := holdSubmit(sys.Client); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := holdSubmit(sys.Client); err != nil {
		return 0, 0, err
	}
	normal = time.Since(start)

	// Kill the sequencer (head0) and time the next command end to
	// end, including detection, flush, and retransmission.
	sys.Cluster.CrashHead(0)
	start = time.Now()
	if err := holdSubmit(sys.Client); err != nil {
		return 0, 0, err
	}
	stall = time.Since(start)
	return stall, normal, nil
}

// AblationOrderedCompletions compares the makespan of a short
// workload with mom completion reports applied directly at each head
// (the paper's design) versus replicated through the total order (the
// deterministic-allocation extension): ordering adds one total-order
// round per completion, on the critical path between FIFO jobs.
func AblationOrderedCompletions(cal Calibration, heads, jobs int) (AblationResult, error) {
	res := AblationResult{Name: "completion ordering", Variants: map[string]time.Duration{}}
	for _, ordered := range []bool{false, true} {
		c := cal
		c.OrderedCompletions = ordered
		opts := c.options(heads, false)
		opts.TimeScale = 1.0
		cl, err := clusterNew(opts)
		if err != nil {
			return res, err
		}
		if err := cl.WaitReady(30 * time.Second); err != nil {
			cl.Close()
			return res, err
		}
		cli, err := cl.ClientFor(heads - 1)
		if err != nil {
			cl.Close()
			return res, err
		}
		start := time.Now()
		var ids []pbs.JobID
		for i := 0; i < jobs; i++ {
			j, err := cli.Submit(pbs.SubmitRequest{Name: "w", WallTime: time.Millisecond})
			if err != nil {
				cl.Close()
				return res, err
			}
			ids = append(ids, j.ID)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for {
			last, err := cli.StatLocal(ids[len(ids)-1])
			if err == nil && len(last) == 1 && last[0].State == pbs.StateCompleted {
				break
			}
			if time.Now().After(deadline) {
				cl.Close()
				return res, errTimeout
			}
			time.Sleep(5 * time.Millisecond)
		}
		elapsed := time.Since(start)
		cl.Close()
		if ordered {
			res.Variants["ordered"] = elapsed
		} else {
			res.Variants["direct"] = elapsed
		}
	}
	return res, nil
}

// AblationExclusiveScheduling compares time-to-complete a small mixed
// workload under the paper's exclusive Maui policy versus first-fit
// packing (the restriction the paper says "may be lifted in the
// future").
func AblationExclusiveScheduling(cal Calibration, jobs int) (AblationResult, error) {
	res := AblationResult{Name: "exclusive vs packed scheduling", Variants: map[string]time.Duration{}}
	for _, exclusive := range []bool{true, false} {
		opts := cal.options(2, false)
		opts.Exclusive = exclusive
		opts.Computes = 4
		opts.TimeScale = 1.0
		c, err := clusterNew(opts)
		if err != nil {
			return res, err
		}
		if err := c.WaitReady(30 * time.Second); err != nil {
			c.Close()
			return res, err
		}
		cli, err := c.ClientFor(1)
		if err != nil {
			c.Close()
			return res, err
		}
		start := time.Now()
		var ids []pbs.JobID
		for i := 0; i < jobs; i++ {
			j, err := cli.Submit(pbs.SubmitRequest{
				Name:     "work",
				Owner:    "bench",
				WallTime: 50 * time.Millisecond,
			})
			if err != nil {
				c.Close()
				return res, err
			}
			ids = append(ids, j.ID)
		}
		// Wait for completion of the whole workload.
		deadline := time.Now().Add(2 * time.Minute)
		for {
			done := true
			for _, id := range ids {
				j, err := cli.StatLocal(id)
				if err != nil || len(j) == 0 || j[0].State != pbs.StateCompleted {
					done = false
					break
				}
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				c.Close()
				return res, errTimeout
			}
			time.Sleep(5 * time.Millisecond)
		}
		elapsed := time.Since(start)
		c.Close()
		if exclusive {
			res.Variants["exclusive"] = elapsed
		} else {
			res.Variants["packed"] = elapsed
		}
	}
	return res, nil
}
