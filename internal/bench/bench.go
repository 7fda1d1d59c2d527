// Package bench is the measurement harness that regenerates the
// paper's evaluation: Figure 10 (job submission latency, single vs.
// multiple head nodes), Figure 11 (job submission throughput), and
// Figure 12 (availability/downtime), plus the ablations DESIGN.md
// calls out (safe vs. agreed delivery, output policies, batched
// submission, ordered vs. local reads).
//
// Calibration: absolute numbers are not the target — the paper's
// testbed was dual 450 MHz Pentium IIIs on a Fast Ethernet hub running
// Transis — but the latency model is chosen so the *shape* of the
// results holds: a single-head JOSHUA overhead in the tens of percent
// (local IPC), a large step from one to two heads (off-node total
// ordering), and modest per-head increments after that (per-member
// acknowledgment cost on a shared medium).
package bench

import (
	"fmt"
	"time"

	"joshua/internal/cluster"
	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/simnet"
)

// Calibration is the latency model for one experiment run.
type Calibration struct {
	// Scale multiplies every model constant; 1.0 targets paper-like
	// absolute magnitudes, benchmarks use 0.1 or less.
	Scale float64
	// Latency is the simulated network's hop model.
	Latency simnet.Latency
	// TxTime serializes each host's remote sends (shared-medium Fast
	// Ethernet hub).
	TxTime time.Duration
	// SubmitDelay is the batch service's qsub processing cost.
	SubmitDelay time.Duration
	// Heartbeat paces the group's failure detector; it must be slow
	// relative to TxTime so detector background traffic does not
	// saturate the simulated medium.
	Heartbeat time.Duration
	// Agreed downgrades delivery from safe (all-ack, the calibrated
	// default) to agreed (sequencer order only) — the delivery-
	// guarantee ablation.
	Agreed bool
	// OrderedCompletions routes mom completion reports through the
	// total order (the deterministic-allocation extension).
	OrderedCompletions bool
	// NoBatching disables sequencer DATA coalescing and ack-delay
	// piggybacking (MaxBatch=1, immediate per-message acks) — the
	// Transis-faithful one-datagram-per-message ablation.
	NoBatching bool
}

// PaperCalibration returns the model used for the Figure 10/11
// reproductions. At scale 1.0 the constants are in paper-scale
// milliseconds:
//
//	remote one-way hop   25 ms   (LAN + protocol processing)
//	local IPC hop        44 ms   (jsub -> joshua -> Transis daemon chain)
//	transmit slot        14 ms   (shared-hub serialization per datagram)
//	qsub processing      48 ms   (TORQUE server work per submission)
//
// which yields a ~98 ms unreplicated baseline (2 remote hops +
// processing) and a ~134 ms single-head JOSHUA path (one extra local
// hop), matching the paper's first two rows by construction; the
// multi-head rows then follow from the protocol's message pattern
// rather than from fitted constants.
func PaperCalibration(scale float64) Calibration {
	if scale <= 0 {
		scale = 1.0
	}
	ms := func(v float64) time.Duration {
		return time.Duration(v * scale * float64(time.Millisecond))
	}
	return Calibration{
		Scale:       scale,
		Latency:     simnet.Latency{Local: ms(44), Remote: ms(25)},
		TxTime:      ms(14),
		SubmitDelay: ms(48),
		Heartbeat:   ms(400),
	}
}

// tune applies the calibration's group communication settings: safe
// delivery and loopback self-delivery (the Transis-faithful delivery
// path) and a detector pace that stays off the measured medium.
func (cal Calibration) tune(c *gcs.Config) {
	c.SafeDelivery = !cal.Agreed
	c.LoopbackSelfDelivery = true
	c.Heartbeat = cal.Heartbeat
	c.FailTimeout = 8 * cal.Heartbeat
	c.ResendInterval = 4 * cal.Heartbeat
	c.FlushTimeout = 10 * cal.Heartbeat
	if cal.NoBatching {
		c.MaxBatch = 1
		c.AckDelay = -1
	}
}

// options builds the cluster configuration for one measured system.
func (cal Calibration) options(heads int, plain bool) cluster.Options {
	return cluster.Options{
		Heads:       heads,
		Computes:    1,
		Exclusive:   true,
		Latency:     cal.Latency,
		TxTime:      cal.TxTime,
		SubmitDelay: cal.SubmitDelay,
		Plain:       plain,
		TuneGCS:     cal.tune,
	}
}

func (cal Calibration) newCluster(heads int, plain bool) (*cluster.Cluster, error) {
	return cluster.New(cal.options(heads, plain))
}

// System is one measured deployment plus a client submitting from a
// separate login node, pinned to the highest-numbered head (the
// paper's off-node submission path: the intercepting head is not the
// sequencer once the group has two or more members).
type System struct {
	Name    string
	Heads   int
	Cluster *cluster.Cluster
	Client  *joshua.Client
}

// StartSystem boots one configuration: plain=true is the unreplicated
// TORQUE baseline; otherwise a JOSHUA group of the given size.
func StartSystem(cal Calibration, heads int, plain bool) (*System, error) {
	c, err := cal.newCluster(heads, plain)
	if err != nil {
		return nil, err
	}
	if !plain {
		if err := c.WaitReady(30 * time.Second); err != nil {
			c.Close()
			return nil, err
		}
	}
	cli, err := c.ClientFor(heads - 1)
	if err != nil {
		c.Close()
		return nil, err
	}
	name := fmt.Sprintf("JOSHUA/TORQUE %d", heads)
	if plain {
		name = "TORQUE"
	}
	return &System{Name: name, Heads: heads, Cluster: c, Client: cli}, nil
}

// Close tears the system down.
func (s *System) Close() { s.Cluster.Close() }

// holdSubmit is the measured operation: a job submission that goes on
// hold, so no job launches perturb the interconnect during
// measurement (the paper likewise measures pure submission).
func holdSubmit(cli *joshua.Client) error {
	_, err := cli.Submit(pbs.SubmitRequest{Name: "bench", Owner: "bench", Hold: true})
	return err
}

// MeasureLatency returns the mean single-submission latency over the
// given number of samples, after a short warmup.
func MeasureLatency(cli *joshua.Client, samples int) (time.Duration, error) {
	for i := 0; i < 3; i++ {
		if err := holdSubmit(cli); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < samples; i++ {
		if err := holdSubmit(cli); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(samples), nil
}

// MeasureThroughput returns the wall time to enqueue n jobs
// back-to-back — the paper's Figure 11 workload (sequential jsub of
// 10/50/100 jobs).
func MeasureThroughput(cli *joshua.Client, n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := holdSubmit(cli); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// MeasureBatchThroughput enqueues n jobs as a single batched command.
func MeasureBatchThroughput(cli *joshua.Client, n int) (time.Duration, error) {
	start := time.Now()
	if _, err := cli.SubmitBatch(pbs.SubmitRequest{Name: "bench", Owner: "bench", Hold: true}, n); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
