package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/joshua"
	"joshua/internal/pbs"
)

// This file measures the concurrent read path: jstat-class queries
// served off the replication event loop by a read-worker pool. The
// workload is the paper's operational mix — a stream of job
// submissions with many jstat pollers watching the queue — and the
// interesting quantity is what polling costs the write path and what
// the write path costs the pollers.

// MixedReadResult is one measured run of the mixed read/write
// workload.
type MixedReadResult struct {
	// Pollers is how many jstat clients polled throughout.
	Pollers int `json:"pollers"`
	// Batches and BatchSize describe the submit stream: Batches
	// batched submissions of BatchSize jobs each.
	Batches   int `json:"batches"`
	BatchSize int `json:"batch_size"`
	// Reads is how many listings the pollers completed while the
	// submit stream ran.
	Reads int64 `json:"reads"`
	// ReadsPerSec is the aggregate poller throughput.
	ReadsPerSec float64 `json:"reads_per_sec"`
	// ReadMean is the mean per-listing latency seen by a poller.
	ReadMean time.Duration `json:"read_mean_ns"`
	// SubmitMean is the mean per-batch submission latency with the
	// pollers running — the read path's cost to the write path.
	SubmitMean time.Duration `json:"submit_mean_ns"`
}

// MeasureMixedReads runs the mixed workload once: pollers issue
// back-to-back StatAll queries while a separate client submits
// `batches` batched submissions of `batchSize` held jobs, and both
// sides are timed over the submission window. Batched submission is
// the paper's own throughput remedy, and it is the worst case for
// queries: applying one batch occupies the event loop for batchSize
// qsub-processing intervals, which the read pool must not wait behind.
func MeasureMixedReads(cal Calibration, heads, pollers, batches, batchSize int) (MixedReadResult, error) {
	res := MixedReadResult{Pollers: pollers, Batches: batches, BatchSize: batchSize}

	c, err := clusterNew(cal.options(heads, false))
	if err != nil {
		return res, err
	}
	defer c.Close()
	if err := c.WaitReady(30 * time.Second); err != nil {
		return res, err
	}

	submitCli, err := c.ClientFor(heads - 1)
	if err != nil {
		return res, err
	}
	live := make([]int, heads)
	for i := range live {
		live[i] = i
	}
	pollClients := make([]*joshua.Client, pollers)
	for p := range pollClients {
		if pollClients[p], err = c.ClientFor(live...); err != nil {
			return res, err
		}
	}

	// Seed one job so every listing carries real payload, and warm the
	// submission path.
	if err := holdSubmit(submitCli); err != nil {
		return res, err
	}

	stop := make(chan struct{})
	errCh := make(chan error, pollers)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for _, cli := range pollClients {
		wg.Add(1)
		go func(cli *joshua.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cli.StatAll(); err != nil {
					errCh <- err
					return
				}
				reads.Add(1)
			}
		}(cli)
	}

	start := time.Now()
	for i := 0; i < batches; i++ {
		if _, err := submitCli.SubmitBatch(pbs.SubmitRequest{Name: "bench", Owner: "bench", Hold: true}, batchSize); err != nil {
			close(stop)
			wg.Wait()
			return res, err
		}
	}
	elapsed := time.Since(start)
	n := reads.Load()
	close(stop)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return res, fmt.Errorf("poller: %w", err)
	}

	res.Reads = n
	res.ReadsPerSec = float64(n) / elapsed.Seconds()
	if n > 0 {
		res.ReadMean = time.Duration(int64(elapsed) * int64(pollers) / n)
	}
	res.SubmitMean = elapsed / time.Duration(batches)
	return res, nil
}
