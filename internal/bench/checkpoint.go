package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// This file measures what checkpointing costs the submission path
// (DESIGN.md §6.10): with a fat replicated state, the engine forks a
// copy-on-write image on the loop (map copies, no serialization) and
// lets a background goroutine do the encode+CRC+fsync, so the
// checkpoint boundary should all but disappear from the p99.9 tail
// against the no-checkpoint floor. The same fork powers the donor side
// of join-time state transfer, measured here as time-to-ready for a
// joiner while the donor keeps taking writes.

// CheckpointVariant is one checkpoint-policy run of the tail-latency
// figure.
type CheckpointVariant struct {
	// Name is "off-loop" (forked background checkpoints) or "none"
	// (checkpoints disabled, the floor).
	Name string `json:"name"`
	// Client-observed put latency percentiles across a run that
	// crosses many checkpoint boundaries.
	SubmitP50  time.Duration `json:"submit_p50_ns"`
	SubmitP99  time.Duration `json:"submit_p99_ns"`
	SubmitP999 time.Duration `json:"submit_p999_ns"`
	SubmitMax  time.Duration `json:"submit_max_ns"`
	// Checkpoint accounting after the run.
	CheckpointIndex uint64 `json:"checkpoint_index"`
	CkptBytes       uint64 `json:"ckpt_bytes"`
	CkptLastNs      uint64 `json:"ckpt_last_duration_ns"`
	CkptFailures    uint64 `json:"ckpt_failures"`
}

// RecoveryPoint is one cadence of the recovery-time sweep.
type RecoveryPoint struct {
	CheckpointEvery uint64        `json:"checkpoint_every"`
	RestartTime     time.Duration `json:"restart_time_ns"`
	Replayed        uint64        `json:"recovery_replayed"`
}

// JoinVariant is one donor-policy run of the join-while-loaded figure.
type JoinVariant struct {
	// Name is "forked" (off-loop donor: checkpoint image + WAL suffix
	// streamed by a background goroutine).
	Name     string        `json:"name"`
	JoinTime time.Duration `json:"join_time_ns"`
	// Donor-observed put latency while the join was in flight.
	DonorP99  time.Duration `json:"donor_p99_ns"`
	DonorMax  time.Duration `json:"donor_max_ns"`
	OutHybrid uint64        `json:"transfer_out_hybrid"`
	OutFull   uint64        `json:"transfer_out_full"`
	InBytes   uint64        `json:"joiner_in_bytes"`
}

// CheckpointResult is the complete checkpoint/state-transfer figure.
type CheckpointResult struct {
	PreloadKeys     int                 `json:"preload_keys"`
	ValueBytes      int                 `json:"value_bytes"`
	Samples         int                 `json:"samples"`
	CheckpointEvery uint64              `json:"checkpoint_every"`
	Variants        []CheckpointVariant `json:"variants"`
	// StallRatio is off-loop p99.9 over no-checkpoint p99.9: near 1.0
	// when forked checkpoints leave the tail alone.
	StallRatio float64         `json:"stall_ratio_offloop_vs_none"`
	Recovery   []RecoveryPoint `json:"recovery_sweep"`
	Join       []JoinVariant   `json:"join_while_loaded"`
}

// ckptRig is a minimal durable kvstore group over simnet, sized so the
// replicated state is fat enough that serializing it takes
// milliseconds.
type ckptRig struct {
	net   *simnet.Network
	dir   string
	peers map[gcs.MemberID]transport.Addr
	reps  []*rsm.Replica
	clis  []*kvstore.Client
}

func (r *ckptRig) close() {
	for _, cli := range r.clis {
		if cli != nil {
			cli.Close()
		}
	}
	for _, rep := range r.reps {
		if rep != nil {
			rep.Close()
		}
	}
	r.net.Close()
	os.RemoveAll(r.dir)
}

// startReplica boots member i of the rig (initial non-nil bootstraps
// the group; nil joins the running one).
func (r *ckptRig) startReplica(i int, initial []gcs.MemberID, mutate func(*rsm.Config)) error {
	id := gcs.MemberID(fmt.Sprintf("rep%d", i))
	groupEP, err := r.net.EndpointWithQueue(r.peers[id], 1<<14)
	if err != nil {
		return err
	}
	clientEP, err := r.net.EndpointWithQueue(transport.Addr(fmt.Sprintf("rep%d/kv", i)), 1<<14)
	if err != nil {
		return err
	}
	store := kvstore.NewStore()
	cfg := rsm.Config{
		Self:             id,
		GroupEndpoint:    groupEP,
		ClientEndpoint:   clientEP,
		Peers:            r.peers,
		InitialMembers:   initial,
		Service:          store,
		Classify:         kvstore.Classifier(store),
		RejectNotPrimary: kvstore.RejectNotPrimary,
		DataDir:          filepath.Join(r.dir, fmt.Sprintf("rep%d", i)),
		SyncPolicy:       wal.SyncInterval,
		TuneGCS: func(g *gcs.Config) {
			g.Heartbeat = 25 * time.Millisecond
			g.FailTimeout = 2 * time.Second
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rep, err := rsm.Start(cfg)
	if err != nil {
		return err
	}
	for len(r.reps) <= i {
		r.reps = append(r.reps, nil)
		r.clis = append(r.clis, nil)
	}
	r.reps[i] = rep
	return nil
}

func newCkptRig(members int, mutate func(*rsm.Config)) (*ckptRig, error) {
	dir, err := os.MkdirTemp("", "joshua-bench-ckpt-")
	if err != nil {
		return nil, err
	}
	r := &ckptRig{
		net: simnet.New(simnet.Config{
			Latency:  simnet.Latency{Remote: 200 * time.Microsecond},
			QueueLen: 1 << 12,
		}),
		dir:   dir,
		peers: map[gcs.MemberID]transport.Addr{},
	}
	// Pre-declare one extra slot so a joiner can be added later.
	for i := 0; i <= members; i++ {
		r.peers[gcs.MemberID(fmt.Sprintf("rep%d", i))] = transport.Addr(fmt.Sprintf("rep%d/gcs", i))
	}
	initial := make([]gcs.MemberID, members)
	for i := 0; i < members; i++ {
		initial[i] = gcs.MemberID(fmt.Sprintf("rep%d", i))
	}
	for i := 0; i < members; i++ {
		if err := r.startReplica(i, initial, mutate); err != nil {
			r.close()
			return nil, err
		}
	}
	for i := 0; i < members; i++ {
		select {
		case <-r.reps[i].Ready():
		case <-time.After(30 * time.Second):
			r.close()
			return nil, fmt.Errorf("replica %d not ready", i)
		}
	}
	for i := 0; i < members; i++ {
		ep, err := r.net.Endpoint(transport.Addr(fmt.Sprintf("bencher%d/kv", i)))
		if err != nil {
			r.close()
			return nil, err
		}
		cli, err := kvstore.NewClient(ep, []transport.Addr{transport.Addr(fmt.Sprintf("rep%d/kv", i))}, 60*time.Second)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clis[i] = cli
	}
	return r, nil
}

// awaitAddrFree waits until addr can be bound again.
func (r *ckptRig) awaitAddrFree(addr transport.Addr) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ep, err := r.net.Endpoint(addr)
		if err == nil {
			ep.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("address %s never freed: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// preload fattens the replicated state: keys values of valBytes each,
// so a full-state serialize is megabytes, not the handful of bytes a
// fresh store would encode.
func (r *ckptRig) preload(keys, valBytes int) error {
	val := string(make([]byte, valBytes))
	for i := 0; i < keys; i++ {
		if err := r.clis[0].Put(fmt.Sprintf("pre-%06d", i), val); err != nil {
			return fmt.Errorf("preload %d: %w", i, err)
		}
	}
	return nil
}

// MeasureCheckpointStall runs the checkpoint-boundary tail-latency
// figure plus the recovery sweep and the join-while-loaded donor
// comparison.
func MeasureCheckpointStall(preloadKeys, valBytes, samples int) (CheckpointResult, error) {
	if preloadKeys <= 0 {
		preloadKeys = 1500
	}
	if valBytes <= 0 {
		valBytes = 4096
	}
	if samples <= 0 {
		samples = 2000
	}
	// The off-loop checkpointer needs a second processor slot to
	// overlap with the event loop: with GOMAXPROCS=1 the Go scheduler
	// timeslices the two goroutines at ~10ms granularity, which
	// re-serializes the background encode against the loop and every
	// wakeup in a command's multi-hop path pays a full slice. Any real
	// head node has ≥2 cores; on a 1-core CI runner two Ps let the OS
	// interleave the threads finely instead.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}

	const cadence = 64
	res := CheckpointResult{
		PreloadKeys:     preloadKeys,
		ValueBytes:      valBytes,
		Samples:         samples,
		CheckpointEvery: cadence,
	}

	variants := []struct {
		name   string
		mutate func(*rsm.Config)
	}{
		{"off-loop", func(c *rsm.Config) { c.CheckpointEvery = cadence }},
		{"none", func(c *rsm.Config) { c.CheckpointEvery = 1 << 30 }},
	}
	for _, v := range variants {
		cv := CheckpointVariant{Name: v.name}
		if err := func() error {
			r, err := newCkptRig(1, v.mutate)
			if err != nil {
				return err
			}
			defer r.close()
			if err := r.preload(preloadKeys, valBytes); err != nil {
				return err
			}
			lats := make([]time.Duration, samples)
			for i := 0; i < samples; i++ {
				t0 := time.Now()
				if err := r.clis[0].Put(fmt.Sprintf("op-%06d", i%256), "v"); err != nil {
					return fmt.Errorf("%s put %d: %w", v.name, i, err)
				}
				lats[i] = time.Since(t0)
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			cv.SubmitP50 = percentileDur(lats, 0.50)
			cv.SubmitP99 = percentileDur(lats, 0.99)
			cv.SubmitP999 = percentileDur(lats, 0.999)
			cv.SubmitMax = lats[len(lats)-1]
			st := r.reps[0].Stats()
			cv.CheckpointIndex = st.CheckpointIndex
			cv.CkptBytes = st.CkptBytes
			cv.CkptLastNs = st.CkptLastDurationNs
			cv.CkptFailures = st.CheckpointFailures
			return nil
		}(); err != nil {
			return res, err
		}
		res.Variants = append(res.Variants, cv)
	}
	var offloop, none time.Duration
	for _, v := range res.Variants {
		switch v.Name {
		case "off-loop":
			offloop = v.SubmitP999
		case "none":
			none = v.SubmitP999
		}
	}
	if none > 0 {
		res.StallRatio = float64(offloop) / float64(none)
	}

	// Recovery sweep: the same workload under three cadences, then a
	// cold restart from the data directory, timed to Ready.
	for _, every := range []uint64{16, 128, 1024} {
		pt := RecoveryPoint{CheckpointEvery: every}
		if err := func() error {
			mutate := func(c *rsm.Config) { c.CheckpointEvery = every }
			r, err := newCkptRig(1, mutate)
			if err != nil {
				return err
			}
			defer r.close()
			if err := r.preload(512, valBytes); err != nil {
				return err
			}
			// Let an in-flight background checkpoint settle so each
			// cadence restarts from its own steady state.
			deadline := time.Now().Add(10 * time.Second)
			for r.reps[0].Stats().CkptInflight && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			r.clis[0].Close()
			r.clis[0] = nil
			r.reps[0].Close()
			// The event loop releases its endpoints asynchronously
			// after Close; wait until the addresses can be rebound.
			for _, addr := range []transport.Addr{r.peers["rep0"], "rep0/kv"} {
				if err := r.awaitAddrFree(addr); err != nil {
					return err
				}
			}

			start := time.Now()
			if err := r.startReplica(0, []gcs.MemberID{"rep0"}, mutate); err != nil {
				return err
			}
			select {
			case <-r.reps[0].Ready():
			case <-time.After(60 * time.Second):
				return fmt.Errorf("cadence %d: replica not ready after restart", every)
			}
			pt.RestartTime = time.Since(start)
			pt.Replayed = r.reps[0].Stats().RecoveryReplayed
			return nil
		}(); err != nil {
			return res, err
		}
		res.Recovery = append(res.Recovery, pt)
	}

	// Join while loaded: a fresh third replica joins a 2-member group
	// whose donor keeps taking writes; the forked donor streams
	// checkpoint+suffix off-loop.
	for _, v := range []struct {
		name   string
		mutate func(*rsm.Config)
	}{
		{"forked", func(c *rsm.Config) { c.CheckpointEvery = cadence }},
	} {
		jv := JoinVariant{Name: v.name}
		if err := func() error {
			r, err := newCkptRig(2, v.mutate)
			if err != nil {
				return err
			}
			defer r.close()
			if err := r.preload(preloadKeys, valBytes); err != nil {
				return err
			}

			stop := make(chan struct{})
			done := make(chan []time.Duration)
			go func() {
				var lats []time.Duration
				for i := 0; ; i++ {
					select {
					case <-stop:
						done <- lats
						return
					default:
					}
					t0 := time.Now()
					if err := r.clis[0].Put(fmt.Sprintf("load-%06d", i%256), "v"); err != nil {
						done <- lats
						return
					}
					lats = append(lats, time.Since(t0))
				}
			}()

			start := time.Now()
			if err := r.startReplica(2, nil, v.mutate); err != nil {
				close(stop)
				<-done
				return err
			}
			select {
			case <-r.reps[2].Ready():
			case <-time.After(60 * time.Second):
				close(stop)
				<-done
				return fmt.Errorf("joiner not ready (%s donor)", v.name)
			}
			jv.JoinTime = time.Since(start)
			close(stop)
			lats := <-done
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				jv.DonorP99 = percentileDur(lats, 0.99)
				jv.DonorMax = lats[len(lats)-1]
			}
			for i := 0; i < 2; i++ {
				st := r.reps[i].Stats()
				jv.OutHybrid += st.TransferOutHybrid
				jv.OutFull += st.TransferOutFull
			}
			jv.InBytes = r.reps[2].Stats().TransferInBytes
			return nil
		}(); err != nil {
			return res, err
		}
		res.Join = append(res.Join, jv)
	}
	return res, nil
}

// FormatCheckpoint renders the figure for the terminal.
func FormatCheckpoint(res CheckpointResult) string {
	s := fmt.Sprintf("Checkpoint boundary tail latency (%d keys x %dB state, cadence %d, %d samples):\n",
		res.PreloadKeys, res.ValueBytes, res.CheckpointEvery, res.Samples)
	for _, v := range res.Variants {
		extra := ""
		if v.CheckpointIndex > 0 {
			extra = fmt.Sprintf("   (ckpt@%d, %d KB, last %v, %d failures)",
				v.CheckpointIndex, v.CkptBytes/1024,
				time.Duration(v.CkptLastNs).Round(time.Millisecond/10), v.CkptFailures)
		}
		s += fmt.Sprintf("  %-10s p50 %-9v p99 %-9v p99.9 %-9v max %-9v%s\n",
			v.Name+":",
			v.SubmitP50.Round(time.Millisecond/100), v.SubmitP99.Round(time.Millisecond/100),
			v.SubmitP999.Round(time.Millisecond/100), v.SubmitMax.Round(time.Millisecond/100), extra)
	}
	s += fmt.Sprintf("  p99.9 ratio off-loop vs none: %.2fx\n", res.StallRatio)
	s += "Recovery time vs checkpoint cadence (512 fat commands, cold restart):\n"
	for _, pt := range res.Recovery {
		s += fmt.Sprintf("  every %-6d restart %-10v replayed %d\n",
			pt.CheckpointEvery, pt.RestartTime.Round(time.Millisecond), pt.Replayed)
	}
	s += "Join while loaded (fresh joiner, donor under continuous writes):\n"
	for _, jv := range res.Join {
		s += fmt.Sprintf("  %-10s join %-10v donor p99 %-9v max %-9v (hybrid=%d full=%d, %d KB in)\n",
			jv.Name+":", jv.JoinTime.Round(time.Millisecond),
			jv.DonorP99.Round(time.Millisecond/100), jv.DonorMax.Round(time.Millisecond/100),
			jv.OutHybrid, jv.OutFull, jv.InBytes/1024)
	}
	return s
}
