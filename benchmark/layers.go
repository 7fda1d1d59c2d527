package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/joshua"
	"joshua/internal/pbs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
	"joshua/internal/shard"
	"joshua/internal/simnet"
	"joshua/internal/transport"
	"joshua/internal/transport/tcpnet"
	"joshua/internal/wal"
)

// The layer drivers. Each calls one layer's public API directly, with
// inputs drawn from the workload generator, and times the calls: what
// a layer costs on its own, so that an end-to-end number can be laid
// out as a sum of layer terms and a residue. They run in the traced
// run only, after the workload, each inside a span of its own.

// driver is the context the layer drivers share.
type driver struct {
	cfg *config
	tr  *tracer
	m   metricSet
	gen *generator
	// dir is scratch space under cfg.out, removed afterwards.
	dir string
}

// n scales an iteration count with the run length (full at 20 s) and
// keeps at least min, so a short smoke run still exercises every path.
func (d *driver) n(full, min int) int {
	k := int(float64(full) * d.cfg.seconds / 20)
	if k < min {
		return min
	}
	if k > full {
		return full
	}
	return k
}

// span times fn as a driver span under parent.
func (d *driver) span(layer, name string, parent int64, fn func() error) error {
	return d.tr.time(layer, name, parent, fn)
}

// sequential makes n calls one after another, each inside a span, and
// returns their median duration; the first skip calls are made but not
// counted (dials, cold paths).
func (d *driver) sequential(layer, name string, parent int64, n, skip int, call func(i int) error) (time.Duration, error) {
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n+skip; i++ {
		t0 := time.Now()
		if err := d.tr.time(layer, name, parent, func() error { return call(i) }); err != nil {
			return 0, err
		}
		if i >= skip {
			lats = append(lats, time.Since(t0))
		}
	}
	return durationsP50(lats), nil
}

// outstanding keeps envUsers calls in flight for dur, inside one span,
// and returns the completed calls per second and their number.
func (d *driver) outstanding(layer, name string, parent int64, dur time.Duration, call func(u, i int) error) (rate float64, count int, err error) {
	var done atomic.Int64
	errs := make(chan error, envUsers)
	t0 := time.Now()
	err = d.tr.time(layer, name, parent, func() error {
		var wg sync.WaitGroup
		for u := 0; u < envUsers; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				for i := 0; time.Since(t0) < dur; i++ {
					if err := call(u, i); err != nil {
						errs <- err
						return
					}
					done.Add(1)
				}
			}(u)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	})
	return float64(done.Load()) / time.Since(t0).Seconds(), int(done.Load()), err
}

func runDrivers(cfg *config, tr *tracer, m metricSet) error {
	dir, err := os.MkdirTemp(cfg.out, "drivers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d := &driver{cfg: cfg, tr: tr, m: m, dir: dir,
		gen: newGenerator(subSeed(cfg.seed, 20), mixSubmit, "drv-", 0)}
	for _, l := range []struct {
		name string
		fn   func(*driver, int64) error
	}{
		{"codec", driveCodec}, {"simnet", driveSimnet}, {"tcpnet", driveTCPNet},
		{"gcs", driveGCS}, {"wal", driveWAL}, {"rsm", driveRSM}, {"pbs", drivePBS},
		{"joshua", driveJoshua}, {"shard", driveShard},
	} {
		id, end := tr.begin(l.name, "driver", 0, 0)
		err := l.fn(d, id)
		end(err == nil)
		if err != nil {
			return fmt.Errorf("%s driver: %w", l.name, err)
		}
	}
	return nil
}

// sample200 is the 200-byte payload the gcs and wal drivers move, the
// size of an encoded jsub.
func sample200(id uint64) []byte {
	b := make([]byte, 200)
	binary.BigEndian.PutUint64(b, id)
	return b
}

// durationsP50 is the median of unsorted durations.
func durationsP50(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// --- codec ---------------------------------------------------------

func driveCodec(d *driver, parent int64) error {
	req := d.gen.next(0).job.request(opSubmit)
	job := pbs.Job{ID: "12345.cluster", Seq: 12345, Name: req.Name, Owner: req.Owner, Script: req.Script,
		NodeCount: 1, WallTime: req.WallTime, Res: req.Resources, Priority: req.Priority, ArrayIdx: -1, State: pbs.StateHeld}
	n := d.n(200000, 2000)
	var got pbs.Job
	return d.tr.time("codec", "EncodeJob+DecodeJob", parent, func() error {
		m0, t0 := runtimeCounters().mallocs, time.Now()
		for i := 0; i < n; i++ {
			e := codec.GetEncoder(256)
			pbs.EncodeJob(e, job)
			dec := codec.NewDecoder(e.Bytes())
			got = pbs.DecodeJob(dec)
			e.Release()
		}
		el, m1 := time.Since(t0), runtimeCounters().mallocs
		if got.Name != job.Name {
			return fmt.Errorf("round trip lost the job name: %q", got.Name)
		}
		d.m.set("codec.job_roundtrip_ns", float64(el.Nanoseconds())/float64(n), n)
		d.m.set("codec.job_roundtrip_allocs", float64(m1-m0)/float64(n), n)
		return nil
	})
}

// --- simnet and tcpnet ---------------------------------------------

// pingOneWay sends n datagrams from a to b, one at a time, and returns
// how long each took to arrive.
func pingOneWay(a, b transport.Endpoint, n int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	payload := sample200(0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := a.Send(b.Addr(), payload); err != nil {
			return nil, err
		}
		select {
		case <-b.Recv():
			out = append(out, time.Since(t0))
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("datagram %d from %s to %s lost", i, a.Addr(), b.Addr())
		}
	}
	return out, nil
}

func driveSimnet(d *driver, parent int64) error {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: envDelay}, Seed: d.cfg.seed})
	defer net.Close()
	a, err := net.Endpoint("hosta/x")
	if err != nil {
		return err
	}
	b, err := net.Endpoint("hostb/x")
	if err != nil {
		return err
	}
	return d.tr.time("simnet", "Send->Recv", parent, func() error {
		hops, err := pingOneWay(a, b, d.n(300, 30))
		if err != nil {
			return err
		}
		d.m.set("simnet.hop_overhead_us", us(durationsP50(hops)-envDelay), len(hops))
		return nil
	})
}

func driveTCPNet(d *driver, parent int64) error {
	book := tcpnet.StaticResolver{}
	a, err := tcpnet.Listen("hosta/x", "127.0.0.1:0", book)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen("hostb/x", "127.0.0.1:0", book)
	if err != nil {
		return err
	}
	defer b.Close()
	book[a.Addr()], book[b.Addr()] = a.TCPAddr(), b.TCPAddr()
	stop := make(chan struct{})
	var echo sync.WaitGroup
	echo.Add(1)
	go func() { // b echoes until told to stop
		defer echo.Done()
		for {
			select {
			case dg := <-b.Recv():
				_ = b.Send(dg.From, dg.Payload) // a lost echo surfaces as a's timeout
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); echo.Wait() }()
	return d.tr.time("tcpnet", "Send+echo", parent, func() error {
		n := d.n(500, 30)
		payload := sample200(0)
		var rtts []time.Duration
		var sendNs int64
		for i := 0; i < n+5; i++ {
			t0 := time.Now()
			if err := a.Send(b.Addr(), payload); err != nil {
				return err
			}
			sent := time.Since(t0)
			select {
			case <-a.Recv():
			case <-time.After(5 * time.Second):
				return fmt.Errorf("echo %d lost", i)
			}
			if i >= 5 { // the first few pay for the dial
				rtts = append(rtts, time.Since(t0))
				sendNs += sent.Nanoseconds()
			}
		}
		d.m.set("tcpnet.rtt_p50_us", us(durationsP50(rtts)), n)
		d.m.set("tcpnet.send_ns", float64(sendNs)/float64(n), n)
		return nil
	})
}

// --- gcs -----------------------------------------------------------

// gcsMember is one group process plus the goroutine consuming its
// event stream.
type gcsMember struct {
	id gcs.MemberID
	p  *gcs.Process
	// delivered receives the id of every payload delivered here;
	// views receives every installed view.
	mu      sync.Mutex
	waiters map[uint64]chan struct{}
	views   chan gcs.View
	// deliveries counts DeliverEvents and stamps the latest, for the
	// crash-outage measurement.
	lastDelivery atomic.Int64
	maxGap       atomic.Int64
	done         chan struct{}
}

func (g *gcsMember) consume() {
	defer close(g.done)
	for ev := range g.p.Events() {
		switch e := ev.(type) {
		case gcs.DeliverEvent:
			now := time.Now().UnixNano()
			if prev := g.lastDelivery.Swap(now); prev != 0 && now-prev > g.maxGap.Load() {
				g.maxGap.Store(now - prev)
			}
			if len(e.Payload) >= 8 {
				id := binary.BigEndian.Uint64(e.Payload)
				g.mu.Lock()
				if ch, ok := g.waiters[id]; ok {
					close(ch)
					delete(g.waiters, id)
				}
				g.mu.Unlock()
			}
		case gcs.ViewEvent:
			select {
			case g.views <- e.View:
			default: // nobody is timing a view change
			}
		case gcs.SnapshotRequestEvent:
			e.Reply(nil)
		}
	}
}

// broadcast sends one payload and waits for its delivery back here.
func (g *gcsMember) broadcast(id uint64) error {
	ch := make(chan struct{})
	g.mu.Lock()
	g.waiters[id] = ch
	g.mu.Unlock()
	if err := g.p.Broadcast(sample200(id)); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("%s: broadcast %d not delivered within 10 s", g.id, id)
	}
}

func driveGCS(d *driver, parent int64) error {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: envDelay}, Seed: d.cfg.seed})
	defer net.Close()
	const members = 3
	peers := map[gcs.MemberID]transport.Addr{}
	initial := make([]gcs.MemberID, members)
	for i := range initial {
		initial[i] = gcs.MemberID(fmt.Sprintf("m%d", i))
		peers[initial[i]] = transport.Addr(fmt.Sprintf("m%d/gcs", i))
	}
	group := make([]*gcsMember, members)
	for i, id := range initial {
		ep, err := net.Endpoint(peers[id])
		if err != nil {
			return err
		}
		p, err := gcs.Start(gcs.Config{Self: id, Endpoint: ep, Peers: peers, InitialMembers: initial, SafeDelivery: true})
		if err != nil {
			return err
		}
		g := &gcsMember{id: id, p: p, waiters: map[uint64]chan struct{}{}, views: make(chan gcs.View, 16), done: make(chan struct{})}
		group[i] = g
		go g.consume()
		defer func() { p.Close(); <-g.done }()
	}
	for _, g := range group { // the static first view
		select {
		case <-g.views:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("%s: no first view", g.id)
		}
	}
	var next atomic.Uint64
	broadcastFrom := func(g *gcsMember) func(int) error {
		return func(int) error { return g.broadcast(next.Add(1)) }
	}

	// Idle: one broadcast at a time from a non-sequencer member (the
	// first hop of every workload connection), then from the sequencer.
	n := d.n(200, 20)
	sent0 := net.Stats().Sent
	p, err := d.sequential("gcs", "Broadcast->deliver", parent, n, 0, broadcastFrom(group[1]))
	if err != nil {
		return err
	}
	d.m.set("gcs.order_p50_ms", ms(p), n)
	d.m.set("gcs.msgs_per_broadcast_idle", float64(net.Stats().Sent-sent0)/float64(n), n)
	if p, err = d.sequential("gcs", "Broadcast->deliver (sequencer)", parent, n, 0, broadcastFrom(group[0])); err != nil {
		return err
	}
	d.m.set("gcs.order_sequencer_p50_ms", ms(p), n)

	// Loaded: envUsers outstanding from the same member.
	sent0 = net.Stats().Sent
	rate, count, err := d.outstanding("gcs", "Broadcast x32 outstanding", parent, scaled(d.cfg.seconds, 0.05),
		func(int, int) error { return group[1].broadcast(next.Add(1)) })
	if err != nil {
		return err
	}
	d.m.set("gcs.broadcasts_per_s", rate, count)
	d.m.set("gcs.msgs_per_broadcast_loaded", ratio(float64(net.Stats().Sent-sent0), float64(count)), count)

	// Crash the non-sequencer member m2 while m1 keeps broadcasting:
	// the time to the survivors' view, and the longest gap in m1's
	// deliveries (safe delivery waits for the dead member's
	// acknowledgement until the view excludes it).
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if group[1].broadcast(next.Add(1)) != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	group[1].maxGap.Store(0)
	return d.tr.time("gcs", "crash member -> view", parent, func() error {
		defer func() { close(stop); bg.Wait() }()
		crash := time.Now()
		net.CrashHost("m2")
		group[2].p.Close()
		for _, g := range group[:2] {
			for {
				select {
				case v := <-g.views:
					if v.Includes("m2") {
						continue
					}
				case <-time.After(10 * time.Second):
					return fmt.Errorf("%s: no view without m2 within 10 s", g.id)
				}
				break
			}
		}
		d.m.set("gcs.view_change_ms", ms(time.Since(crash)), 1)
		time.Sleep(50 * time.Millisecond) // let deliveries resume so the gap closes
		d.m.set("gcs.member_crash_outage_ms", float64(group[1].maxGap.Load())/1e6, 1)
		return nil
	})
}

// --- wal -----------------------------------------------------------

func driveWAL(d *driver, parent int64) error {
	rec := sample200(0)
	appendCommit := func(policy wal.SyncPolicy, name, metric string, n int) error {
		lg, err := wal.Open(wal.Options{Dir: filepath.Join(d.dir, "wal-"+policy.String()), Policy: policy})
		if err != nil {
			return err
		}
		defer lg.Close()
		p, err := d.sequential("wal", name, parent, n, 0, func(i int) error {
			if err := lg.Append(uint64(i+1), rec); err != nil {
				return err
			}
			return lg.Commit()
		})
		d.m.set(metric, us(p), n)
		return err
	}
	if err := appendCommit(wal.SyncInterval, "Append+Commit", "wal.append_commit_p50_us", d.n(2000, 50)); err != nil {
		return err
	}
	if err := appendCommit(wal.SyncAlways, "Append+Commit (sync=always)", "wal.append_commit_always_p50_us", d.n(200, 10)); err != nil {
		return err
	}

	// Group commit: 64 appends per commit, the engine's MaxBatch.
	lg, err := wal.Open(wal.Options{Dir: filepath.Join(d.dir, "wal-batch")})
	if err != nil {
		return err
	}
	defer lg.Close()
	idx := uint64(0)
	dur := scaled(d.cfg.seconds, 0.025)
	t0 := time.Now()
	err = d.tr.time("wal", "Append x64 + Commit", parent, func() error {
		for time.Since(t0) < dur {
			for k := 0; k < 64; k++ {
				idx++
				if err := lg.Append(idx, rec); err != nil {
					return err
				}
			}
			if err := lg.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.m.set("wal.appends_per_s", float64(idx)/time.Since(t0).Seconds(), int(idx))

	const ckptMB = 8
	state := bytes.Repeat(rec, ckptMB<<20/len(rec))
	err = d.tr.time("wal", "SaveCheckpointFrom 8MB", parent, func() error {
		t0 := time.Now()
		if err := lg.SaveCheckpointFrom(idx, bytes.NewReader(state)); err != nil {
			return err
		}
		d.m.set("wal.checkpoint_save_ms_per_mb", ms(time.Since(t0))/ckptMB, 1)
		return nil
	})
	if err != nil {
		return err
	}

	// Recovery: reopen a log of n records and replay it.
	n := d.n(50000, 1000)
	dir := filepath.Join(d.dir, "wal-replay")
	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		if err := w.Append(uint64(i), rec); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Commit(); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return d.tr.time("wal", "Open+Replay", parent, func() error {
		t0 := time.Now()
		w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
		if err != nil {
			return err
		}
		defer w.Close()
		replayed := 0
		if err := w.Replay(0, func(uint64, []byte) error { replayed++; return nil }); err != nil {
			return err
		}
		if replayed != n {
			return fmt.Errorf("replayed %d of %d records", replayed, n)
		}
		d.m.set("wal.replay_records_per_s", float64(n)/time.Since(t0).Seconds(), n)
		return nil
	})
}

// --- rsm -----------------------------------------------------------

func driveRSM(d *driver, parent int64) error {
	net := simnet.New(simnet.Config{Latency: simnet.Latency{Remote: envDelay}, Seed: d.cfg.seed})
	defer net.Close()
	const replicas = 3
	peers := map[gcs.MemberID]transport.Addr{}
	initial := make([]gcs.MemberID, replicas)
	for i := range initial {
		initial[i] = gcs.MemberID(fmt.Sprintf("rep%d", i))
		peers[initial[i]] = transport.Addr(fmt.Sprintf("rep%d/gcs", i))
	}
	heads := make([]transport.Addr, replicas)
	for i, id := range initial {
		groupEP, err := net.Endpoint(peers[id])
		if err != nil {
			return err
		}
		heads[i] = transport.Addr(fmt.Sprintf("rep%d/kv", i))
		clientEP, err := net.Endpoint(heads[i])
		if err != nil {
			return err
		}
		store := kvstore.NewStore()
		rep, err := rsm.Start(rsm.Config{
			Self: id, GroupEndpoint: groupEP, ClientEndpoint: clientEP,
			Peers: peers, InitialMembers: initial,
			Service: store, Classify: kvstore.Classifier(store), RejectNotPrimary: kvstore.RejectNotPrimary,
			DataDir: filepath.Join(d.dir, fmt.Sprintf("rep%d", i)),
			TuneGCS: tuneSteady,
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		select {
		case <-rep.Ready():
		case <-time.After(30 * time.Second):
			return fmt.Errorf("replica %d not ready", i)
		}
	}
	// Two connections, first hop rep1 and rep2, as in the workloads.
	clients := make([]*kvstore.Client, envConns)
	for k := range clients {
		ep, err := net.Endpoint(transport.Addr(fmt.Sprintf("user%d/kv", k)))
		if err != nil {
			return err
		}
		cli, err := kvstore.NewClient(ep, []transport.Addr{heads[1+k%2]}, 10*time.Second)
		if err != nil {
			return err
		}
		defer cli.Close()
		clients[k] = cli
	}

	n := d.n(200, 20)
	sequential := func(name string, call func(i int) error) (time.Duration, error) {
		return d.sequential("rsm", name, parent, n, 0, call)
	}
	outstanding := func(name string, dur time.Duration, call func(u, i int) error) (float64, int, error) {
		return d.outstanding("rsm", name, parent, dur, call)
	}

	p, err := sequential("Put", func(i int) error { return clients[0].Put(fmt.Sprintf("seq-%d", i), "v") })
	if err != nil {
		return err
	}
	d.m.set("rsm.put_p50_ms", ms(p), n)
	dur := scaled(d.cfg.seconds, 0.05)
	rate, cnt, err := outstanding("Put x32 distinct keys", dur, func(u, i int) error {
		return clients[u%envConns].Put(fmt.Sprintf("u%d-%d", u, i), "v")
	})
	if err != nil {
		return err
	}
	d.m.set("rsm.puts_per_s", rate, cnt)
	rate, cnt, err = outstanding("Put x32 one key", dur, func(u, i int) error {
		return clients[u%envConns].Put("hot", "v")
	})
	if err != nil {
		return err
	}
	d.m.set("rsm.puts_per_s_one_key", rate, cnt)
	p, err = sequential("Get", func(i int) error {
		_, _, err := clients[0].Get(fmt.Sprintf("seq-%d", i))
		return err
	})
	if err != nil {
		return err
	}
	d.m.set("rsm.get_p50_ms", ms(p), n)
	rate, cnt, err = outstanding("Get x32", dur/2, func(u, i int) error {
		_, _, err := clients[u%envConns].Get("hot")
		return err
	})
	if err != nil {
		return err
	}
	d.m.set("rsm.gets_per_s", rate, cnt)
	return nil
}

// --- pbs -----------------------------------------------------------

func drivePBS(d *driver, parent int64) error {
	nodes := make([]string, envMoms)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("compute%d", i)
	}
	held := func() pbs.SubmitRequest { return d.gen.next(0).job.request(opSubmit) }
	runnable := func() pbs.SubmitRequest { return d.gen.next(0).job.request(opSubmitRun) }
	fill := func(s *pbs.Server, n int, req func() pbs.SubmitRequest) error {
		for i := 0; i < n; i++ {
			if _, err := s.Submit(req()); err != nil {
				return err
			}
		}
		return nil
	}
	// perCall times n calls of fn and returns the mean, which is what a
	// CPU-bound call adds to every operation that makes it.
	perCall := func(name string, n int, fn func(i int) error) (time.Duration, error) {
		t0 := time.Now()
		err := d.tr.time("pbs", name, parent, func() error {
			for i := 0; i < n; i++ {
				if err := fn(i); err != nil {
					return err
				}
			}
			return nil
		})
		return time.Since(t0) / time.Duration(n), err
	}

	// Held-job table: submit cost at 2 k and 25 k jobs, the read path
	// at 2 k, and fork/snapshot/restore at 25 k.
	const small, large = 2000, 25000
	big := d.n(large, small+500)
	srv := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: nodes[:1], KeepCompleted: envKeepCompleted})
	if err := fill(srv, small, held); err != nil {
		return err
	}
	n := d.n(500, 50)
	per, err := perCall("Submit (2k queued)", n, func(int) error { _, err := srv.Submit(held()); return err })
	if err != nil {
		return err
	}
	d.m.set("pbs.submit_ns_q2k", float64(per.Nanoseconds()), n)

	ids := srv.StatusAll()
	reads := d.n(200000, 2000)
	per, err = perCall("Status", reads, func(i int) error { _, err := srv.Status(ids[i%len(ids)].ID); return err })
	if err != nil {
		return err
	}
	d.m.set("pbs.status_ns", float64(per.Nanoseconds()), reads)
	var listing []pbs.Job
	per, err = perCall("StatusAll (cached)", reads, func(int) error { listing = srv.StatusAll(); return nil })
	if err != nil {
		return err
	}
	d.m.set("pbs.status_all_cached_us", us(per), reads)
	n = d.n(200, 20)
	var invalidated time.Duration
	_, err = perCall("Submit+StatusAll (invalidated)", n, func(int) error {
		if _, err := srv.Submit(held()); err != nil {
			return err
		}
		t0 := time.Now()
		listing = srv.StatusAll()
		invalidated += time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}
	d.m.set("pbs.status_all_invalidated_us", us(invalidated/time.Duration(n)), n)
	enc := codec.NewEncoder(1 << 16)
	for _, j := range listing {
		pbs.EncodeJob(enc, j)
	}
	d.m.set("joshua.statall_reply_kb", float64(enc.Len())/1024, len(listing))

	if err := fill(srv, big-len(listing), held); err != nil {
		return err
	}
	n = d.n(500, 50)
	per, err = perCall("Submit (25k queued)", n, func(int) error { _, err := srv.Submit(held()); return err })
	if err != nil {
		return err
	}
	d.m.set("pbs.submit_ns_q25k", float64(per.Nanoseconds()), n)
	var encode func() []byte
	per, err = perCall("Fork (25k queued)", 5, func(int) error { encode = srv.Fork(); return nil })
	if err != nil {
		return err
	}
	d.m.set("pbs.fork_us_q25k", us(per), 5)
	var snap []byte
	per, err = perCall("Snapshot (25k queued)", 3, func(int) error { snap = srv.Snapshot(); return nil })
	if err != nil {
		return err
	}
	d.m.set("pbs.snapshot_ms_q25k", ms(per), 3)
	if forked := encode(); !bytes.Equal(forked, snap) {
		return fmt.Errorf("fork-encoded image (%d bytes) differs from Snapshot (%d bytes)", len(forked), len(snap))
	}
	per, err = perCall("Restore (25k queued)", 3, func(int) error {
		return pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: nodes[:1]}).Restore(snap)
	})
	if err != nil {
		return err
	}
	d.m.set("pbs.restore_ms_q25k", ms(per), 3)

	// Scheduler: eight busy nodes and a backlog of q runnable jobs;
	// every Submit and every JobDone runs a scheduling cycle over it.
	cycle := func(q int, metric string) (*pbs.Server, []pbs.JobID, error) {
		s := pbs.NewServer(pbs.Config{ServerName: "cluster", Nodes: nodes, KeepCompleted: envKeepCompleted})
		if err := fill(s, q, runnable); err != nil {
			return nil, nil, err
		}
		var running []pbs.JobID
		for _, a := range s.TakeActions() {
			if st, ok := a.(pbs.StartAction); ok {
				running = append(running, st.Job.ID)
			}
		}
		n := d.n(300, 30)
		per, err := perCall(fmt.Sprintf("Submit+TakeActions (%d queued)", q), n, func(int) error {
			_, err := s.Submit(runnable())
			s.TakeActions()
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		d.m.set(metric, us(per), n)
		return s, running, nil
	}
	if _, _, err := cycle(100, "pbs.sched_cycle_us_q100"); err != nil {
		return err
	}
	backlog := d.n(3000, 300)
	s, running, err := cycle(backlog, "pbs.sched_cycle_us_q3k")
	if err != nil {
		return err
	}
	n = d.n(300, 30)
	per, err = perCall("JobDone+TakeActions", n, func(int) error {
		if len(running) == 0 {
			return fmt.Errorf("no running job left to complete")
		}
		s.JobDone(running[0], 0, "run\n")
		running = running[1:]
		for _, a := range s.TakeActions() {
			if st, ok := a.(pbs.StartAction); ok {
				running = append(running, st.Job.ID)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.m.set("pbs.job_done_us", us(per), n)
	return nil
}

// --- joshua: the depth ladder --------------------------------------

// ladderRow boots one deployment of the fixed environment with the
// given head count (0 = the unreplicated baseline) and measures n
// sequential held submissions from a client whose first hop is the
// highest-numbered head — the paper's Fig. 10 rows.
func (d *driver) ladderRow(parent int64, heads int, use func(sys *system, cli *joshua.Client) error) (time.Duration, error) {
	opts := envOptions(d.cfg.seed, heads, 1, false)
	name := fmt.Sprintf("jsub heads=%d", heads)
	if heads == 0 {
		opts.Heads, opts.Plain = 1, true
		name = "jsub plain"
	}
	sys, err := boot(opts, d.dir, !opts.Plain)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	cli, err := sys.cl.ClientFor(opts.Heads - 1)
	if err != nil {
		return 0, err
	}
	p, err := d.sequential("joshua", name, parent, d.n(150, 15), 3, func(int) error {
		_, err := cli.Submit(d.gen.next(0).job.request(opSubmit))
		return err
	})
	if err == nil && use != nil {
		err = use(sys, cli)
	}
	return p, err
}

func driveJoshua(d *driver, parent int64) error {
	// Rung 0: the batch service behind its daemon, no wire at all.
	p, err := d.ladderRow(parent, 0, func(sys *system, _ *joshua.Client) error {
		n := d.n(2000, 100)
		lats := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			req := d.gen.next(0).job.request(opSubmit)
			t0 := time.Now()
			if _, err := sys.cl.Plain().Daemon().Submit(req); err != nil {
				return err
			}
			lats = append(lats, time.Since(t0))
		}
		d.m.set("joshua.direct_submit_p50_us", us(durationsP50(lats)), n)
		return nil
	})
	if err != nil {
		return err
	}
	n := d.n(150, 15)
	d.m.set("joshua.plain_submit_p50_ms", ms(p), n)
	for heads := 1; heads <= 4; heads++ {
		var use func(*system, *joshua.Client) error
		if heads == envHeads {
			use = d.rateLadder
		}
		if p, err = d.ladderRow(parent, heads, use); err != nil {
			return err
		}
		d.m.set(fmt.Sprintf("joshua.heads%d_submit_p50_ms", heads), ms(p), n)
	}
	return d.clientFailover(parent)
}

// rateLadder uses the three-head rung's cluster to find the highest
// offered rate the system keeps up with.
func (d *driver) rateLadder(sys *system, _ *joshua.Client) error {
	r := &run{sys: sys, ledger: newLedger(), cfg: d.cfg}
	best := 0.0
	for _, rate := range []float64{300, 600, 900, 1200, 1600} {
		ph := openPhase(fmt.Sprintf("rate%.0f", rate), subSeed(d.cfg.seed, 30+int(rate)), mixSubmit, rate, scaled(d.cfg.seconds, 0.05), 0)
		res := runOpen(&ph, time.Now(), r.execute)
		w := res.latencies(isWrite)
		if len(ph.open) == 0 || p50(w) > 25 || float64(len(w)) < 0.98*float64(len(ph.open)) {
			break
		}
		best = rate
	}
	d.m.set("client.max_rate_ok_ops_s", best, 0)
	return nil
}

// clientFailover measures what one request pays when the head its
// client is pinned to dies: the client waits out its attempt timeout,
// fails over to the next head, and that head can only order the
// request once the group has excluded the dead member. The deployment
// is the failover workload's.
func (d *driver) clientFailover(parent int64) error {
	sys, err := boot(envOptions(d.cfg.seed, envHeads, 1, true), d.dir, true)
	if err != nil {
		return err
	}
	defer sys.close()
	cli := sys.conns[1] // first hop head2, then head0
	if _, err := cli.Submit(d.gen.next(0).job.request(opSubmit)); err != nil {
		return err
	}
	sys.cl.CrashHead(2)
	return d.tr.time("joshua", "jsub at crash of pinned head", parent, func() error {
		t0 := time.Now()
		if _, err := cli.Submit(d.gen.next(0).job.request(opSubmit)); err != nil {
			return fmt.Errorf("request during fail-over: %w", err)
		}
		d.m.set("joshua.client_failover_ms", ms(time.Since(t0)), 1)
		return nil
	})
}

// --- shard ---------------------------------------------------------

// routeSink keeps the compiler from discarding the timed RouteJob calls.
var routeSink int

func driveShard(d *driver, parent int64) error {
	n := d.n(1000000, 10000)
	ids := make([]pbs.JobID, 1024)
	for i := range ids {
		ids[i] = pbs.JobID(fmt.Sprintf("%d.cluster", 1000+i))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		routeSink += shard.RouteJob(ids[i&1023], 4)
	}
	d.m.set("shard.route_job_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)

	opts := envOptions(d.cfg.seed, 2, 2, false)
	opts.Shards = 2
	sys, err := boot(opts, d.dir, true)
	if err != nil {
		return err
	}
	defer sys.close()
	gens := make([]*generator, envUsers)
	for u := range gens {
		gens[u] = newGenerator(subSeed(d.cfg.seed, 40+u), mixSubmit, fmt.Sprintf("sh-u%d-", u), 0)
	}
	rate, count, err := d.outstanding("shard", "jsub x32 over 2x2", parent, scaled(d.cfg.seconds, 0.075), func(u, _ int) error {
		_, err := sys.conns[u%envConns].Submit(gens[u].next(u).job.request(opSubmit))
		return err
	})
	if err != nil {
		return err
	}
	d.m.set("shard.submits_per_s_2x2", rate, count)
	return nil
}
