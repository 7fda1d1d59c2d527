package pbs

import (
	"slices"
	"sort"
	"time"
)

// The scheduling pipeline. schedule() is the driver; it runs under
// s.mu after every mutation that can change what is runnable and is
// composed of three pluggable, individually testable stages, each a
// pure function of replicated state:
//
//	resources  — which nodes can hold a job right now (freeCaps/fitJob)
//	ordering   — in what order jobs compete (FIFO: the eligible
//	             index as is; otherwise orderStage's weighted
//	             priority + decayed fairshare)
//	placement  — which jobs start this pass (placeStrict blocks at the
//	             first misfit; placeBackfill reserves for it and lets
//	             non-delaying jobs fill the holes)
//
// Determinism rules: no stage reads the wall clock, iterates a map in
// raw order, or consults anything outside the replicated state. Time
// is the logical event clock (Server.ltick, one tick per applied
// mutation); durations on that axis come from declared walltimes.
// Because every replica applies the same totally ordered mutations,
// every replica runs the pipeline on identical inputs and starts
// identical jobs on identical nodes.

// nodeAlloc tracks one node's committed allocation: the jobs running
// on it (in start order) and the resources they hold.
type nodeAlloc struct {
	jobs []JobID
	cpus int
	mem  int64
}

// tick advances the logical event clock. Called once at the top of
// every mutating interface operation, under s.mu; the clock therefore
// counts applied mutations and is identical on every replica. One
// tick is one nanosecond of virtual time; completions additionally
// jump the clock forward to the finished job's declared end (see
// JobDone), so the axis is scaled by walltimes, not command counts.
func (s *Server) tick() { s.ltick++ }

// logicalNow renders the current logical tick as a time.Time (one
// nanosecond per tick). Job lifecycle stamps use it so that replicated
// state — including snapshots — never depends on a local clock.
func (s *Server) logicalNow() time.Time { return time.Unix(0, int64(s.ltick)) }

// vnow is the logical clock as a point on the virtual-time axis used
// by backfill arithmetic (nanoseconds, comparable with WallTime).
func (s *Server) vnow() int64 { return int64(s.ltick) }

// expectedEnd is a running job's declared completion bound on the
// virtual axis: its start tick plus its walltime, but never in the
// past — a job overrunning its walltime (or one with none declared)
// counts as "could end any time now", which keeps reservations
// conservative without ever going stale.
func (s *Server) expectedEnd(j *Job) int64 {
	end := j.StartedAt.UnixNano() + int64(j.WallTime)
	if now := s.vnow() + 1; end < now {
		end = now
	}
	return end
}

// nodeCap is stage 1's working view of one node: the capacity still
// free for new allocations this pass.
type nodeCap struct {
	name string
	cpus int
	mem  int64
}

// freeCaps builds the free-capacity view of the online nodes, in
// configuration order, in the server's scratch buffer: the view lives
// for one pass. Must be called with s.mu held.
func (s *Server) freeCaps(online []string) []nodeCap {
	caps := s.capsBuf[:0]
	for _, n := range online {
		c := nodeCap{name: n, cpus: s.cfg.NodeCPUs, mem: s.cfg.NodeMem}
		if a, ok := s.alloc[n]; ok {
			c.cpus -= a.cpus
			c.mem -= a.mem
		}
		caps = append(caps, c)
	}
	s.capsBuf = caps
	return caps
}

// fitJob is the resource stage's placement test: first-fit over caps
// (configuration order), claiming NodeCount distinct nodes that each
// still hold the job's per-node request. On success the chosen
// capacity is deducted from caps and the node names are returned, in
// the slice the job keeps as its Nodes: the node's shared list
// (Server.oneNode) for a one-node job, a fresh one otherwise; nil
// means the job does not fit right now. avoid, when non-nil, excludes
// nodes (backfill keeps long jobs off reserved nodes). Must be called
// with s.mu held.
func (s *Server) fitJob(j *Job, caps []nodeCap, avoid map[string]bool) []string {
	need := j.Res.withDefaults()
	picked := s.pickBuf[:0]
	for i := range caps {
		if avoid != nil && avoid[caps[i].name] {
			continue
		}
		if caps[i].cpus < need.NCPUs {
			continue
		}
		if s.cfg.NodeMem > 0 && caps[i].mem < need.Mem {
			continue
		}
		picked = append(picked, i)
		if len(picked) == j.NodeCount {
			break
		}
	}
	s.pickBuf = picked
	if len(picked) < j.NodeCount {
		return nil
	}
	for _, i := range picked {
		caps[i].cpus -= need.NCPUs
		caps[i].mem -= need.Mem
	}
	if len(picked) == 1 {
		return s.oneNode[caps[picked[0]].name]
	}
	nodes := make([]string, 0, len(picked))
	for _, i := range picked {
		nodes = append(nodes, caps[i].name)
	}
	return nodes
}

// exclusiveFit implements the paper's Maui policy at the resource
// stage: a job needs the entire cluster idle and enough online nodes.
// It returns the allocation or nil.
func (s *Server) exclusiveFit(j *Job, online []string) []string {
	if s.running != 0 {
		return nil
	}
	if len(online) < j.NodeCount {
		return nil
	}
	return append([]string(nil), online[:j.NodeCount]...)
}

// orderStage is stage 2 under the non-FIFO policies (FIFO places
// straight from the eligible index, already in submission order): each
// job gets the weighted score documented on SchedWeights, computed
// entirely from replicated state (queue age on the logical clock,
// requested size, user priority, decayed fairshare usage), and the
// order is score descending with ties broken by submission sequence —
// a total, deterministic order. Must be called with s.mu held.
func (s *Server) orderStage(cands []*Job) {
	s.fairshareDecay()
	w := s.cfg.Weights
	now := s.vnow()
	scores := make(map[JobID]int64, len(cands))
	for _, j := range cands {
		// Age counts virtual seconds queued, so its weight is
		// commensurable with user priority and fairshare usage rather
		// than drowning them in nanoseconds.
		age := (now - j.SubmittedAt.UnixNano()) / int64(time.Second)
		if age < 0 {
			age = 0
		}
		size := int64(j.NodeCount) * int64(j.Res.withDefaults().NCPUs)
		scores[j.ID] = w.Age*age + w.Size*size + w.User*int64(j.Priority) - w.Fair*int64(s.fairUsage[j.Owner])
	}
	sort.SliceStable(cands, func(a, b int) bool {
		sa, sb := scores[cands[a].ID], scores[cands[b].ID]
		if sa != sb {
			return sa > sb
		}
		return cands[a].Seq < cands[b].Seq
	})
}

// reservation is the backfill stage's promise to the highest-priority
// blocked job: the nodes it will run on and the virtual time (Shadow)
// by which they are guaranteed free, computed from the declared
// walltimes of the jobs occupying them. Backfilled jobs must either
// finish by Shadow or avoid Nodes entirely, so they can never delay
// the reserved job past it. Recomputed every pass; kept on the server
// (and in snapshots) as a replicated observable.
type reservation struct {
	Job    JobID
	Shadow int64
	Nodes  []string
}

// computeReservation picks the NodeCount nodes that become free
// soonest (by declared walltime) for the blocked job and returns the
// reservation. online is in configuration order, which breaks ties
// deterministically. Must be called with s.mu held.
func (s *Server) computeReservation(j *Job, online []string) *reservation {
	type avail struct {
		name string
		at   int64
		idx  int
	}
	need := j.Res.withDefaults()
	av := make([]avail, 0, len(online))
	for i, n := range online {
		a := avail{name: n, idx: i}
		if held := s.alloc[n]; held != nil && len(held.jobs) > 0 {
			free := s.cfg.NodeCPUs - held.cpus
			memOK := s.cfg.NodeMem == 0 || s.cfg.NodeMem-held.mem >= need.Mem
			if free < need.NCPUs || !memOK {
				// The node must drain: it is available for the
				// reservation once every job on it has ended.
				for _, id := range held.jobs {
					if r := s.jobs[id]; r != nil {
						if end := s.expectedEnd(r); end > a.at {
							a.at = end
						}
					}
				}
			}
		}
		av = append(av, a)
	}
	sort.Slice(av, func(a, b int) bool {
		if av[a].at != av[b].at {
			return av[a].at < av[b].at
		}
		return av[a].idx < av[b].idx
	})
	if len(av) < j.NodeCount {
		return nil // not enough online nodes: nothing to promise yet
	}
	rv := &reservation{Job: j.ID}
	for _, a := range av[:j.NodeCount] {
		rv.Nodes = append(rv.Nodes, a.name)
		if a.at > rv.Shadow {
			rv.Shadow = a.at
		}
	}
	sort.Strings(rv.Nodes)
	return rv
}

// placeStrict is the FIFO/priority placement stage: walk the ordered
// queue and start jobs until the first one that does not fit — no job
// overtakes a blocked one. The started jobs are therefore a prefix of
// cands; placeStrict returns its length. Must be called with s.mu held.
func (s *Server) placeStrict(cands []*Job, online []string) int {
	caps := s.freeCaps(online)
	for i, j := range cands {
		var nodes []string
		if s.cfg.Exclusive {
			nodes = s.exclusiveFit(j, online)
		} else {
			nodes = s.fitJob(j, caps, nil)
		}
		if nodes == nil {
			return i
		}
		s.startJob(j, nodes)
		if s.cfg.Exclusive {
			return i + 1 // the cluster is now fully held
		}
	}
	return len(cands)
}

// placeBackfill is the conservative-backfill placement stage: start
// jobs in priority order until one blocks, compute its reservation,
// then keep walking and start only jobs that cannot delay it — they
// either finish (by declared walltime) before the reservation's
// shadow time or run entirely on unreserved nodes. Must be called
// with s.mu held.
func (s *Server) placeBackfill(cands []*Job, online []string) {
	caps := s.freeCaps(online)
	var rv *reservation
	var reserved map[string]bool
	for _, j := range cands {
		if rv == nil {
			if nodes := s.fitJob(j, caps, nil); nodes != nil {
				s.startJob(j, nodes)
				continue
			}
			rv = s.computeReservation(j, online)
			if rv == nil {
				break // cannot ever place the blocked job right now
			}
			reserved = make(map[string]bool, len(rv.Nodes))
			for _, n := range rv.Nodes {
				reserved[n] = true
			}
			continue
		}
		end := s.vnow() + int64(j.WallTime)
		var nodes []string
		if end <= rv.Shadow {
			nodes = s.fitJob(j, caps, nil)
		} else {
			nodes = s.fitJob(j, caps, reserved)
		}
		if nodes != nil {
			s.startJob(j, nodes)
		}
	}
	s.resv = rv
}

// schedule runs the pipeline over the eligible index, so a pass costs
// what it can start, not the size of the job table: it returns at once
// when nothing is runnable (every held submission), and under FIFO it
// walks the index in place and stops at the first misfit. The
// non-FIFO policies still sort the eligible jobs each pass, because
// the age term makes their scores a function of the logical clock.
// Must be called with s.mu held.
func (s *Server) schedule() {
	s.resv = nil
	if len(s.eligible) == 0 {
		return
	}
	// Hoisted out of the per-job walk: the sorted online list is the
	// same for the whole pass.
	online := s.onlineNodes()
	if s.cfg.Policy == PolicyFIFO {
		// Strict placement starts a prefix of the index; drop it. An
		// index that empties keeps its whole buffer, so the next
		// submission appends without growing it.
		n := s.placeStrict(s.eligible, online)
		clear(s.eligible[:n])
		if n == len(s.eligible) {
			s.eligible = s.eligible[:0]
		} else {
			s.eligible = s.eligible[n:]
		}
		return
	}
	cands := slices.Clone(s.eligible)
	s.orderStage(cands)
	if s.cfg.Policy == PolicyBackfill && !s.cfg.Exclusive {
		s.placeBackfill(cands, online)
	} else {
		s.placeStrict(cands, online)
	}
	s.eligible = slices.DeleteFunc(s.eligible, func(j *Job) bool { return j.State != StateQueued })
}

// eligiblePos returns where a job with sequence number seq sits, or
// would be inserted, in the Seq-ordered eligible index. Must be called
// with s.mu held.
func (s *Server) eligiblePos(seq uint64) int {
	return sort.Search(len(s.eligible), func(i int) bool { return s.eligible[i].Seq >= seq })
}

// addEligible enters a job that just became StateQueued into the
// eligible index at its submission position. Must be called with s.mu
// held.
func (s *Server) addEligible(j *Job) {
	s.eligible = slices.Insert(s.eligible, s.eligiblePos(j.Seq), j)
}

// dropEligible removes a job leaving StateQueued (held or deleted)
// from the eligible index. Must be called with s.mu held.
func (s *Server) dropEligible(j *Job) {
	if i := s.eligiblePos(j.Seq); i < len(s.eligible) && s.eligible[i] == j {
		s.eligible = slices.Delete(s.eligible, i, i+1)
	}
}

// startJob commits one placement: state, allocation bookkeeping,
// fairshare charge, accounting, and the StartAction for the daemon.
// Must be called with s.mu held.
func (s *Server) startJob(j *Job, nodes []string) {
	j.setState(StateRunning)
	j.Nodes = nodes
	j.StartedAt = s.logicalNow()
	res := j.Res.withDefaults()
	for _, n := range nodes {
		a := s.alloc[n]
		if a == nil {
			a = s.newAlloc()
			s.alloc[n] = a
		}
		a.jobs = append(a.jobs, j.ID)
		a.cpus += res.NCPUs
		a.mem += res.Mem
	}
	s.running++
	s.fairshareCharge(j)
	s.account(AcctStarted, j)
	s.actions = append(s.actions, StartAction{Job: j})
}

// newAlloc returns an empty nodeAlloc, recycled from a node that
// drained (releaseAlloc) when one is free. Must be called with s.mu
// held.
func (s *Server) newAlloc() *nodeAlloc {
	if n := len(s.freeAllocs); n > 0 {
		a := s.freeAllocs[n-1]
		s.freeAllocs[n-1] = nil
		s.freeAllocs = s.freeAllocs[:n-1]
		return a
	}
	return &nodeAlloc{}
}

// releaseAlloc returns a finished job's per-node share to the pool.
// Must be called with s.mu held.
func (s *Server) releaseAlloc(j *Job) {
	res := j.Res.withDefaults()
	for _, n := range j.Nodes {
		a := s.alloc[n]
		if a == nil {
			continue
		}
		for i, id := range a.jobs {
			if id == j.ID {
				a.jobs = slices.Delete(a.jobs, i, i+1)
				a.cpus -= res.NCPUs
				a.mem -= res.Mem
				break
			}
		}
		if len(a.jobs) == 0 {
			delete(s.alloc, n)
			*a = nodeAlloc{jobs: a.jobs}
			s.freeAllocs = append(s.freeAllocs, a)
		}
	}
	if s.running > 0 {
		s.running--
	}
}

// Reservation reports the backfill stage's current reservation (job,
// shadow tick, nodes), or ok=false when nothing is blocked. Part of
// the replicated state; exposed for tests and operator tooling.
func (s *Server) Reservation() (id JobID, shadow int64, nodes []string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.resv == nil {
		return "", 0, nil, false
	}
	return s.resv.Job, s.resv.Shadow, append([]string(nil), s.resv.Nodes...), true
}

// Policy reports the configured scheduling policy.
func (s *Server) Policy() SchedPolicy { return s.cfg.Policy }

// LogicalClock reports the current logical event tick (testing and
// operator observability).
func (s *Server) LogicalClock() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ltick
}
