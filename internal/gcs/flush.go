package gcs

import (
	"sort"
	"time"
)

// flushState tracks one in-progress view change. A flush reconciles
// the unstable message sets of all surviving members so that every
// member entering the new view has delivered exactly the same messages
// in the old view (virtual synchrony), then installs the new view.
type flushState struct {
	attempt    uint64
	coord      MemberID
	candidates []MemberID // proposed next-view membership (sorted)
	oldMembers []MemberID // candidates that belong to the current view
	joining    []MemberID // candidates that do not
	states     map[MemberID]*message
	started    time.Time
	// lastPropose paces intra-attempt propose retransmission
	// (coordinator); lastStateSend paces flush-state retransmission
	// (participant). Both cover datagram loss inside one attempt.
	lastPropose   time.Time
	lastStateSend time.Time
	strikes       int // participant: timeouts waiting for NEWVIEW
}

// coordinatorOf returns the member that should coordinate a view
// change of the current view: the lowest member that is not suspected
// and not leaving.
func (p *Process) coordinatorOf() MemberID {
	for _, m := range p.view.Members {
		if !p.suspected[m] && !p.leavers[m] {
			return m
		}
	}
	return "" // everyone else suspected; caller treats self as coordinator
}

// membershipChangeNeeded reports whether the current view no longer
// matches reality.
func (p *Process) membershipChangeNeeded() bool {
	for _, m := range p.view.Members {
		if p.suspected[m] || p.leavers[m] {
			return true
		}
	}
	for j := range p.joiners {
		if !p.view.Includes(j) && !p.suspected[j] {
			return true
		}
	}
	return false
}

// maybeStartFlush begins a view change if one is needed and this
// member is the coordinator. Called from the tick handler and after
// membership-relevant messages.
func (p *Process) maybeStartFlush() {
	if p.st != statusNormal || !p.membershipChangeNeeded() {
		return
	}
	coord := p.coordinatorOf()
	if coord != p.cfg.Self && coord != "" {
		return // someone else will coordinate; our flushState goes out on their propose
	}
	p.beginFlush(1)
}

// nextCandidates computes the proposed membership for the next view.
func (p *Process) nextCandidates() (candidates, old, joining []MemberID) {
	for _, m := range p.view.Members {
		if m == p.cfg.Self || (!p.suspected[m] && !p.leavers[m]) {
			candidates = append(candidates, m)
			old = append(old, m)
		}
	}
	for j := range p.joiners {
		if !p.suspected[j] && !(View{Members: candidates}).Includes(j) {
			candidates = append(candidates, j)
			joining = append(joining, j)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
	sort.Slice(joining, func(i, j int) bool { return joining[i] < joining[j] })
	return candidates, old, joining
}

// beginFlush starts (or restarts) a view change with this member as
// coordinator.
func (p *Process) beginFlush(attempt uint64) {
	// A membership change is underway: stop serving leased reads and
	// record when grants provably ceased (we stop granting the moment
	// st leaves statusNormal below; holders' leases all expire within
	// one LeaseDuration of that).
	p.revokeLease()
	if p.st == statusNormal && p.cfg.LeaseDuration > 0 {
		p.leaseFence = time.Now().Add(p.cfg.LeaseDuration)
	}
	// Push out any batch still accumulating in this round before the
	// flush snapshots p.ordered, so a batch straddling the view change
	// is reconciled (and cut) exactly like singleton DATA.
	p.flushOutData()
	p.flushReqOut()
	p.bumpStat(func(st *Stats) { st.FlushAttempts++ })
	candidates, old, joining := p.nextCandidates()
	p.st = statusFlushing
	p.fl = flushState{
		attempt:    attempt,
		coord:      p.cfg.Self,
		candidates: candidates,
		oldMembers: old,
		joining:    joining,
		states:     make(map[MemberID]*message),
		started:    time.Now(),
	}
	p.logf("flush attempt %d: candidates=%v joining=%v", attempt, candidates, joining)

	// Record our own contribution and solicit everyone else's.
	p.fl.states[p.cfg.Self] = p.makeFlushStateMsg(attempt)
	p.fl.lastPropose = time.Now()
	prop := &message{
		Kind:    kindPropose,
		From:    p.cfg.Self,
		ViewID:  p.view.ID,
		Attempt: attempt,
		Members: candidates,
	}
	p.multicast(old, prop)
	p.checkFlushComplete()
}

// makeFlushStateMsg snapshots this member's unstable messages and
// delivery progress for the coordinator.
func (p *Process) makeFlushStateMsg(attempt uint64) *message {
	msgs := p.ordered.appendTo(make([]dataMsg, 0, p.ordered.len()))
	table := make(map[MemberID]uint64, len(p.delivered))
	for m, s := range p.delivered {
		table[m] = s
	}
	return &message{
		Kind:        kindFlushState,
		From:        p.cfg.Self,
		ViewID:      p.view.ID,
		Attempt:     attempt,
		NextDeliver: p.nextDeliver,
		StableSeen:  p.stable,
		DelivTable:  table,
		Msgs:        msgs,
	}
}

// onPropose handles a view-change proposal from a coordinator.
func (p *Process) onPropose(m *message) {
	if m.ViewID != p.view.ID || p.st == statusJoining || p.st == statusClosed {
		// A proposal for a view we already left means the sender
		// missed the NEWVIEW (e.g. the old coordinator died right
		// after disseminating it). Retransmit our cached copy.
		if p.st != statusClosed && p.lastNewView != nil &&
			m.ViewID == p.lastNewView.ViewID && memberIn(p.lastNewView.Members, m.From) {
			p.sendTo(m.From, p.lastNewView)
		}
		return
	}
	if p.suspected[m.From] {
		return // we believe this coordinator is dead
	}
	switch p.st {
	case statusNormal:
		// Enter the flush as a participant. Our lease dies here,
		// synchronously with the membership change: the flush state we
		// send below is the revocation acknowledgment.
		p.revokeLease()
		if p.cfg.LeaseDuration > 0 {
			p.leaseFence = time.Now().Add(p.cfg.LeaseDuration)
		}
		p.st = statusFlushing
		p.fl = flushState{
			attempt: m.Attempt,
			coord:   m.From,
			started: time.Now(),
		}
	case statusFlushing:
		// Competing or newer proposal. Follow a higher attempt, or a
		// lower-ID coordinator at the same attempt (deterministic
		// tie-break). If we were coordinating ourselves, this demotes
		// us; our own flush is simply abandoned.
		if m.Attempt < p.fl.attempt {
			return
		}
		if m.Attempt == p.fl.attempt && m.From > p.fl.coord {
			return
		}
		p.fl = flushState{
			attempt: m.Attempt,
			coord:   m.From,
			started: time.Now(),
		}
	}
	p.sendTo(m.From, p.makeFlushStateMsg(m.Attempt))
}

// onFlushState collects a participant's contribution (coordinator
// only).
func (p *Process) onFlushState(m *message) {
	if p.lastNewView != nil && m.ViewID == p.lastNewView.ViewID &&
		memberIn(p.lastNewView.Members, m.From) && m.ViewID < p.view.ID {
		// A member still flushing a view we already left: its NEWVIEW
		// was lost. Retransmit our cached copy (any member that
		// installed the view holds one).
		p.sendTo(m.From, p.lastNewView)
		return
	}
	if p.st != statusFlushing || p.fl.coord != p.cfg.Self {
		return
	}
	if m.ViewID != p.view.ID || m.Attempt != p.fl.attempt {
		return
	}
	if !memberIn(p.fl.oldMembers, m.From) {
		return
	}
	delete(p.flushMiss, m.From)
	p.fl.states[m.From] = m
	p.checkFlushComplete()
}

// checkFlushComplete finishes the flush once every old-view candidate
// has reported and any stale-lease barrier has passed.
func (p *Process) checkFlushComplete() {
	if p.st != statusFlushing || p.fl.coord != p.cfg.Self {
		return
	}
	for _, m := range p.fl.oldMembers {
		if _, ok := p.fl.states[m]; !ok {
			return
		}
	}
	if p.leaseBarrierWait() > 0 {
		return // flushTick re-checks until the barrier passes
	}
	p.completeFlush()
}

// leaseBarrierWait returns how long the coordinator must still delay
// installing a new view that excludes current members, so that any
// read lease those members hold has expired before the new view can
// ack its first mutation. Excluded members revoke nothing themselves
// (they never see the flush), so the coordinator waits out the lease
// fence — one LeaseDuration after grants ceased. Under the FailStop
// policy (the paper's model) exclusion means a crash and a crashed
// member serves no reads, so no barrier applies; it matters under
// Majority, where an excluded member may be alive across a partition.
// The fence anchors at this member's flush entry; a live partitioned
// sequencer stops granting at its own failure-detection timeout, so
// detection skew beyond the lease safety margin is the residual
// window (see DESIGN).
func (p *Process) leaseBarrierWait() time.Duration {
	if p.cfg.LeaseDuration <= 0 || !p.cfg.SafeDelivery || p.cfg.PartitionPolicy != Majority {
		return 0
	}
	excluded := false
	for _, m := range p.view.Members {
		if !memberIn(p.fl.candidates, m) {
			excluded = true
			break
		}
	}
	if !excluded {
		return 0
	}
	return time.Until(p.leaseFence)
}

// completeFlush is the coordinator's commit step: compute the final
// message set of the old view, deliver it locally, gather the state
// snapshot for joiners, and install + disseminate the new view.
func (p *Process) completeFlush() {
	// Union of all unstable messages reported by survivors.
	union := make(map[uint64]*dataMsg)
	maxStable := p.stable
	for _, st := range p.fl.states {
		if st.StableSeen > maxStable {
			maxStable = st.StableSeen
		}
		for i := range st.Msgs {
			d := st.Msgs[i]
			if _, ok := union[d.Seq]; !ok {
				union[d.Seq] = &d
			}
		}
	}
	// The final sequence is the longest contiguous extension above the
	// highest stability watermark. Messages beyond a gap were known
	// only to dead members and are cut; their senders (if alive)
	// retransmit them in the new view.
	finalSeq := maxStable
	for union[finalSeq+1] != nil {
		finalSeq++
	}
	var cut int
	msgs := make([]dataMsg, 0, len(union))
	for seq, d := range union {
		if seq <= finalSeq {
			msgs = append(msgs, *d)
		} else {
			cut++
		}
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Seq < msgs[j].Seq })
	if cut > 0 {
		p.logf("flush cut %d messages sequenced beyond %d", cut, finalSeq)
	}

	// Deliver the final prefix locally so the snapshot reflects it.
	for i := range msgs {
		p.acceptData(&msgs[i])
	}
	p.deliverTo(finalSeq)

	newViewID := p.view.ID + p.fl.attempt
	primary := p.newViewPrimary()
	candidates := p.fl.candidates
	joining := p.fl.joining
	attempt := p.fl.attempt
	oldViewID := p.view.ID

	// State transfer for joiners, gathered before anything is
	// disseminated so a snapshot failure can simply drop the joiners
	// from the proposal.
	if len(joining) > 0 {
		// The application may serve the transfer as a delta of
		// everything after the joiners' recovered state; with several
		// joiners the minimum advertised version covers them all (each
		// skips what it already has).
		since := p.joinSince[joining[0]]
		for _, j := range joining[1:] {
			if p.joinSince[j] < since {
				since = p.joinSince[j]
			}
		}
		snapshot, ok := p.collectSnapshot(since)
		if !ok {
			p.logf("snapshot request timed out; admitting no joiners this view")
			kept := candidates[:0:0]
			for _, c := range candidates {
				if !memberIn(joining, c) {
					kept = append(kept, c)
				}
			}
			candidates, joining = kept, nil
		} else {
			table := make(map[MemberID]uint64, len(p.delivered))
			for m, s := range p.delivered {
				table[m] = s
			}
			// Chunk the snapshot so no single frame carries an
			// unbounded application state.
			chunkCnt := (len(snapshot) + p.cfg.TransferChunk - 1) / p.cfg.TransferChunk
			if chunkCnt == 0 {
				chunkCnt = 1
			}
			for i := 0; i < chunkCnt; i++ {
				lo := i * p.cfg.TransferChunk
				hi := lo + p.cfg.TransferChunk
				if hi > len(snapshot) {
					hi = len(snapshot)
				}
				snap := &message{
					Kind:       kindStateSnap,
					From:       p.cfg.Self,
					ViewID:     oldViewID,
					Attempt:    attempt,
					NewViewID:  newViewID,
					DelivTable: table,
					ChunkIdx:   uint64(i),
					ChunkCnt:   uint64(chunkCnt),
					AppState:   snapshot[lo:hi],
				}
				p.multicast(joining, snap)
			}
		}
	}

	nv := &message{
		Kind:      kindNewView,
		From:      p.cfg.Self,
		ViewID:    oldViewID,
		Attempt:   attempt,
		NewViewID: newViewID,
		Members:   candidates,
		Primary:   primary,
		FinalSeq:  finalSeq,
		Msgs:      msgs,
	}
	p.multicast(candidates, nv)
	// Keep the NEWVIEW for retransmission: a member whose copy was
	// lost keeps resending its flush state, which we answer with this.
	p.lastNewView = nv
	p.adoptView(View{ID: newViewID, Members: candidates, Primary: primary})
}

// newViewPrimary applies the configured partition policy.
func (p *Process) newViewPrimary() bool {
	if !p.view.Primary {
		return false
	}
	switch p.cfg.PartitionPolicy {
	case Majority:
		// Strict majority of the previous primary view must carry
		// over. Joiners do not count toward the quorum.
		return 2*len(p.fl.oldMembers) > len(p.view.Members)
	default: // FailStop
		return true
	}
}

// collectSnapshot asks the application for a state snapshot via the
// event stream and waits for the reply. Blocking the protocol loop is
// deliberate: the snapshot must be positioned exactly here in the
// event order, and the group is quiescent during a flush anyway.
func (p *Process) collectSnapshot(since uint64) ([]byte, bool) {
	reply := make(chan []byte, 1)
	var once bool
	p.events.push(SnapshotRequestEvent{Since: since, Reply: func(state []byte) {
		if !once {
			once = true
			reply <- state
		}
	}})
	select {
	case s := <-reply:
		return s, true
	case <-time.After(p.cfg.SnapshotTimeout):
		return nil, false
	case <-p.done:
		return nil, false
	}
}

// onNewView installs the view computed by the coordinator.
func (p *Process) onNewView(m *message) {
	switch p.st {
	case statusJoining:
		p.joinerInstall(m)
		return
	case statusClosed:
		return
	}
	if m.ViewID != p.view.ID || m.NewViewID <= p.view.ID {
		return
	}
	if !memberIn(m.Members, p.cfg.Self) {
		return // we were excluded; see the package comment on rejoin
	}
	// Deliver the agreed final prefix of the old view.
	for i := range m.Msgs {
		p.acceptData(&m.Msgs[i])
	}
	p.deliverTo(m.FinalSeq)
	p.lastNewView = m // cache for retransmission to stragglers
	if p.nextDeliver-1 != m.FinalSeq {
		// Should be impossible: the coordinator's union contains every
		// message up to FinalSeq. Log loudly and continue; the
		// alternative is a stalled member.
		p.logf("ERROR: flush shortfall, delivered to %d want %d", p.nextDeliver-1, m.FinalSeq)
	}
	p.adoptView(View{ID: m.NewViewID, Members: m.Members, Primary: m.Primary})
}

// deliverTo delivers buffered messages strictly up to seq. The
// membership agreement of the flush supersedes the safe-delivery
// acknowledgment condition: everything up to the agreed final
// sequence is known to every survivor.
func (p *Process) deliverTo(seq uint64) {
	for p.nextDeliver <= seq {
		d := p.ordered.get(p.nextDeliver)
		if d == nil {
			return
		}
		p.deliverOne(d)
		p.nextDeliver++
	}
}

// adoptView resets protocol state for the new view, emits the
// ViewEvent, and retransmits our still-undelivered messages.
func (p *Process) adoptView(v View) {
	p.installView(v)
	p.st = statusNormal
	p.fl = flushState{}
	p.suspected = make(map[MemberID]bool)
	p.leavers = make(map[MemberID]bool)
	p.flushMiss = make(map[MemberID]int)
	for j := range p.joiners {
		if v.Includes(j) {
			delete(p.joiners, j)
			delete(p.joinSince, j)
		}
	}
	p.events.push(ViewEvent{View: p.View()})
	p.logf("installed %s", v)

	// Retransmit our still-undelivered messages. When we are the new
	// sequencer, transmitting self-sequences and delivers synchronously,
	// which pops entries off p.pending — so walk by sender sequence
	// number, not by index.
	seqs := make([]uint64, p.pending.len())
	for i := range seqs {
		seqs[i] = p.pending.at(i).senderSeq
	}
	for _, s := range seqs {
		for i := 0; i < p.pending.len(); i++ {
			if pm := p.pending.at(i); pm.senderSeq == s {
				p.transmitPending(pm)
				break
			}
		}
	}
}

// joinerInstall handles the NEWVIEW that admits this process.
func (p *Process) joinerInstall(m *message) {
	if !memberIn(m.Members, p.cfg.Self) {
		return
	}
	if !p.snapGot || p.snapViewID != m.NewViewID {
		// The snapshot was lost or belongs to another attempt. Keep
		// soliciting; the group will run another flush for us. (FIFO
		// transports deliver the snapshot before the NEWVIEW, so this
		// is a loss-only path.)
		p.logf("NEWVIEW %d without matching snapshot; rejoining", m.NewViewID)
		return
	}
	p.delivered = p.snapTable
	if p.delivered == nil {
		p.delivered = make(map[MemberID]uint64)
	}
	// Continue our sender numbering where a previous incarnation of
	// this member ID left off, so the group's duplicate suppression
	// does not swallow our new messages; shift anything we queued
	// while joining.
	if base := p.delivered[p.cfg.Self]; base > 0 {
		for i := 0; i < p.pending.len(); i++ {
			p.pending.at(i).senderSeq += base
		}
		p.senderSeq += base
	}
	p.events.push(StateTransferEvent{State: p.snapApp})
	p.snapGot = false
	p.snapTable = nil
	p.snapApp = nil
	p.snapChunks = nil
	p.snapHave = 0
	p.adoptView(View{ID: m.NewViewID, Members: m.Members, Primary: m.Primary})
}

// onStateSnap collects one chunk of the pre-admission state transfer
// (joiner only). snapGot flips once all chunks of one NewViewID are
// in; a chunk from a different (newer) attempt restarts assembly.
func (p *Process) onStateSnap(m *message) {
	if p.st != statusJoining {
		return
	}
	const maxChunks = 1 << 16 // sanity bound against a corrupt frame
	if m.ChunkCnt == 0 || m.ChunkCnt > maxChunks || m.ChunkIdx >= m.ChunkCnt {
		return
	}
	if p.snapChunks == nil || p.snapViewID != m.NewViewID || len(p.snapChunks) != int(m.ChunkCnt) {
		p.snapGot = false
		p.snapViewID = m.NewViewID
		p.snapChunks = make([][]byte, m.ChunkCnt)
		p.snapHave = 0
	}
	if p.snapChunks[m.ChunkIdx] == nil {
		chunk := m.AppState
		if chunk == nil {
			chunk = []byte{}
		}
		p.snapChunks[m.ChunkIdx] = chunk
		p.snapHave++
	}
	p.snapTable = m.DelivTable
	if p.snapHave < len(p.snapChunks) {
		return
	}
	total := 0
	for _, c := range p.snapChunks {
		total += len(c)
	}
	p.snapApp = make([]byte, 0, total)
	for _, c := range p.snapChunks {
		p.snapApp = append(p.snapApp, c...)
	}
	p.snapGot = true
}

// onJoin handles an admission request.
func (p *Process) onJoin(m *message) {
	if p.st == statusJoining || p.st == statusClosed {
		return
	}
	if p.view.Includes(m.From) {
		// A current member asking to join must have crashed and
		// restarted: treat the old incarnation as failed, then
		// readmit.
		if !p.suspected[m.From] {
			p.suspected[m.From] = true
			p.shareSuspicions()
		}
	}
	p.joiners[m.From] = true
	p.joinSince[m.From] = m.Since
	p.maybeStartFlush()
}

// onLeave handles a voluntary departure, which the paper models as a
// politely announced failure.
func (p *Process) onLeave(m *message) {
	if m.ViewID != p.view.ID || !p.view.Includes(m.From) {
		return
	}
	p.leavers[m.From] = true
	p.maybeStartFlush()
}

// onSuspect merges a peer's failure suspicions. Sharing suspicions
// makes coordinator election converge: everyone ends up agreeing on
// who is out.
func (p *Process) onSuspect(m *message) {
	if m.ViewID != p.view.ID {
		return
	}
	changed := false
	for _, s := range m.Suspects {
		if s == p.cfg.Self || p.suspected[s] || !p.view.Includes(s) {
			continue
		}
		p.suspected[s] = true
		changed = true
	}
	if !changed {
		return
	}
	switch p.st {
	case statusNormal:
		p.maybeStartFlush()
	case statusFlushing:
		p.flushReact()
	}
}

// shareSuspicions broadcasts our suspicion set to the view.
func (p *Process) shareSuspicions() {
	suspects := make([]MemberID, 0, len(p.suspected))
	for s := range p.suspected {
		suspects = append(suspects, s)
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i] < suspects[j] })
	m := &message{Kind: kindSuspect, From: p.cfg.Self, ViewID: p.view.ID, Suspects: suspects}
	p.sendToMembers(m)
	if p.st == statusFlushing {
		p.flushReact()
	} else {
		p.maybeStartFlush()
	}
}

// flushReact re-evaluates an in-progress flush after the suspicion set
// changed: a coordinator restarts if a candidate died; a participant
// takes over if the coordinator died.
func (p *Process) flushReact() {
	if p.st != statusFlushing {
		return
	}
	if p.fl.coord == p.cfg.Self {
		for _, c := range p.fl.candidates {
			if p.suspected[c] || p.leavers[c] {
				p.beginFlush(p.fl.attempt + 1)
				return
			}
		}
		return
	}
	if p.suspected[p.fl.coord] {
		// The coordinator died mid-flush. The lowest surviving member
		// takes over with a fresh attempt.
		if p.coordinatorOf() == p.cfg.Self {
			p.beginFlush(p.fl.attempt + 1)
		}
	}
}

// flushTick retransmits within an attempt and enforces the
// per-attempt timeout.
func (p *Process) flushTick(now time.Time) {
	if now.Sub(p.fl.started) < p.cfg.FlushTimeout {
		// Intra-attempt retransmission against datagram loss: the
		// coordinator re-solicits members that have not reported; a
		// participant re-sends its state (which also prompts a
		// NEWVIEW retransmission if the flush already completed).
		if p.fl.coord == p.cfg.Self {
			if now.Sub(p.fl.lastPropose) >= p.cfg.ResendInterval {
				p.fl.lastPropose = now
				prop := &message{
					Kind:    kindPropose,
					From:    p.cfg.Self,
					ViewID:  p.view.ID,
					Attempt: p.fl.attempt,
					Members: p.fl.candidates,
				}
				var lagging []MemberID
				for _, m := range p.fl.oldMembers {
					if _, ok := p.fl.states[m]; !ok && m != p.cfg.Self {
						lagging = append(lagging, m)
					}
				}
				p.multicast(lagging, prop)
			}
			// All states may already be in with only the stale-lease
			// barrier pending; idempotent, completes when it passes.
			p.checkFlushComplete()
		} else if now.Sub(p.fl.lastStateSend) >= p.cfg.ResendInterval {
			p.fl.lastStateSend = now
			p.sendTo(p.fl.coord, p.makeFlushStateMsg(p.fl.attempt))
		}
		return
	}
	if p.fl.coord == p.cfg.Self {
		// Participants that have not reported get a strike; two
		// consecutive missed attempts mean they are presumed dead and
		// excluded, one missed attempt just retries with the same
		// candidates (they may merely be slow).
		changed := false
		for _, m := range p.fl.oldMembers {
			if m == p.cfg.Self {
				continue
			}
			if _, ok := p.fl.states[m]; !ok {
				p.flushMiss[m]++
				if p.flushMiss[m] >= 2 && !p.suspected[m] {
					p.suspected[m] = true
					changed = true
				}
			} else {
				delete(p.flushMiss, m)
			}
		}
		if changed {
			p.shareSuspicions()
		}
		p.beginFlush(p.fl.attempt + 1)
		return
	}
	// Participant: the coordinator is slow or dead.
	p.fl.strikes++
	p.fl.started = now
	if p.fl.strikes >= 2 {
		if !p.suspected[p.fl.coord] {
			p.suspected[p.fl.coord] = true
			p.shareSuspicions()
		}
		if p.coordinatorOf() == p.cfg.Self {
			p.beginFlush(p.fl.attempt + 1)
		}
	}
}

func memberIn(ms []MemberID, m MemberID) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}
