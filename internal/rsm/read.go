package rsm

import (
	"time"

	"joshua/internal/codec"
	"joshua/internal/transport"
)

// readWorker receives client datagrams straight from the client
// endpoint (every worker of the pool ranges over the same channel) and
// serves each one off the event loop.
func (r *Replica) readWorker() {
	labelStage("read_worker")
	recv := r.clientEP.Recv()
	var ready []parkedRead // scratch for serveParked, reused
	for {
		select {
		case <-r.done:
			return
		case <-r.wake:
			ready = r.serveParked(ready)
		case dg, ok := <-recv:
			if !ok {
				return
			}
			r.serveRequest(dg.From, dg.Payload)
		}
	}
}

// serveRequest classifies and serves one client datagram. It runs on a
// read worker, so it may touch only concurrency-safe state: the dedup
// table, the group layer's view and lease, the parked reads, and
// whatever the Respond hook guards. With several workers, two of one
// client's outstanding commands may reach Broadcast in either order;
// their replies follow the total order they get, not the order they
// were sent (see Classifier).
func (r *Replica) serveRequest(from transport.Addr, payload []byte) {
	cls := r.cfg.Classify(payload)
	switch cls.Verdict {
	case Ignore:
		return
	case Reply:
		r.bump(func(st *Stats) { st.Intercepted++; st.LocalReads++ })
		r.respond(from, payload, cls.Respond)
		return
	}
	r.bump(func(st *Stats) { st.Intercepted++ })
	if cls.Verdict == OrderedRead && r.leasedRead(from, payload, &cls) {
		return
	}
	r.replicate(from, payload, cls.ReqID)
}

// respond builds a local read's response with fn and sends it.
func (r *Replica) respond(from transport.Addr, payload []byte, fn func([]byte) *codec.Encoder) {
	if fn != nil {
		if enc := fn(payload); enc != nil {
			r.send(from, enc.Bytes())
			enc.Release()
		}
	}
}

// replicate takes a request to the total order: a retry already
// applied is answered from the deduplication table, a replica outside
// the primary component refuses, and anything else is broadcast.
func (r *Replica) replicate(from transport.Addr, payload, reqID []byte) {
	// Retried request already applied? Answer from the table without
	// re-executing (exactly-once semantics across replica failures) —
	// but only once the command's index is covered by the durability
	// watermark: a retry must never be acknowledged ahead of the
	// fsync that makes the command crash-proof. A pre-durability
	// retry falls through to the broadcast path; the copy collapses
	// in the table and its reply is released by the normal
	// durability-gated path.
	if idx, hasResp, ok := r.dedup.lookup(reqID); ok {
		if r.log == nil || idx <= r.durableIdx.Load() {
			if hasResp {
				// fetch copies the recorded response under the table
				// lock into a pooled encoder. A concurrent eviction
				// between lookup and fetch just drops the answer; the
				// client's next retry recovers.
				if enc, _, ok2 := r.dedup.fetch(reqID); ok2 && enc != nil {
					r.bump(func(st *Stats) { st.DedupHits++ })
					r.send(from, enc.Bytes())
					enc.Release()
				}
			}
			return
		}
	}

	if !r.group.View().Primary {
		if r.cfg.RejectNotPrimary != nil {
			r.send(from, r.cfg.RejectNotPrimary(reqID))
		}
		return
	}

	enc := codec.GetEncoder(64 + len(reqID) + len(payload))
	encodeEnvelopeTo(enc, reqID, r.cfg.Self, from, payload)
	err := r.group.Broadcast(enc.Bytes())
	enc.Release() // Broadcast copies the payload before queueing
	if err != nil && r.cfg.RejectShutdown != nil {
		r.send(from, r.cfg.RejectShutdown(reqID))
	}
}

// parkedRead is an ordered read waiting, under a lease, for local
// state to cover its mark. payload is the datagram, which the
// transport hands over for good; reqID and respond come from its
// classification.
type parkedRead struct {
	from     transport.Addr
	payload  []byte
	reqID    []byte
	respond  func([]byte) *codec.Encoder
	epoch    uint64 // lease epoch when the read arrived
	mark     uint64 // deliveries to apply before serving it
	deadline int64  // UnixNano: fall back past this, lease or not
	serve    bool   // serveParked: serve locally (else fall back)
}

// leaseNow is one reading of what a leased read is checked against.
// The lease is read before local progress, and durableIdx before
// appliedPub, so every race resolves toward waiting.
type leaseNow struct {
	epoch   uint64
	live    bool
	handled uint64
	durable bool
}

func (r *Replica) leaseNow() leaseNow {
	n := leaseNow{epoch: r.group.LeaseEpoch(), live: r.group.LeaseValid()}
	n.handled = r.delivHandled.Load()
	n.durable = r.log == nil || r.durableIdx.Load() >= r.appliedPub.Load()
	return n
}

// broken reports that pr may no longer be served locally: the lease
// died or was revoked since pr took its mark.
func (n leaseNow) broken(pr *parkedRead) bool { return !n.live || n.epoch != pr.epoch }

// ready reports that local state holds pr's mark, applied and durable.
func (n leaseNow) ready(pr *parkedRead) bool { return n.handled >= pr.mark && n.durable }

// leasedRead serves an ordered read from local state under the read
// lease, parks it until local state catches up, or reports false when
// it must be broadcast instead: no live lease when it arrived.
//
// The read's mark (gcs.Process.ReadMark) counts every delivery this
// replica must apply before its state holds each command a client was
// answered for before the read arrived. A read whose mark is applied
// and durable is served at once. Otherwise it parks, and a read worker
// serves it once the loop (after a round's apply) or the releaser
// (after a durability step) resumes it — provided the lease is still
// live and its epoch unchanged, since a revocation may have cut the
// suffix the mark counted on. A read that cannot be served within one
// lease period, or whose lease breaks, falls back to the broadcast.
// The instant its checks pass is the read's linearization point, so
// the reply may be built after the lease is revoked.
func (r *Replica) leasedRead(from transport.Addr, payload []byte, cls *Classification) bool {
	epoch, mark := r.group.ReadMark()
	pr := parkedRead{from: from, payload: payload, reqID: cls.ReqID, respond: cls.Respond, epoch: epoch, mark: mark}
	now := r.leaseNow()
	if now.broken(&pr) {
		r.leaseNoLease.Add(1)
		return false
	}
	if now.ready(&pr) {
		r.serveLeased(&pr)
		return true
	}
	r.park(&pr)
	return true
}

// serveLeased answers a leased read from local state.
func (r *Replica) serveLeased(pr *parkedRead) {
	r.leaseReads.Add(1)
	r.bump(func(st *Stats) { st.LocalReads++ })
	r.respond(pr.from, pr.payload, pr.respond)
}

// park queues a leased read that must wait for its mark. Nothing here
// blocks or, once the parked slice has grown, allocates.
func (r *Replica) park(pr *parkedRead) {
	r.leaseWaits.Add(1)
	lease := r.group.LeaseDuration()
	pr.deadline = time.Now().Add(lease).UnixNano()
	r.parkMu.Lock()
	if len(r.parked) == 0 {
		r.parkTimer.Reset(lease)
	}
	r.parked = append(r.parked, *pr)
	r.nParked.Store(int64(len(r.parked)))
	r.parkMu.Unlock()
	// A round that completed after the check in leasedRead, but before
	// nParked rose, saw nothing to resume; look again so the read does
	// not wait for the next round.
	if now := r.leaseNow(); now.ready(pr) || now.broken(pr) {
		r.kick()
	}
}

// kick wakes one read worker to look at the parked reads. It never
// blocks: a wake already pending covers this one.
func (r *Replica) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// resumeParked wakes a read worker if any read is parked. The loop
// calls it after each round and the releaser after each durability
// step.
func (r *Replica) resumeParked() {
	if r.nParked.Load() > 0 {
		r.kick()
	}
}

// serveParked takes every parked read that has stopped waiting: it
// serves one whose mark is applied and durable under an unbroken
// lease, falls back to the broadcast for one whose lease broke or
// whose lease period is over, and re-arms the timer for the earliest
// read still waiting. buf is the calling
// worker's scratch slice, returned emptied for reuse.
func (r *Replica) serveParked(buf []parkedRead) []parkedRead {
	r.parkMu.Lock()
	now, at := r.leaseNow(), time.Now().UnixNano()
	keep := r.parked[:0]
	var next int64
	for i := range r.parked {
		pr := &r.parked[i]
		switch {
		case now.broken(pr):
			pr.serve = false
		case now.ready(pr):
			pr.serve = true
		case at >= pr.deadline:
			pr.serve = false
		default:
			keep = append(keep, *pr)
			if next == 0 || pr.deadline < next {
				next = pr.deadline
			}
			continue
		}
		buf = append(buf, *pr)
	}
	clear(r.parked[len(keep):])
	r.parked = keep
	r.nParked.Store(int64(len(keep)))
	if next != 0 {
		r.parkTimer.Reset(time.Duration(next - at))
	}
	r.parkMu.Unlock()

	for i := range buf {
		pr := &buf[i]
		if pr.serve {
			r.serveLeased(pr)
		} else {
			r.leaseWaitFallback.Add(1)
			r.replicate(pr.from, pr.payload, pr.reqID)
		}
	}
	clear(buf)
	return buf[:0]
}
