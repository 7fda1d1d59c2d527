package rsm

import (
	"bytes"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// reply is one held command response. The releaser sends enc's bytes
// and then returns enc to the codec pool (the transport contract: Send
// does not retain the payload after it returns).
type reply struct {
	to  transport.Addr
	enc *codec.Encoder
}

// releaseBatch is one round's output, handed to the releaser
// goroutine: replies held until the round's durability epoch (tk)
// completes. Batches are released strictly in round order, so a later
// round's replies can never overtake an earlier round's.
type releaseBatch struct {
	tk       *wal.Ticket // nil: the round appended nothing awaiting durability
	maxIndex uint64      // durable watermark once tk resolves (0 = none)
	replies  []reply
	t0       time.Time // when the round's commit was issued (apply-stage start)
	applyEnd time.Time // when the round's apply stage finished
}

// maxEventsPerRound bounds one round's batch, and with it how long the
// round's first command waits for the batch to be collected.
const maxEventsPerRound = 256

// runRound is one event-loop round: deliveries are collected into a
// batch and executed through applyBatch (WAL fsync overlapping the
// apply stage), while control events (views, state transfer) act as
// ordering points — everything delivered before them is applied first.
func (r *Replica) runRound(first gcs.Event, events <-chan gcs.Event) {
	batch := r.batchBuf[:0]
	flush := func() {
		r.applyBatch(batch)
		// Every delivery in the batch is now reflected in local state;
		// credit them so parked leased reads can see their mark reached.
		r.delivHandled.Add(uint64(len(batch)))
		batch = batch[:0]
	}
	handle := func(e gcs.Event) {
		if ev, ok := e.(gcs.DeliverEvent); ok {
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, ev.Payload); err != nil {
				env.release()
				r.logf("dropping malformed replicated command: %v", err)
				r.delivHandled.Add(1)
				return
			}
			batch = append(batch, env)
			return
		}
		flush()
		r.handleGroupEvent(e)
	}
	handle(first)
	for i := 1; i < maxEventsPerRound; i++ {
		select {
		case e, ok := <-events:
			if ok {
				handle(e)
				continue
			}
		default:
		}
		break // the queue is drained (or closed): end the round
	}
	flush()
	r.batchBuf = batch[:0]
	// The round may have applied a parked read's mark, or (with a view
	// event) broken its lease epoch.
	r.resumeParked()
}

// takeReplySlice pulls a recycled per-round reply slice from the
// releaser, or reports empty so append allocates one that will enter
// the cycle.
func (r *Replica) takeReplySlice() []reply {
	select {
	case s := <-r.replyFree:
		return s
	default:
		return nil
	}
}

// applyBatch runs one collected round in two passes and releases its
// envelopes, which it owns. Pass 1 (in total order, on the loop):
// classify each delivery against the dedup table and the round's
// earlier copies, assign fresh commands their applied indices and
// append those the WAL does not already hold to it; then issue the
// round's group-commit fsync asynchronously. Pass 2 (concurrent with
// the fsync): apply each fresh command in log order and record its
// reply in the dedup table, and answer every other copy from the
// table. The releaser holds the round's replies until the fsync lands.
// Dedup inserts and eviction happen on the loop in total order, so the
// table stays identical across replicas.
func (r *Replica) applyBatch(batch []*envelope) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	if r.posIdx == nil {
		r.posIdx = make(map[uint64]int, 256)
	}
	clear(r.posIdx)
	pos := r.posIdx // ReqID hash → first copy this round
	fresh := 0
	dirty := false // the round appended to the log
	// Records at or below the log's last index are already on disk:
	// local recovery replays them through here without logging them
	// twice, while live and transferred commands lie above it.
	var logged uint64
	if r.log != nil {
		logged = r.log.LastIndex()
	}
	for i, env := range batch {
		h := dedupHash(env.ReqID)
		j, dup := pos[h]
		if !dup {
			pos[h] = i
		} else if !bytes.Equal(batch[j].ReqID, env.ReqID) {
			dup = hasCopy(batch[:i], env.ReqID) // hash collision
		}
		if dup {
			continue
		}
		if _, _, seen := r.dedup.lookup(env.ReqID); seen {
			continue
		}
		r.appliedIdx++
		env.index = r.appliedIdx
		fresh++
		if r.log != nil && env.index > logged {
			// Write-ahead: the record hits the log before Apply runs.
			// Recovery replays the log in index order, so a record that
			// outlives a crash mid-apply is simply (re)applied at
			// restart. The staged frame shares the envelope's wire
			// buffer (no copy).
			if err := r.log.AppendShared(env.index, env.wire()); err != nil {
				r.logf("wal append at %d failed: %v", env.index, err)
			} else {
				dirty = true
				r.sinceCkpt++
			}
		}
	}

	// Publish the round's applied index before execution starts: the
	// leased-read durability gate must see the pre-apply value so it
	// cannot pass while this round's effects outrun the fsync.
	r.appliedPub.Store(r.appliedIdx)

	// Pass 1→2 handoff: start the group-commit fsync, then execute the
	// batch while it is in flight.
	var tk *wal.Ticket
	var maxIndex uint64
	if dirty {
		tk = r.log.CommitTicket()
		maxIndex = r.appliedIdx
	}

	// A fresh command's reply leaves from the encoder Apply wrote, which
	// the releaser releases after the send; the dedup table keeps its
	// own copy. Every other copy, from this round or an earlier one, is
	// answered from the table (fetch copies under its lock: an evicted
	// record's bytes are overwritten, so handing out a view would race
	// with later rounds).
	replies := r.takeReplySlice()
	for _, env := range batch {
		// The output rule, and no output outside the primary component:
		// a minority fragment may keep its local state self-consistent,
		// but its results must never reach users.
		answer := env.Client != "" && r.view.Primary && r.shouldReply(env)
		if env.index == 0 {
			if answer {
				if enc, _, ok := r.dedup.fetch(env.ReqID); ok && enc != nil {
					replies = append(replies, reply{to: env.Client, enc: enc})
				}
			}
			continue
		}
		enc := codec.GetEncoder(256)
		r.service.Apply(Command{ReqID: env.ReqID, Payload: env.Payload, Origin: env.Origin, Client: env.Client}, enc)
		var resp []byte
		if enc.Len() > 0 {
			resp = enc.Bytes()
		}
		r.dedupInsert(env.ReqID, resp, env.index)
		if answer && resp != nil {
			replies = append(replies, reply{to: env.Client, enc: enc})
		} else {
			enc.Release()
		}
	}
	applyEnd := time.Now()
	for i, env := range batch {
		env.release()
		batch[i] = nil
	}
	if fresh > 0 {
		r.bump(func(st *Stats) {
			st.Applied += uint64(fresh)
			st.ApplyBarriers += uint64(fresh)
			st.AppliedIndex = r.appliedIdx
		})
	}
	r.dispatch(releaseBatch{tk: tk, maxIndex: maxIndex, replies: replies, t0: t0, applyEnd: applyEnd})

	r.maybeCheckpoint()
}

// hasCopy reports whether reqID occurs among a round's earlier
// commands, for the rare round in which two ReqIDs share a dedup hash.
func hasCopy(batch []*envelope, reqID []byte) bool {
	for _, env := range batch {
		if bytes.Equal(env.ReqID, reqID) {
			return true
		}
	}
	return false
}

// dispatch hands one round's output to the releaser, in round order,
// unless the replica is shutting down.
func (r *Replica) dispatch(b releaseBatch) {
	if b.tk == nil && len(b.replies) == 0 {
		return
	}
	select {
	case r.relQ <- b:
	case <-r.done:
	}
}

// releaser drains release batches strictly in round order: each
// batch's replies leave only after its durability epoch resolves, so
// no client is ever acknowledged for a command the log could still
// lose, and a later round's reply can never overtake an earlier
// round's (same-client FIFO holds by construction).
func (r *Replica) releaser() {
	labelStage("releaser")
	for {
		select {
		case <-r.done:
			return
		case b := <-r.relQ:
			if b.tk != nil {
				// Wait resolves even on Close: the log completes every
				// outstanding ticket with its final fsync's outcome.
				err := b.tk.Wait()
				at := time.Now()
				if err != nil {
					r.logf("wal commit failed: %v", err)
				}
				// Overlap: the interval both the fsync and the apply
				// stage were running; lag: how long the round's replies
				// waited on durability after apply finished.
				end := at
				if b.applyEnd.Before(end) {
					end = b.applyEnd
				}
				overlap := end.Sub(b.t0)
				if overlap < 0 {
					overlap = 0
				}
				lag := at.Sub(b.applyEnd)
				if lag < 0 {
					lag = 0
				}
				r.bump(func(st *Stats) {
					st.FsyncOverlapNs += uint64(overlap)
					if uint64(lag) > st.DurabilityLagMax {
						st.DurabilityLagMax = uint64(lag)
					}
				})
				if err == nil && b.maxIndex > 0 {
					r.durableIdx.Store(b.maxIndex)
					r.resumeParked()
				}
			}
			for _, rep := range b.replies {
				r.send(rep.to, rep.enc.Bytes())
				rep.enc.Release()
			}
			// The round is fully released: durability resolved and
			// replies sent. Hand the slice back to the loop for the
			// next round.
			if b.replies != nil {
				clear(b.replies)
				select {
				case r.replyFree <- b.replies[:0]:
				default:
				}
			}
		}
	}
}

// send hands one response to the client endpoint. Send never blocks:
// each transport queues per peer (tcpnet drops the oldest frame when a
// peer's queue is full), so a slow or dead client socket cannot stall
// command application, and the client's retry recovers a lost reply
// (reads re-execute, command responses replay from the deduplication
// table). The caller keeps the payload: Send does not retain it.
func (r *Replica) send(to transport.Addr, payload []byte) {
	if r.clientEP.Send(to, payload) != nil {
		r.bump(func(st *Stats) { st.ReplyQueueDrops++ })
		return
	}
	r.bump(func(st *Stats) { st.Replied++ })
}

// shouldReply is the output rule: the origin relays the output, as in
// the paper, and the view's sequencer sends the same bytes, which tells
// the client where to send its next write.
func (r *Replica) shouldReply(env *envelope) bool {
	return env.Origin == r.cfg.Self || r.view.Sequencer() == r.cfg.Self
}

// dedupInsert records a response (tagged with its applied index, the
// durability-gate watermark for retries); the table evicts FIFO past
// its limit internally. Because every replica applies the same
// commands in the same order, the table (and its eviction) is
// identical everywhere.
func (r *Replica) dedupInsert(reqID, resp []byte, index uint64) {
	if !r.dedup.put(reqID, resp, index) {
		return
	}
	r.bump(func(st *Stats) { st.DedupEntries = r.dedup.live() })
}
