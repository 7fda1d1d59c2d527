package gcs

import "sync"

// eventQueue is an unbounded FIFO feeding the public Events channel.
// The protocol loop must never block on a slow consumer — blocking
// would stall heartbeats and get this member falsely suspected — so
// pushes go to a ring buffer, which grows only while the consumer
// falls behind, and a dispatcher goroutine drains it into the channel.
type eventQueue struct {
	ch chan Event

	mu     sync.Mutex
	cond   *sync.Cond
	items  fifo[Event]
	closed bool
}

func newEventQueue() *eventQueue {
	q := &eventQueue{ch: make(chan Event, 64)}
	q.cond = sync.NewCond(&q.mu)
	go q.dispatch()
	return q
}

// push appends an event. Safe only from the loop goroutine (and from
// close, which synchronizes internally).
func (q *eventQueue) push(e Event) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items.push(e)
	q.mu.Unlock()
	q.cond.Signal()
}

// close marks the end of the stream. Queued events are still
// delivered before the channel closes.
func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Signal()
}

func (q *eventQueue) dispatch() {
	for {
		q.mu.Lock()
		for q.items.len() == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.items.len() == 0 && q.closed {
			q.mu.Unlock()
			close(q.ch)
			return
		}
		e := q.items.pop()
		q.mu.Unlock()
		q.ch <- e
	}
}
