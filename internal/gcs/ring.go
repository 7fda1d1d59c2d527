package gcs

// seqRing is the buffer of sequenced messages above the stability
// watermark, indexed by sequence number. It holds sequences in
// (lo, lo+len(buf)]; slot s&(len(buf)-1) holds sequence s exactly when
// its Seq field equals s, so a zeroed slot is empty. lo is the
// watermark: gc advances it, and put doubles the buffer when a
// sequence lands past its end. The zero value is an empty ring at
// watermark 0. What bounds the ring is what bounds the unstable suffix
// of the stream: every sender's window of undelivered broadcasts plus
// one stability round, and, at a member lagging behind a gap, whatever
// the others sequence until it catches up. maxRingSpan caps that last
// case (and a corrupt sequence number): acceptData drops a received
// sequence that far ahead, and the member NACKs it once the gap before
// it has closed.
type seqRing struct {
	buf []dataMsg // len is zero or a power of two
	lo  uint64
	n   int    // messages held
	hi  uint64 // highest sequence held; meaningless when n == 0
}

// initialRing is the ring's first size, the default send window;
// maxRingSpan is the most a member's ring grows to.
const (
	initialRing = 256
	maxRingSpan = 1 << 20
)

// reset empties the ring for a new view (sequences restart at 1),
// keeping its buffer.
func (r *seqRing) reset() {
	clear(r.buf)
	r.lo, r.n, r.hi = 0, 0, 0
}

func (r *seqRing) len() int { return r.n }

// get returns the message with sequence s, or nil if it is not held.
func (r *seqRing) get(s uint64) *dataMsg {
	if s <= r.lo || s-r.lo > uint64(len(r.buf)) {
		return nil
	}
	d := &r.buf[s&uint64(len(r.buf)-1)]
	if d.Seq != s {
		return nil
	}
	return d
}

// put stores a copy of d unless its sequence is already held, and
// reports whether it did. d.Seq must lie above the watermark.
func (r *seqRing) put(d *dataMsg) bool {
	if r.get(d.Seq) != nil {
		return false
	}
	for d.Seq-r.lo > uint64(len(r.buf)) {
		r.grow()
	}
	r.buf[d.Seq&uint64(len(r.buf)-1)] = *d
	if r.n == 0 || d.Seq > r.hi {
		r.hi = d.Seq
	}
	r.n++
	return true
}

// grow doubles the buffer (or makes the first), re-placing every held
// message.
func (r *seqRing) grow() {
	old := r.buf
	r.buf = make([]dataMsg, max(initialRing, 2*len(old)))
	mask := uint64(len(r.buf) - 1)
	for i := range old {
		if s := old[i].Seq; s != 0 {
			r.buf[s&mask] = old[i]
		}
	}
}

// gc drops every held sequence up to the new watermark w.
func (r *seqRing) gc(w uint64) {
	for s := r.lo + 1; s <= w && s-r.lo <= uint64(len(r.buf)); s++ {
		if d := &r.buf[s&uint64(len(r.buf)-1)]; d.Seq == s {
			*d = dataMsg{}
			r.n--
		}
	}
	r.lo = max(r.lo, w)
}

// appendTo appends every held message to dst in sequence order.
func (r *seqRing) appendTo(dst []dataMsg) []dataMsg {
	if r.n == 0 {
		return dst
	}
	for s := r.lo + 1; s <= r.hi; s++ {
		if d := r.get(s); d != nil {
			dst = append(dst, *d)
		}
	}
	return dst
}

// find returns the held message a sender numbered senderSeq, or nil.
// It scans the ring, so it serves only the duplicate-request path.
func (r *seqRing) find(sender MemberID, senderSeq uint64) *dataMsg {
	if r.n == 0 {
		return nil
	}
	for s := r.lo + 1; s <= r.hi; s++ {
		if d := r.get(s); d != nil && d.SenderSeq == senderSeq && d.Sender == sender {
			return d
		}
	}
	return nil
}

// fifo is a first-in first-out queue on a ring buffer: popping from the
// front keeps the buffer's capacity, so a queue that drains as fast as
// it fills stops allocating.
type fifo[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

// at returns the i-th queued element, counting from the front.
func (q *fifo[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	*q.at(q.n) = v
	q.n++
}

// pop removes and returns the front element. The queue must not be
// empty.
func (q *fifo[T]) pop() T {
	p := q.at(0)
	v := *p
	var zero T
	*p = zero // drop the reference for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
