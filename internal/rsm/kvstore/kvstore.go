// Package kvstore is a small replicated key-value service on the
// generic rsm engine — the proof that the symmetric active/active
// machinery is external to the service it replicates, as the paper
// claims: the identical Replica that runs the PBS batch system
// (internal/joshua) runs this store with zero engine changes. It is
// used by the engine's replication tests and the kvstore example, and
// it is the template for growing further backends onto the engine.
package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/codec"
	"joshua/internal/rsm"
	"joshua/internal/transport"
)

// Op is one key-value operation.
type Op byte

const (
	// OpPut sets a key (replicated).
	OpPut Op = iota + 1
	// OpAppend appends to a key's value (replicated; visibly
	// non-idempotent, which is what the engine's exactly-once tests
	// lean on).
	OpAppend
	// OpDelete removes a key (replicated).
	OpDelete
	// OpGet reads a key from the receiving replica's local state
	// without total ordering (fast, possibly stale).
	OpGet
)

// Wire kinds.
const (
	kindRequest byte = iota + 1
	kindResponse
)

// Request is one client command.
type Request struct {
	ReqID string
	Op    Op
	Key   string
	Value string
}

// Response is the reply relayed by exactly one replica.
type Response struct {
	ReqID string
	OK    bool
	Err   string
	Value string
	Found bool
}

// EncodeRequest serializes a request datagram.
func EncodeRequest(r *Request) []byte {
	e := codec.NewEncoder(32 + len(r.Key) + len(r.Value))
	e.PutByte(kindRequest)
	e.PutString(r.ReqID)
	e.PutByte(byte(r.Op))
	e.PutString(r.Key)
	e.PutString(r.Value)
	return e.Bytes()
}

// DecodeRequest parses a request datagram.
func DecodeRequest(b []byte) (*Request, error) {
	d := codec.NewDecoder(b)
	if kind := d.Byte(); kind != kindRequest {
		return nil, fmt.Errorf("kvstore: not a request (kind %d)", kind)
	}
	r := &Request{ReqID: d.String(), Op: Op(d.Byte()), Key: d.String(), Value: d.String()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodeResponse serializes a response datagram.
func EncodeResponse(r *Response) []byte {
	e := codec.NewEncoder(32 + len(r.Err) + len(r.Value))
	r.encodeTo(e)
	return e.Bytes()
}

func (r *Response) encodeTo(e *codec.Encoder) {
	e.PutByte(kindResponse)
	e.PutString(r.ReqID)
	e.PutBool(r.OK)
	e.PutString(r.Err)
	e.PutString(r.Value)
	e.PutBool(r.Found)
}

// DecodeResponse parses a response datagram.
func DecodeResponse(b []byte) (*Response, error) {
	d := codec.NewDecoder(b)
	if kind := d.Byte(); kind != kindResponse {
		return nil, fmt.Errorf("kvstore: not a response (kind %d)", kind)
	}
	r := &Response{ReqID: d.String(), OK: d.Bool(), Err: d.String(), Value: d.String(), Found: d.Bool()}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// Store is the deterministic state machine: a string map. Mutations
// arrive on the replica's event loop; the RWMutex lets the engine's
// read workers serve Get concurrently with each other (and with Dump
// and Len) while Apply holds the write side.
type Store struct {
	mu   sync.RWMutex
	data map[string]string

	// applyCost simulates per-command execution time (see
	// SetApplyCost); atomic so benchmarks can set it around the
	// engine's concurrent Apply calls.
	applyCost atomic.Int64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{data: make(map[string]string)}
}

// Apply executes one totally ordered mutation and writes its response
// into reply.
func (s *Store) Apply(cmd rsm.Command, reply *codec.Encoder) {
	req, err := DecodeRequest(cmd.Payload)
	if err != nil {
		return
	}
	if d := s.applyCost.Load(); d > 0 {
		// Simulated execution cost burns outside the lock, so
		// commands on distinct keys genuinely overlap when the engine
		// applies them in parallel.
		time.Sleep(time.Duration(d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := &Response{ReqID: req.ReqID, OK: true}
	switch req.Op {
	case OpPut:
		s.data[req.Key] = req.Value
	case OpAppend:
		s.data[req.Key] += req.Value
		resp.Value = s.data[req.Key]
	case OpDelete:
		_, resp.Found = s.data[req.Key]
		delete(s.data, req.Key)
	default:
		resp.OK = false
		resp.Err = fmt.Sprintf("kvstore: op %d is not replicable", req.Op)
	}
	resp.encodeTo(reply)
}

// ConflictKey names the key a mutation touches: mutations on distinct
// keys commute, so the engine may apply them concurrently within one
// totally ordered round. A malformed payload (and the empty key
// itself) declares a global barrier, the conservative default.
func (s *Store) ConflictKey(cmd rsm.Command) string {
	req, err := DecodeRequest(cmd.Payload)
	if err != nil {
		return ""
	}
	return req.Key
}

// SetApplyCost makes every subsequent Apply burn roughly d of
// simulated execution time before touching the map — a stand-in for
// real per-command work (job admission, script staging). The apply
// pipeline tests use it to expose apply-stage parallelism.
func (s *Store) SetApplyCost(d time.Duration) { s.applyCost.Store(int64(d)) }

// Snapshot encodes the map, sorted for determinism.
func (s *Store) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := codec.NewEncoder(64)
	e.PutUint(uint64(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutString(s.data[k])
	}
	return e.Bytes()
}

// Fork captures a shallow copy of the map under the read lock —
// cheap relative to serialization — and defers the sorted encode to
// the returned closure, which the engine's checkpointer runs off the
// event loop. The bytes are identical to what Snapshot would have
// produced at fork time.
func (s *Store) Fork() func() []byte {
	s.mu.RLock()
	data := make(map[string]string, len(s.data))
	for k, v := range s.data {
		data[k] = v
	}
	s.mu.RUnlock()
	return func() []byte {
		keys := make([]string, 0, len(data))
		for k := range data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e := codec.NewEncoder(64)
		e.PutUint(uint64(len(keys)))
		for _, k := range keys {
			e.PutString(k)
			e.PutString(data[k])
		}
		return e.Bytes()
	}
}

// Restore replaces the map from a snapshot.
func (s *Store) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	n := d.Uint()
	data := make(map[string]string, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.String()
		data[k] = d.String()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	s.mu.Lock()
	s.data = data
	s.mu.Unlock()
	return nil
}

// Get reads one key from local state; safe from any goroutine.
func (s *Store) Get(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// Dump copies the full map (tests compare replicas with it).
func (s *Store) Dump() map[string]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Classifier builds the rsm.Classifier for a store: gets are local
// reads served on the engine's read workers, mutations are replicated.
func Classifier(s *Store) rsm.Classifier {
	serveGet := s.serveGet // bound once, not per request
	return func(payload []byte) rsm.Classification {
		req, err := DecodeRequest(payload)
		if err != nil {
			return rsm.Classification{Verdict: rsm.Ignore}
		}
		if req.Op == OpGet {
			return rsm.Classification{Verdict: rsm.Reply, Respond: serveGet}
		}
		return rsm.Classification{Verdict: rsm.Replicate, ReqID: []byte(req.ReqID)}
	}
}

// serveGet answers a get on a read worker. It re-reads the request from
// the payload, so the classifier hands out one bound method instead of
// a closure per request.
func (s *Store) serveGet(payload []byte) *codec.Encoder {
	req, err := DecodeRequest(payload)
	if err != nil {
		return nil
	}
	resp := &Response{ReqID: req.ReqID, OK: true}
	resp.Value, resp.Found = s.Get(req.Key)
	e := codec.GetEncoder(32 + len(resp.ReqID) + len(resp.Value))
	resp.encodeTo(e)
	return e
}

// RejectNotPrimary builds the engine's outside-primary-component
// rejection in this service's wire format.
func RejectNotPrimary(reqID []byte) []byte {
	return EncodeResponse(&Response{ReqID: string(reqID), Err: ErrNotPrimary.Error()})
}

// Errors.
var (
	ErrNotPrimary = errors.New("kvstore: replica not in primary component")
	ErrNoHeads    = errors.New("kvstore: no replicas configured")
	ErrUnreached  = errors.New("kvstore: no replica answered")
	ErrClosed     = errors.New("kvstore: client closed")
)

// Client talks to a replica group with head failover and retry — the
// same exactly-once contract as the batch-system control commands:
// the request ID makes any duplicate execution collapse in the
// replicas' deduplication table.
type Client struct {
	ep      transport.Endpoint
	heads   []transport.Addr
	timeout time.Duration
	rounds  int

	mu      sync.Mutex
	seq     uint64
	waiters map[string]chan *Response
	closed  bool

	done chan struct{}
	once sync.Once
}

// NewClient creates a client over the given endpoint (which it owns).
func NewClient(ep transport.Endpoint, heads []transport.Addr, timeout time.Duration) (*Client, error) {
	if len(heads) == 0 {
		return nil, ErrNoHeads
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	c := &Client{
		ep:      ep,
		heads:   heads,
		timeout: timeout,
		rounds:  3,
		waiters: make(map[string]chan *Response),
		done:    make(chan struct{}),
	}
	go c.recvLoop()
	return c, nil
}

// Close shuts the client down; in-flight calls fail promptly.
func (c *Client) Close() {
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		close(c.done)
		c.ep.Close()
	})
}

func (c *Client) recvLoop() {
	for dg := range c.ep.Recv() {
		resp, err := DecodeResponse(dg.Payload)
		if err != nil {
			continue
		}
		c.mu.Lock()
		if ch, ok := c.waiters[resp.ReqID]; ok {
			select {
			case ch <- resp:
			default: // duplicate reply; the first one won
			}
		}
		c.mu.Unlock()
	}
}

func (c *Client) call(op Op, key, value string) (*Response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.seq++
	reqID := fmt.Sprintf("%s#%d", c.ep.Addr(), c.seq)
	ch := make(chan *Response, 1)
	c.waiters[reqID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, reqID)
		c.mu.Unlock()
	}()

	payload := EncodeRequest(&Request{ReqID: reqID, Op: op, Key: key, Value: value})
	attempts := c.rounds * len(c.heads)
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	for i := 0; i < attempts; i++ {
		if err := c.ep.Send(c.heads[i%len(c.heads)], payload); err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil, ErrClosed
			}
			continue // head down: advance, like a timeout would
		}
		if !timer.Stop() {
			select {
			case <-timer.C: // fired unread (pre-1.23 timer semantics)
			default:
			}
		}
		timer.Reset(c.timeout)
		select {
		case resp := <-ch:
			if resp.Err == ErrNotPrimary.Error() {
				continue
			}
			return resp, nil
		case <-timer.C:
			// Replica silent: try the next one.
		case <-c.done:
			return nil, ErrClosed
		}
	}
	return nil, fmt.Errorf("%w after %d attempts", ErrUnreached, attempts)
}

func respErr(resp *Response) error {
	if resp.OK {
		return nil
	}
	return errors.New(resp.Err)
}

// Put sets key to value on every replica.
func (c *Client) Put(key, value string) error {
	resp, err := c.call(OpPut, key, value)
	if err != nil {
		return err
	}
	return respErr(resp)
}

// Append appends value to the key and returns the new value.
func (c *Client) Append(key, value string) (string, error) {
	resp, err := c.call(OpAppend, key, value)
	if err != nil {
		return "", err
	}
	return resp.Value, respErr(resp)
}

// Delete removes a key; found reports whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	resp, err := c.call(OpDelete, key, "")
	if err != nil {
		return false, err
	}
	return resp.Found, respErr(resp)
}

// Get reads a key from one replica's local state.
func (c *Client) Get(key string) (string, bool, error) {
	resp, err := c.call(OpGet, key, "")
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, respErr(resp)
}
