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
		// Simulated execution cost burns outside the lock, so local
		// reads are not held up behind it.
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

// SetApplyCost makes every subsequent Apply burn roughly d of
// simulated execution time before touching the map — a stand-in for
// real per-command work (job admission, script staging). The apply
// pipeline tests use it to keep a round's apply stage running while
// its fsync is in flight.
func (s *Store) SetApplyCost(d time.Duration) { s.applyCost.Store(int64(d)) }

// Snapshot encodes the map, sorted for determinism.
func (s *Store) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return encode(s.data)
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
	return func() []byte { return encode(data) }
}

// encode renders a map as Snapshot's bytes: the key count, then every
// key and value in sorted key order.
func encode(data map[string]string) []byte {
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

// Errors. The client's are the ones every rsm client returns.
var (
	ErrNotPrimary = errors.New("kvstore: replica not in primary component")
	ErrNoHeads    = rsm.ErrNoHeads
	ErrUnreached  = rsm.ErrUnreached
	ErrClosed     = rsm.ErrClosed
)

// Client talks to a replica group through the rsm client engine, with
// the same exactly-once contract as the batch-system control commands:
// the request ID makes any duplicate execution collapse in the
// replicas' deduplication table. Gets are reads and rotate across the
// replicas; Put, Append and Delete are mutations, which follow the
// sequencer and are hedged to a second replica when the first is slow.
type Client struct {
	rc *rsm.Client[*Response]
}

// clientCodec is what the rsm client engine needs of a replica's
// replies. The prober's health check is a local Get.
var clientCodec = rsm.ClientCodec[*Response]{
	Decode: func(b []byte) (*Response, string, error) {
		r, err := DecodeResponse(b)
		if err != nil {
			return nil, "", err
		}
		return r, r.ReqID, nil
	},
	NotPrimary: func(r *Response) bool { return r.Err == ErrNotPrimary.Error() },
	Epoch:      func(*Response) uint64 { return 0 },
	Release:    func(*Response) {},
	Probe:      func(reqID string) []byte { return EncodeRequest(&Request{ReqID: reqID, Op: OpGet}) },
}

// NewClient creates a client over the given endpoint (which it owns).
// timeout is the engine's AttemptTimeout; every replica is tried three
// times before a call gives up.
func NewClient(ep transport.Endpoint, heads []transport.Addr, timeout time.Duration) (*Client, error) {
	rc, err := rsm.NewClient(rsm.ClientConfig{
		Endpoint:       ep,
		Groups:         [][]transport.Addr{heads},
		AttemptTimeout: timeout,
	}, clientCodec)
	if err != nil {
		return nil, err
	}
	return &Client{rc}, nil
}

// Close shuts the client down; in-flight calls fail promptly.
func (c *Client) Close() { c.rc.Close() }

// call runs one operation. Its reply comes back even beside an error:
// empty if no replica answered, as sent if the replica refused.
func (c *Client) call(op Op, key, value string) (*Response, error) {
	id := c.rc.NextID()
	resp, err := c.rc.Call(0, id, op != OpGet, EncodeRequest(&Request{ReqID: id, Op: op, Key: key, Value: value}))
	switch {
	case err != nil:
		return &Response{}, err
	case !resp.OK:
		return resp, errors.New(resp.Err)
	}
	return resp, nil
}

// Put sets key to value on every replica.
func (c *Client) Put(key, value string) error {
	_, err := c.call(OpPut, key, value)
	return err
}

// Append appends value to the key and returns the new value.
func (c *Client) Append(key, value string) (string, error) {
	resp, err := c.call(OpAppend, key, value)
	return resp.Value, err
}

// Delete removes a key; found reports whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	resp, err := c.call(OpDelete, key, "")
	return resp.Found, err
}

// Get reads a key from one replica's local state.
func (c *Client) Get(key string) (string, bool, error) {
	resp, err := c.call(OpGet, key, "")
	return resp.Value, resp.Found, err
}
