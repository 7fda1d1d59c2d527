package joshua

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"joshua/internal/codec"
	"joshua/internal/pbs"
)

// Op identifies one PBS service-interface operation carried by the
// JOSHUA command protocol. The same operation encoding is used on the
// client RPC leg (jsub/jdel/jstat -> joshua server) and inside the
// replicated command stream (joshua server -> group). WAL records and
// replicated dedup replies carry these bytes, so a retired operation
// keeps its value reserved.
type Op byte

// Operations. OpSubmit/OpDelete/OpStat mirror the paper's
// jsub/jdel/jstat control commands; OpHold/OpRelease/OpSignal complete
// the PBS interface (holds are possible here because state transfer is
// snapshot-based, see DESIGN.md); OpJDone is the completion a job's
// first node hands the heads, the paper's jdone.
const (
	OpSubmit Op = iota + 1
	OpDelete
	OpStat
	OpStatAll
	OpHold
	OpRelease
	OpSignal
	_ // 8: retired jmutex launch lock; the placement is the launch grant
	OpJDone
	_ // 10: retired local-state read; unordered OpStat/OpStatAll serve it
	_ // 11: retired head-originated completion; OpJDone carries them
	// Node management (the pbsnodes interface): offline/online are
	// replicated state changes; the listing is a local read.
	OpNodeOffline
	OpNodeOnline
	OpNodesLocal
	// OpInfoLocal is a non-replicated operator query: one head's view,
	// protocol counters, and queue gauges (the jadmin command).
	OpInfoLocal
)

// String names the operation after its PBS/JOSHUA command.
func (o Op) String() string {
	switch o {
	case OpSubmit:
		return "jsub"
	case OpDelete:
		return "jdel"
	case OpStat, OpStatAll:
		return "jstat"
	case OpHold:
		return "jhold"
	case OpRelease:
		return "jrls"
	case OpSignal:
		return "jsig"
	case OpJDone:
		return "jdone"
	case OpNodeOffline:
		return "jnodes -o"
	case OpNodeOnline:
		return "jnodes -c"
	case OpNodesLocal:
		return "jnodes"
	case OpInfoLocal:
		return "jadmin"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// mutating reports whether the operation changes service state and
// must therefore flow through the total order. Query commands do not
// change state and need no ordering (the paper keeps jstat outside the
// total order), so OpStat/OpStatAll default to the local read path;
// rpcRequest.Ordered forces them through the total order anyway (the
// linearizable-read ablation).
func (o Op) mutating() bool {
	switch o {
	case OpStat, OpStatAll, OpNodesLocal, OpInfoLocal:
		return false
	default:
		return true
	}
}

// cmdArgs is the argument record shared by client requests and
// replicated commands.
type cmdArgs struct {
	// OpSubmit.
	Name      string
	Owner     string
	Script    string
	NodeCount int
	WallTime  time.Duration
	Hold      bool
	// Count lets one OpSubmit carry several identical jobs (batch
	// submission); 0 and 1 both mean a single job.
	Count int
	// Per-node resource request and user priority (OpSubmit).
	NCPUs    int
	Mem      int64
	Priority int
	// Job-array submission (jsub -t): when ArraySet, one OpSubmit
	// expands into sub-jobs ArrayStart..ArrayEnd on the scheduler.
	ArraySet   bool
	ArrayStart int
	ArrayEnd   int
	// Job-addressed operations.
	JobID pbs.JobID
	// OpSignal.
	Signal string
	// OpJDone.
	ExitCode int
	Output   string
	// OpNodeOffline / OpNodeOnline, and OpJDone's reporting node.
	Node string
}

func putArgs(e *codec.Encoder, a *cmdArgs) {
	e.PutString(a.Name)
	e.PutString(a.Owner)
	e.PutString(a.Script)
	e.PutUint(uint64(a.NodeCount))
	e.PutDuration(a.WallTime)
	e.PutBool(a.Hold)
	e.PutUint(uint64(a.Count))
	e.PutString(string(a.JobID))
	e.PutString(a.Signal)
	e.PutString("") // retired jmutex attempt ID; old records still decode
	e.PutInt(int64(a.ExitCode))
	e.PutString(a.Output)
	e.PutString(a.Node)
	e.PutInt(int64(a.NCPUs))
	e.PutInt(a.Mem)
	e.PutInt(int64(a.Priority))
	e.PutBool(a.ArraySet)
	e.PutInt(int64(a.ArrayStart))
	e.PutInt(int64(a.ArrayEnd))
}

func getArgs(d *codec.Decoder) cmdArgs {
	a := cmdArgs{
		Name:      d.String(),
		Owner:     d.String(),
		Script:    d.String(),
		NodeCount: int(d.Uint()),
		WallTime:  d.Duration(),
		Hold:      d.Bool(),
		Count:     int(d.Uint()),
		JobID:     pbs.JobID(d.String()),
		Signal:    d.String(),
	}
	d.Bytes() // retired jmutex attempt ID
	a.ExitCode = int(d.Int())
	a.Output = d.String()
	a.Node = d.String()
	a.NCPUs = int(d.Int())
	a.Mem = d.Int()
	a.Priority = int(d.Int())
	a.ArraySet = d.Bool()
	a.ArrayStart = int(d.Int())
	a.ArrayEnd = int(d.Int())
	return a
}

// Client RPC message kinds.
const (
	rpcKindRequest byte = iota + 1
	rpcKindResponse
)

// rpcRequest is one client command sent to a joshua server.
type rpcRequest struct {
	ReqID string
	Op    Op
	// Ordered forces a query operation (OpStat, OpStatAll) through
	// the total order — a linearizable read, serialized with every
	// mutation — instead of the default local read path. It sits in
	// the header, not cmdArgs, so the server's receive-path peek can
	// classify without decoding the argument record.
	Ordered bool
	Args    cmdArgs
}

func (r *rpcRequest) encode() []byte {
	e := codec.NewEncoder(128 + len(r.Args.Script))
	r.encodeInto(e)
	return e.Bytes()
}

// encodeTo encodes into a pooled encoder. Callers release it once the
// payload has left through the transport (Send does not retain the
// buffer); payloads that outlive the call — replicated envelopes, the
// dedup table — must use encode instead.
func (r *rpcRequest) encodeTo() *codec.Encoder {
	e := codec.GetEncoder(128 + len(r.Args.Script))
	r.encodeInto(e)
	return e
}

func (r *rpcRequest) encodeInto(e *codec.Encoder) {
	e.PutByte(rpcKindRequest)
	e.PutString(r.ReqID)
	e.PutByte(byte(r.Op))
	e.PutBool(r.Ordered)
	putArgs(e, &r.Args)
}

// rpcResponse is the reply relayed back to the client by the head it
// sent to and, when that head is not the sequencer, by the sequencer
// too (byte-identical copies; the client keeps the first).
type rpcResponse struct {
	ReqID  string
	OK     bool
	ErrMsg string
	Jobs   []pbs.Job
	Nodes  []pbs.NodeStatus
	Info   map[string]string // OpInfoLocal
	// Epoch stamps responses with the answering head's batch-state
	// version (pbs.Server.Version): local reads carry the version the
	// snapshot was served at, replicated (ordered) commands the
	// version after the command applied. A sharded client treats the
	// highest epoch it has seen per shard as a floor — an acked
	// mutation therefore guarantees read-your-writes, and a listing
	// from a head whose epoch regressed below the floor is re-fetched
	// from another head (per-shard prefix-consistent scatter-gather).
	Epoch uint64
	// one backs Jobs for a one-job reply, so decoding one allocates no
	// job slice.
	one [1]pbs.Job
}

// respPool recycles the client's decoded responses (see jobReply).
var respPool = sync.Pool{New: func() any { return new(rpcResponse) }}

// releaseResponse clears resp and returns it to the pool. Nothing of
// it may be used afterwards: Jobs may be its inline slot.
func releaseResponse(resp *rpcResponse) {
	*resp = rpcResponse{}
	respPool.Put(resp)
}

func (r *rpcResponse) encode() []byte {
	e := codec.NewEncoder(128)
	e.PutByte(rpcKindResponse)
	e.PutString(r.ReqID)
	r.encodeBody(e)
	return e.Bytes()
}

// encodeBody appends everything after the ReqID field. The heads'
// replies to PBS operations write the same bytes without building an
// rpcResponse (putResponseHead, a job list, putResponseTail).
func (r *rpcResponse) encodeBody(e *codec.Encoder) {
	e.PutBool(r.OK)
	e.PutString(r.ErrMsg)
	e.PutUint(uint64(len(r.Jobs)))
	for _, j := range r.Jobs {
		pbs.EncodeJob(e, j)
	}
	e.PutBool(false) // retired jmutex grant; old replies still decode
	e.PutUint(uint64(len(r.Nodes)))
	for _, n := range r.Nodes {
		pbs.EncodeNodeStatus(e, n)
	}
	e.PutUint(uint64(len(r.Info)))
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.PutString(k)
		e.PutString(r.Info[k])
	}
	e.PutUint(r.Epoch)
}

// putResponseHead writes what rpcResponse.encode writes before the
// job list, for a response that is OK exactly when errMsg is empty.
// The reqID bytes come straight from the request decoder (PutBytes
// writes the same length-prefixed wire form as the PutString the
// client used), so framing a reply touches the heap not at all.
func putResponseHead(e *codec.Encoder, reqID []byte, errMsg string) {
	e.PutByte(rpcKindResponse)
	e.PutBytes(reqID)
	e.PutBool(errMsg == "")
	e.PutString(errMsg)
}

// putResponseTail writes what rpcResponse.encode writes after the job
// list of a response with no nodes or info.
func putResponseTail(e *codec.Encoder, epoch uint64) {
	e.PutBool(false) // retired jmutex grant
	e.PutUint(0)     // Nodes
	e.PutUint(0)     // Info
	e.PutUint(epoch)
}

// putReply writes the bytes of rpcResponse{ReqID, OK: err == nil,
// ErrMsg, Jobs: jobs, Epoch: epoch}.encode().
func putReply(e *codec.Encoder, reqID []byte, err error, epoch uint64, jobs ...pbs.Job) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	putResponseHead(e, reqID, msg)
	e.PutUint(uint64(len(jobs)))
	for i := range jobs {
		pbs.EncodeJob(e, jobs[i])
	}
	putResponseTail(e, epoch)
}

// putJobReply writes the reply of a one-job operation: j, or err.
func putJobReply(e *codec.Encoder, reqID []byte, j pbs.Job, err error, epoch uint64) {
	if err != nil {
		putReply(e, reqID, err, epoch)
		return
	}
	putReply(e, reqID, nil, epoch, j)
}

// putListing frames a pre-encoded job list (pbs.Server.Listing) behind
// a per-request ReqID: the bytes of rpcResponse{ReqID, OK: true, Jobs,
// Epoch: epoch}.encode().
func putListing(e *codec.Encoder, reqID, jobs []byte, epoch uint64) {
	putResponseHead(e, reqID, "")
	e.PutRaw(jobs)
	putResponseTail(e, epoch)
}

// putResponse writes a response built as a value, for the replies that
// carry nodes or info.
func putResponse(e *codec.Encoder, reqID []byte, r *rpcResponse) {
	e.PutByte(rpcKindResponse)
	e.PutBytes(reqID)
	r.encodeBody(e)
}

// decodeRPC decodes either RPC message; exactly one of the returns is
// non-nil on success. A response decodes as the client's receive loop
// decodes it (decodeResponse, strings over b); heads read requests
// through a view, which the tests hold to decodeRPC.
func decodeRPC(b []byte) (*rpcRequest, *rpcResponse, error) {
	d := codec.NewDecoder(b)
	switch kind := d.Byte(); kind {
	case rpcKindRequest:
		req := &rpcRequest{
			ReqID:   d.String(),
			Op:      Op(d.Byte()),
			Ordered: d.Bool(),
		}
		req.Args = getArgs(d)
		if err := d.Finish(); err != nil {
			return nil, nil, err
		}
		return req, nil, nil
	case rpcKindResponse:
		resp := new(rpcResponse)
		if err := decodeResponse(b, resp); err != nil {
			return nil, nil, err
		}
		return nil, resp, nil
	default:
		return nil, nil, fmt.Errorf("joshua: unknown rpc kind %d", kind)
	}
}

// decodeResponse decodes a response datagram into resp, which must be
// empty. The ReqID, the error and every job's strings are views into
// b, and the jobs land in one slice, resp's own slot for a one-job
// reply: a listing of n jobs costs two allocations, the response and
// the slice, and a one-job reply into a recycled resp none, or one if
// the job has nodes. b must be the caller's to keep and never written
// again, as a received transport.Message's Payload is; the strings
// keep the whole datagram alive.
func decodeResponse(b []byte, resp *rpcResponse) error {
	d := codec.NewDecoder(b)
	if kind := d.Byte(); kind != rpcKindResponse {
		return fmt.Errorf("joshua: rpc kind %d is not a response", kind)
	}
	d.ViewStrings()
	resp.ReqID = d.Text()
	resp.OK = d.Bool()
	resp.ErrMsg = d.Text()
	n := d.Uint()
	if d.Err() == nil && n <= uint64(d.Remaining())+1 {
		if n == 1 {
			resp.Jobs = resp.one[:]
		} else {
			resp.Jobs = make([]pbs.Job, n)
		}
		for i := range resp.Jobs {
			pbs.DecodeJobInto(d, &resp.Jobs[i])
		}
	}
	d.Bool() // retired jmutex grant
	nn := d.Uint()
	for i := uint64(0); i < nn && d.Err() == nil; i++ {
		resp.Nodes = append(resp.Nodes, pbs.DecodeNodeStatus(d))
	}
	in := d.Uint()
	if in > 0 && d.Err() == nil {
		resp.Info = make(map[string]string, in)
		for i := uint64(0); i < in && d.Err() == nil; i++ {
			k := d.String()
			resp.Info[k] = d.String()
		}
	}
	resp.Epoch = d.Uint()
	return d.Finish()
}

// view is a request read in place: the header and every field of the
// argument record, with the strings left as views into the payload.
// parse accepts exactly the payloads decodeRPC accepts (the same
// fields, then the same Finish check), so a head classifies, routes
// and applies a command without building an rpcRequest or a string
// per argument. The engine recycles the payload after the apply
// (DESIGN §6.8), so what pbs or the lock table keeps is copied out:
// submitRequest's one string, and a conversion at each call that
// needs a string.
type view struct {
	reqID   []byte
	op      Op
	ordered bool
	// sub holds the qsub arguments but Name, Owner and Script, which
	// strs spans, length prefixes included (see submitRequest).
	sub      pbs.SubmitRequest
	strs     []byte
	count    int
	jobID    []byte
	signal   []byte
	exitCode int
	output   []byte
	node     []byte
}

// header reads the request header (kind, ReqID, operation, Ordered)
// into v. It reports false for anything but a request.
func (v *view) header(d *codec.Decoder) bool {
	if d.Byte() != rpcKindRequest {
		return false
	}
	v.reqID = d.Bytes()
	v.op = Op(d.Byte())
	v.ordered = d.Bool()
	return d.Err() == nil
}

// parse reads a whole request into v, in getArgs order. It reports
// false exactly when decodeRPC would not return a request.
func (v *view) parse(payload []byte) bool {
	d := codec.NewDecoder(payload)
	if !v.header(d) {
		return false
	}
	at := len(payload) - d.Remaining()
	d.Bytes() // Name
	d.Bytes() // Owner
	d.Bytes() // Script
	v.strs = payload[at : len(payload)-d.Remaining()]
	v.sub.NodeCount = int(d.Uint())
	v.sub.WallTime = d.Duration()
	v.sub.Hold = d.Bool()
	v.count = int(d.Uint())
	v.jobID = d.Bytes()
	v.signal = d.Bytes()
	d.Bytes() // retired jmutex attempt ID
	v.exitCode = int(d.Int())
	v.output = d.Bytes()
	v.node = d.Bytes()
	v.sub.Resources.NCPUs = int(d.Int())
	v.sub.Resources.Mem = d.Int()
	v.sub.Priority = int(d.Int())
	v.sub.Array.Set = d.Bool()
	v.sub.Array.Start = int(d.Int())
	v.sub.Array.End = int(d.Int())
	return d.Finish() == nil
}

// submitRequest returns the qsub arguments. Name, Owner and Script are
// views into strs, and so into the command's payload, and decoding
// allocates nothing: the pbs server copies what it keeps of a request
// into the job's own string.
func (v *view) submitRequest() pbs.SubmitRequest {
	d := codec.NewDecoder(v.strs)
	d.ViewStrings()
	req := v.sub
	req.Name = d.Text()
	req.Owner = d.Text()
	req.Script = d.Text()
	return req
}
