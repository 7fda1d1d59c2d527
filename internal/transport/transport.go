// Package transport defines the datagram abstraction that the group
// communication system and the PBS substrate are built on.
//
// Two implementations exist: internal/simnet provides an in-memory
// network with a configurable latency/loss/partition model (the
// substrate for every reproducible experiment in this repository), and
// internal/transport/tcpnet carries the same datagrams over TCP for
// real multi-process deployments of the joshuad daemon.
//
// Semantics are deliberately weak — unreliable, unordered across
// peers, FIFO per (sender, receiver) pair — because the group
// communication layer supplies reliability and total order itself,
// exactly as Transis did over UDP in the original JOSHUA prototype.
//
// Beside datagrams, an endpoint may receive a connection-loss hint
// (Message.Lost): the transport saw its peer's side of the connection
// go away, as a crashed process's kernel resets its sockets. A hint is
// best-effort in both directions — a peer can die without one (a cut
// cable raises none) and a live peer can raise one (it redials) — so
// it may hasten a failure detector's suspicion but never decide it.
package transport

import "errors"

// Addr names an endpoint. The convention is "host/service", e.g.
// "head1/joshua" or "compute0/mom". Everything before the first '/'
// identifies the physical node, which the simulated network uses to
// distinguish intra-node IPC from LAN hops.
type Addr string

// Host returns the physical-node component of the address (the part
// before the first '/'), or the whole address if it has no service
// part.
func (a Addr) Host() string {
	for i := 0; i < len(a); i++ {
		if a[i] == '/' {
			return string(a[:i])
		}
	}
	return string(a)
}

// Message is one datagram delivered to an endpoint.
type Message struct {
	From Addr
	To   Addr
	// Payload is a fresh buffer owned by the receiver: no other
	// delivered Message shares its memory, and the sender's later
	// writes to the buffer it passed to Send never reach it. Receivers
	// may therefore keep slices of it without copying, and two keep
	// strings over it (codec.Decoder.ViewStrings): the joshua client's
	// receive loop (a reply's ReqID, error and jobs) and the pbs mom's
	// (a started job). A receiver must not write into a Payload it has
	// decoded that way.
	Payload []byte
	// Lost reports that the transport lost its connection to From;
	// Payload is nil. It is a hint, not a verdict: From may be alive
	// and heard from again. A receiver that only decodes payloads
	// drops it like any datagram it cannot decode.
	Lost bool
}

// Endpoint is one attachment point on a network.
//
// Send is best-effort and non-blocking: the datagram may be dropped by
// the network (loss, partition, crashed receiver, full receive queue)
// without error. A non-nil error means the endpoint is closed
// (ErrClosed) or the implementation detected the drop locally
// (unknown or unreachable peer); best-effort callers may ignore the
// latter, failover callers use it to advance to the next peer without
// waiting out a timeout.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits a datagram. The payload is not aliased after
	// Send returns.
	Send(to Addr, payload []byte) error
	// Recv returns the channel on which incoming datagrams arrive.
	// The channel is closed when the endpoint is closed.
	Recv() <-chan Message
	// Close detaches the endpoint. Safe to call more than once.
	Close() error
}

// Network creates endpoints. Implementations must allow concurrent
// use.
type Network interface {
	// Endpoint attaches a new endpoint at addr. It is an error to
	// attach two live endpoints at the same address.
	Endpoint(addr Addr) (Endpoint, error)
}

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrAddrInUse is returned when attaching a duplicate address.
var ErrAddrInUse = errors.New("transport: address already in use")
