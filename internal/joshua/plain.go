package joshua

import (
	"fmt"
	"sync"

	"joshua/internal/codec"
	"joshua/internal/pbs"
	"joshua/internal/transport"
)

// PlainServer is the unreplicated baseline of the paper's evaluation:
// a single head node exposing the same command protocol as a JOSHUA
// server group, applied directly to the local batch service with no
// group communication. The same Client works against it, so the
// latency and throughput comparisons of Figures 10 and 11 measure
// exactly the replication overhead.
//
// Requests are processed sequentially, as the single-threaded TORQUE
// server of the paper's testbed did.
type PlainServer struct {
	ep     transport.Endpoint
	daemon *pbs.Daemon
	done   chan struct{}
	once   sync.Once
}

// StartPlainServer runs a baseline head node on the given endpoint.
func StartPlainServer(ep transport.Endpoint, daemon *pbs.Daemon) *PlainServer {
	s := &PlainServer{ep: ep, daemon: daemon, done: make(chan struct{})}
	go s.run()
	return s
}

// Close stops the server.
func (s *PlainServer) Close() {
	s.once.Do(func() {
		close(s.done)
		s.ep.Close()
		s.daemon.Close()
	})
}

// Daemon exposes the underlying batch service.
func (s *PlainServer) Daemon() *pbs.Daemon { return s.daemon }

func (s *PlainServer) run() {
	for {
		select {
		case <-s.done:
			return
		case dg, ok := <-s.ep.Recv():
			if !ok {
				return
			}
			var v view
			if !v.parse(dg.Payload) {
				continue
			}
			e := codec.GetEncoder(256)
			switch v.op {
			case OpInfoLocal:
				waiting, running, completed := s.daemon.Server().QueueLengths()
				putResponse(e, v.reqID, &rpcResponse{OK: true, Info: map[string]string{
					"mode":           "plain",
					"jobs_waiting":   fmt.Sprintf("%d", waiting),
					"jobs_running":   fmt.Sprintf("%d", running),
					"jobs_completed": fmt.Sprintf("%d", completed),
				}})
			default:
				execute(e, s.daemon, &v)
			}
			_ = s.ep.Send(dg.From, e.Bytes())
			e.Release()
		}
	}
}
