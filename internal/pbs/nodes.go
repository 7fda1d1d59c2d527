package pbs

import (
	"fmt"
	"strings"

	"joshua/internal/codec"
)

// Node management (the pbsnodes interface): operators mark compute
// nodes offline for maintenance and bring them back. Offline nodes are
// excluded from new allocations; jobs already running there keep
// running, as TORQUE's `pbsnodes -o` behaves. In a JOSHUA deployment
// the offline/online commands are replicated through the total order
// like any other state change, so every head agrees on the node pool.

// NodeStatus describes one compute node.
type NodeStatus struct {
	Name    string
	Offline bool
	// Jobs currently allocated to the node, in start order.
	Jobs []JobID
	// CPUs/CPUsUsed report the node's CPU capacity and committed
	// share; Mem/MemUsed likewise for memory (Mem is zero when the
	// deployment does not track memory).
	CPUs     int
	CPUsUsed int
	Mem      int64
	MemUsed  int64
}

// SetNodeOffline marks a node offline (true) or online (false).
// Unknown nodes are an error. Bringing a node online re-runs the
// scheduler, since queued jobs may now fit.
func (s *Server) SetNodeOffline(name string, offline bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.dirty()
	s.tick()
	if !s.knownNode(name) {
		return &Error{Op: "pbsnodes", Msg: fmt.Sprintf("unknown node %q", name)}
	}
	if s.offline == nil {
		s.offline = make(map[string]bool)
	}
	if offline {
		s.offline[name] = true
	} else {
		delete(s.offline, name)
		s.schedule()
	}
	return nil
}

// NodesStatus lists every configured node with its state and current
// allocation, in configuration order, built from the live allocation
// table under the read lock.
func (s *Server) NodesStatus() []NodeStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]NodeStatus, 0, len(s.cfg.Nodes))
	for _, n := range s.cfg.Nodes {
		st := NodeStatus{
			Name:    n,
			Offline: s.offline[n],
			CPUs:    s.cfg.NodeCPUs,
			Mem:     s.cfg.NodeMem,
		}
		if a := s.alloc[n]; a != nil {
			st.Jobs = append(st.Jobs, a.jobs...)
			st.CPUsUsed = a.cpus
			st.MemUsed = a.mem
		}
		out = append(out, st)
	}
	return out
}

func (s *Server) knownNode(name string) bool {
	for _, n := range s.cfg.Nodes {
		if n == name {
			return true
		}
	}
	return false
}

// onlineNodes returns the nodes eligible for new allocations, in
// configuration order. Must be called with s.mu held.
func (s *Server) onlineNodes() []string {
	if len(s.offline) == 0 {
		return s.cfg.Nodes
	}
	out := make([]string, 0, len(s.cfg.Nodes))
	for _, n := range s.cfg.Nodes {
		if !s.offline[n] {
			out = append(out, n)
		}
	}
	return out
}

// NodesText renders pbsnodes-style output with per-node utilization:
//
//	compute0    free     cpu=0/2 jobs=
//	compute1    offline  cpu=1/2 jobs=3.cluster
//
// A mem=used/total column appears when the deployment tracks memory.
func NodesText(nodes []NodeStatus) string {
	var b strings.Builder
	for _, n := range nodes {
		state := "free"
		if len(n.Jobs) > 0 {
			state = "busy"
		}
		if n.Offline {
			state = "offline"
		}
		ids := make([]string, 0, len(n.Jobs))
		for _, j := range n.Jobs {
			ids = append(ids, string(j))
		}
		fmt.Fprintf(&b, "%-12s %-8s cpu=%d/%d", n.Name, state, n.CPUsUsed, n.CPUs)
		if n.Mem > 0 {
			fmt.Fprintf(&b, " mem=%s/%s", FormatMem(n.MemUsed), FormatMem(n.Mem))
		}
		fmt.Fprintf(&b, " jobs=%s\n", strings.Join(ids, "+"))
	}
	return b.String()
}

// EncodeNodeStatus appends a NodeStatus to an encoder (the JOSHUA
// command protocol carries node listings in responses).
func EncodeNodeStatus(e *codec.Encoder, n NodeStatus) {
	e.PutString(n.Name)
	e.PutBool(n.Offline)
	e.PutUint(uint64(len(n.Jobs)))
	for _, j := range n.Jobs {
		e.PutString(string(j))
	}
	e.PutInt(int64(n.CPUs))
	e.PutInt(int64(n.CPUsUsed))
	e.PutInt(n.Mem)
	e.PutInt(n.MemUsed)
}

// DecodeNodeStatus reads a NodeStatus written by EncodeNodeStatus.
func DecodeNodeStatus(d *codec.Decoder) NodeStatus {
	n := NodeStatus{
		Name:    d.String(),
		Offline: d.Bool(),
	}
	c := d.Uint()
	for i := uint64(0); i < c && d.Err() == nil; i++ {
		n.Jobs = append(n.Jobs, JobID(d.String()))
	}
	n.CPUs = int(d.Int())
	n.CPUsUsed = int(d.Int())
	n.Mem = d.Int()
	n.MemUsed = d.Int()
	return n
}
