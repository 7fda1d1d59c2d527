package rsm

import (
	"fmt"
	"hash/crc32"

	"joshua/internal/codec"
)

// Mux composes several independent Services behind one Replica: each
// command is routed to exactly one sub-service, and snapshots carry
// every sub-service's state, keyed by name. This is how a head node
// replicates the batch system and the jmutex/jdone lock table through
// one total order (internal/joshua wires exactly that), and how any
// further service grows onto the same engine without engine changes.
//
// Registration order is part of the replicated contract: every
// replica must register the same names in the same order, or their
// snapshots would disagree.
type Mux struct {
	route    func(cmd Command) string
	names    []string
	services map[string]muxService
}

// muxService is one registered sub-service and the prefix, its name
// and a slash, that namespaces its conflict keys.
type muxService struct {
	Service
	prefix string
}

// NewMux creates a composite service. route maps each totally ordered
// command to the name of the sub-service that applies it; it must be
// deterministic on the command alone.
func NewMux(route func(cmd Command) string) *Mux {
	return &Mux{route: route, services: make(map[string]muxService)}
}

// Register adds a named sub-service and returns the Mux for chaining.
// It panics on a duplicate name (a wiring bug, not a runtime
// condition).
func (m *Mux) Register(name string, s Service) *Mux {
	if _, dup := m.services[name]; dup {
		panic(fmt.Sprintf("rsm: duplicate service %q", name))
	}
	m.names = append(m.names, name)
	m.services[name] = muxService{Service: s, prefix: name + "/"}
	return m
}

// Apply routes the command to its sub-service. Commands routed to an
// unregistered name produce no response (they are recorded in the
// dedup table as reply-suppressed).
func (m *Mux) Apply(cmd Command) []byte {
	s, ok := m.services[m.route(cmd)]
	if !ok {
		return nil
	}
	return s.Apply(cmd)
}

// PrefixedKeyer is implemented by a Service that can build its
// conflict key behind a prefix, so that the Mux gets a namespaced key
// in one allocation instead of concatenating a second string per keyed
// command. PrefixedConflictKey(prefix, cmd) must return exactly
// prefix + ConflictKey(cmd), or "" when ConflictKey(cmd) is "".
type PrefixedKeyer interface {
	PrefixedConflictKey(prefix string, cmd Command) string
}

// ConflictKey routes the conflict-domain question to the command's
// sub-service and namespaces the answer by service name, so equal keys
// from different sub-services never alias into one domain. A command
// routed to an unregistered name, or one whose sub-service declares a
// global barrier, stays a global barrier here.
func (m *Mux) ConflictKey(cmd Command) string {
	s, ok := m.services[m.route(cmd)]
	if !ok {
		return ""
	}
	if pk, ok := s.Service.(PrefixedKeyer); ok {
		return pk.PrefixedConflictKey(s.prefix, cmd)
	}
	key := s.ConflictKey(cmd)
	if key == "" {
		return ""
	}
	return s.prefix + key
}

// Snapshot concatenates every sub-service's snapshot, tagged by name
// and guarded by a CRC, in registration order. The CRC lets Restore
// reject a corrupt or truncated section before handing it to a
// sub-service whose decoder may not tolerate garbage.
func (m *Mux) Snapshot() []byte {
	return m.encode(func(i int) []byte { return m.services[m.names[i]].Snapshot() })
}

// Fork captures every sub-service's fork in registration order; the
// returned closure encodes exactly the bytes Snapshot would have
// produced at fork time.
func (m *Mux) Fork() func() []byte {
	parts := make([]func() []byte, len(m.names))
	for i, name := range m.names {
		parts[i] = m.services[name].Fork()
	}
	return func() []byte { return m.encode(func(i int) []byte { return parts[i]() }) }
}

// encode lays out the sections section(i) returns, one per registered
// name, in the format Restore reads.
func (m *Mux) encode(section func(i int) []byte) []byte {
	e := codec.NewEncoder(256)
	e.PutUint(uint64(len(m.names)))
	for i, name := range m.names {
		b := section(i)
		e.PutString(name)
		e.PutUint(uint64(crc32.ChecksumIEEE(b)))
		e.PutBytes(b)
	}
	return e.Bytes()
}

// Restore dispatches each tagged snapshot section to its sub-service.
// Every section must name a registered service, and every registered
// service must receive a section — a mismatch means the replicas are
// running different service assemblies.
func (m *Mux) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	n := d.Uint()
	if d.Err() != nil || n != uint64(len(m.names)) {
		return fmt.Errorf("rsm: mux snapshot has %d sections, want %d (%v)", n, len(m.names), d.Err())
	}
	for i := uint64(0); i < n; i++ {
		name := d.String()
		crc := d.Uint()
		section := d.Bytes()
		if d.Err() != nil {
			return fmt.Errorf("rsm: corrupt mux snapshot: %v", d.Err())
		}
		if got := uint64(crc32.ChecksumIEEE(section)); got != crc {
			return fmt.Errorf("rsm: mux snapshot section %q fails CRC (corrupt or truncated transfer)", name)
		}
		s, ok := m.services[name]
		if !ok {
			return fmt.Errorf("rsm: mux snapshot names unknown service %q", name)
		}
		if err := s.Restore(section); err != nil {
			return fmt.Errorf("rsm: restoring service %q: %w", name, err)
		}
	}
	return d.Finish()
}
