package rsm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// recService is a scriptable Service for Mux tests.
type recService struct {
	name    string
	key     string // ConflictKey answer ("" = global barrier)
	applied []string
	state   []byte
	forks   int
}

func (s *recService) Apply(cmd Command) []byte {
	s.applied = append(s.applied, cmd.ReqID)
	return []byte(s.name + ":" + cmd.ReqID)
}

func (s *recService) ConflictKey(cmd Command) string { return s.key }

func (s *recService) Snapshot() []byte { return append([]byte(nil), s.state...) }

// Fork copies the state under no lock (tests are single-goroutine at
// fork time); the closure encodes the copy.
func (s *recService) Fork() func() []byte {
	s.forks++
	captured := append([]byte(nil), s.state...)
	return func() []byte { return captured }
}

func (s *recService) Restore(state []byte) error {
	s.state = append([]byte(nil), state...)
	return nil
}

// prefixedService is a recService that builds its namespaced key
// itself, counting how often the Mux asks it to.
type prefixedService struct {
	recService
	calls int
}

func (s *prefixedService) PrefixedConflictKey(prefix string, cmd Command) string {
	s.calls++
	if s.key == "" {
		return ""
	}
	return prefix + s.key
}

func routeByPrefix(cmd Command) string {
	if len(cmd.Payload) > 0 {
		return string(cmd.Payload[:1])
	}
	return ""
}

func TestMuxRoutesToSubService(t *testing.T) {
	a := &recService{name: "a"}
	b := &recService{name: "b"}
	m := NewMux(routeByPrefix).Register("a", a).Register("b", b)

	if got := m.Apply(Command{ReqID: "r1", Payload: []byte("a...")}); string(got) != "a:r1" {
		t.Errorf("Apply -> %q", got)
	}
	if got := m.Apply(Command{ReqID: "r2", Payload: []byte("b...")}); string(got) != "b:r2" {
		t.Errorf("Apply -> %q", got)
	}
	if got := m.Apply(Command{ReqID: "r3", Payload: []byte("z...")}); got != nil {
		t.Errorf("unrouted command should produce nil, got %q", got)
	}
	if len(a.applied) != 1 || len(b.applied) != 1 {
		t.Errorf("applied: a=%v b=%v", a.applied, b.applied)
	}
}

func TestMuxSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewMux(routeByPrefix).
		Register("a", &recService{name: "a", state: []byte("alpha")}).
		Register("b", &recService{name: "b", state: []byte("beta")})

	da := &recService{name: "a"}
	db := &recService{name: "b"}
	dst := NewMux(routeByPrefix).Register("a", da).Register("b", db)
	if err := dst.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.state, []byte("alpha")) || !bytes.Equal(db.state, []byte("beta")) {
		t.Errorf("restored states: a=%q b=%q", da.state, db.state)
	}
}

func TestMuxRestoreRejectsCorruptSection(t *testing.T) {
	src := NewMux(routeByPrefix).
		Register("a", &recService{name: "a", state: []byte("alpha-section-payload")})
	dst := NewMux(routeByPrefix).Register("a", &recService{name: "a"})

	snap := src.Snapshot()
	// Flip one byte inside the section payload: the CRC guard must
	// reject the snapshot instead of handing garbage to the service.
	snap[len(snap)-2] ^= 0xFF
	err := dst.Restore(snap)
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("Restore(corrupt) = %v, want CRC rejection", err)
	}
}

func TestMuxSnapshotDeterministic(t *testing.T) {
	m := NewMux(routeByPrefix).
		Register("a", &recService{state: []byte("x")}).
		Register("b", &recService{state: []byte("y")})
	if !bytes.Equal(m.Snapshot(), m.Snapshot()) {
		t.Error("mux snapshot is nondeterministic")
	}
}

func TestMuxRestoreRejectsMismatchedAssembly(t *testing.T) {
	one := NewMux(routeByPrefix).Register("a", &recService{})
	two := NewMux(routeByPrefix).Register("a", &recService{}).Register("b", &recService{})
	renamed := NewMux(routeByPrefix).Register("c", &recService{})

	if err := two.Restore(one.Snapshot()); err == nil {
		t.Error("restoring a 1-section snapshot into a 2-service mux should fail")
	}
	if err := renamed.Restore(one.Snapshot()); err == nil {
		t.Error("restoring a snapshot naming an unknown service should fail")
	}
	if err := one.Restore([]byte{0xFF, 0xFF}); err == nil {
		t.Error("restoring garbage should fail")
	}
}

func TestMuxDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	NewMux(routeByPrefix).Register("a", &recService{}).Register("a", &recService{})
}

func TestMuxManyServicesOrdered(t *testing.T) {
	// Registration order, not map order, drives the snapshot layout.
	m1 := NewMux(routeByPrefix)
	m2 := NewMux(routeByPrefix)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		m1.Register(name, &recService{state: []byte(name)})
		m2.Register(name, &recService{state: []byte(name)})
	}
	if !bytes.Equal(m1.Snapshot(), m2.Snapshot()) {
		t.Error("same registration order should give identical snapshots")
	}
}

func TestMuxForkMatchesSnapshot(t *testing.T) {
	// The Mux forks every sub-service once and its encoder must produce
	// bytes identical to Snapshot at fork time.
	a := &recService{name: "a", state: []byte("alpha")}
	b := &recService{name: "b", state: []byte("beta")}
	m := NewMux(routeByPrefix).Register("a", a).Register("b", b)

	want := m.Snapshot()
	enc := m.Fork()
	if a.forks != 1 || b.forks != 1 {
		t.Fatalf("sub-services forked %d and %d times, want 1 each", a.forks, b.forks)
	}

	// Mutate both services after the fork.
	a.state = []byte("ALPHA'd")
	b.state = []byte("BETA'd")

	got := enc()
	if !bytes.Equal(got, want) {
		t.Fatalf("forked mux encode differs from snapshot at fork time")
	}
	// The forked image restores cleanly into a fresh assembly.
	da := &recService{name: "a"}
	db := &recService{name: "b"}
	dst := NewMux(routeByPrefix).Register("a", da).Register("b", db)
	if err := dst.Restore(got); err != nil {
		t.Fatal(err)
	}
	if string(da.state) != "alpha" || string(db.state) != "beta" {
		t.Errorf("restored states: a=%q b=%q", da.state, db.state)
	}
}

func TestMuxConflictKeyNamespaces(t *testing.T) {
	pre := &prefixedService{recService: recService{key: "job/7"}}
	m := NewMux(routeByPrefix).
		Register("a", &recService{key: "job/7"}).
		Register("b", pre).
		Register("c", &recService{})
	for payload, want := range map[string]string{
		"a": "a/job/7", // concatenated by the Mux
		"b": "b/job/7", // built by the service
		"c": "",        // a global barrier stays one
		"z": "",        // so does an unrouted command
	} {
		if got := m.ConflictKey(Command{Payload: []byte(payload)}); got != want {
			t.Errorf("ConflictKey(%q) = %q, want %q", payload, got, want)
		}
	}
	if pre.calls != 1 {
		t.Errorf("PrefixedConflictKey called %d times, want 1", pre.calls)
	}
}
