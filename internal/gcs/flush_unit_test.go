package gcs

import (
	"reflect"
	"testing"
)

// White-box unit tests for the pure membership/flush decision logic.
// These construct a Process directly (no run loop) and exercise the
// functions the view-change protocol pivots on.

// Like the group helper, it runs the shipped mode: safe delivery, and
// the default timings and lease length.
func bareProcess(self MemberID, members []MemberID, primary bool) *Process {
	cfg := Config{Self: self, PartitionPolicy: FailStop, SafeDelivery: true}
	cfg.fillDefaults()
	p := &Process{
		cfg:       cfg,
		view:      View{ID: 3, Members: members, Primary: primary},
		suspected: make(map[MemberID]bool),
		joiners:   make(map[MemberID]bool),
		leavers:   make(map[MemberID]bool),
		delivered: make(map[MemberID]uint64),
	}
	return p
}

func TestCoordinatorOf(t *testing.T) {
	p := bareProcess("c", []MemberID{"a", "b", "c"}, true)
	if got := p.coordinatorOf(); got != "a" {
		t.Errorf("coordinator = %q, want a", got)
	}
	p.suspected["a"] = true
	if got := p.coordinatorOf(); got != "b" {
		t.Errorf("coordinator = %q, want b", got)
	}
	p.leavers["b"] = true
	if got := p.coordinatorOf(); got != "c" {
		t.Errorf("coordinator = %q, want c", got)
	}
	p.suspected["c"] = true // self-suspicion should not normally happen…
	if got := p.coordinatorOf(); got != "" {
		t.Errorf("coordinator = %q, want empty when all excluded", got)
	}
}

func TestMembershipChangeNeeded(t *testing.T) {
	p := bareProcess("a", []MemberID{"a", "b"}, true)
	if p.membershipChangeNeeded() {
		t.Error("no change should be needed initially")
	}
	p.suspected["b"] = true
	if !p.membershipChangeNeeded() {
		t.Error("suspicion should require a change")
	}
	delete(p.suspected, "b")
	p.leavers["b"] = true
	if !p.membershipChangeNeeded() {
		t.Error("leave should require a change")
	}
	delete(p.leavers, "b")
	p.joiners["c"] = true
	if !p.membershipChangeNeeded() {
		t.Error("joiner should require a change")
	}
	// A joiner that is already a member does not.
	delete(p.joiners, "c")
	p.joiners["b"] = true
	if p.membershipChangeNeeded() {
		t.Error("existing member as joiner should not require a change")
	}
	// A suspected joiner does not either.
	p.joiners["c"] = true
	p.suspected["c"] = true
	delete(p.joiners, "b")
	if p.membershipChangeNeeded() {
		t.Error("suspected joiner should not require a change")
	}
}

func TestNextCandidates(t *testing.T) {
	p := bareProcess("b", []MemberID{"a", "b", "c", "d"}, true)
	p.suspected["a"] = true
	p.leavers["d"] = true
	p.joiners["e"] = true
	p.joiners["c"] = true // already a member: not a joiner

	candidates, old, joining := p.nextCandidates()
	if !reflect.DeepEqual(candidates, []MemberID{"b", "c", "e"}) {
		t.Errorf("candidates = %v", candidates)
	}
	if !reflect.DeepEqual(old, []MemberID{"b", "c"}) {
		t.Errorf("old = %v", old)
	}
	if !reflect.DeepEqual(joining, []MemberID{"e"}) {
		t.Errorf("joining = %v", joining)
	}
}

func TestNextCandidatesSelfAlwaysIncluded(t *testing.T) {
	// Even if others mark us leaving/suspected, our own proposal keeps
	// us in (we are evidently alive).
	p := bareProcess("a", []MemberID{"a", "b"}, true)
	p.suspected["b"] = true
	candidates, old, _ := p.nextCandidates()
	if !reflect.DeepEqual(candidates, []MemberID{"a"}) || !reflect.DeepEqual(old, []MemberID{"a"}) {
		t.Errorf("candidates = %v, old = %v", candidates, old)
	}
}

func TestNewViewPrimaryFailStop(t *testing.T) {
	p := bareProcess("a", []MemberID{"a", "b", "c", "d"}, true)
	p.suspected["c"] = true
	p.suspected["d"] = true
	_, old, _ := p.nextCandidates()
	p.fl = flushState{oldMembers: old}
	// FailStop: even a minority fragment of a primary view stays
	// primary (2 of 4 here).
	if !p.newViewPrimary() {
		t.Error("FailStop fragment should stay primary")
	}
	// A non-primary view never becomes primary by shrinking.
	p.view.Primary = false
	if p.newViewPrimary() {
		t.Error("non-primary view cannot regain primary")
	}
}

func TestNewViewPrimaryMajority(t *testing.T) {
	p := bareProcess("a", []MemberID{"a", "b", "c", "d"}, true)
	p.cfg.PartitionPolicy = Majority
	p.suspected["d"] = true
	_, old, _ := p.nextCandidates()
	p.fl = flushState{oldMembers: old}
	// 3 of 4 is a strict majority.
	if !p.newViewPrimary() {
		t.Error("3/4 should be primary under Majority")
	}
	// 2 of 4 is not.
	p.suspected["c"] = true
	_, old, _ = p.nextCandidates()
	p.fl = flushState{oldMembers: old}
	if p.newViewPrimary() {
		t.Error("2/4 should not be primary under Majority")
	}
	// Joiners do not count toward the quorum.
	p.joiners["zz"] = true
	_, old, _ = p.nextCandidates()
	p.fl = flushState{oldMembers: old}
	if p.newViewPrimary() {
		t.Error("joiner must not tip the quorum")
	}
}

func TestMemberIn(t *testing.T) {
	ms := []MemberID{"a", "b"}
	if !memberIn(ms, "a") || memberIn(ms, "z") || memberIn(nil, "a") {
		t.Error("memberIn wrong")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[MemberID]uint64{"c": 1, "a": 2, "b": 3}
	got := sortedKeys(m)
	if !reflect.DeepEqual(got, []MemberID{"a", "b", "c"}) {
		t.Errorf("sortedKeys = %v", got)
	}
}
