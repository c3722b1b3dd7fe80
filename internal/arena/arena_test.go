package arena

import (
	"testing"

	"repro/internal/rcu"
)

func TestArenaReuseAndGrowth(t *testing.T) {
	var a Arena[int]
	p1, p2 := a.Get(), a.Get()
	if p1 == p2 {
		t.Fatal("distinct Gets returned the same entry")
	}
	*p1 = 7
	a.Put(p1)
	p3 := a.Get()
	if p3 != p1 {
		t.Fatal("ungated arena did not reuse the freed entry")
	}
	if *p3 != 0 {
		t.Fatalf("reused entry not zeroed: %d", *p3)
	}
	// Growth: chunk capacities double, addresses stay stable.
	var ptrs []*int
	for i := 0; i < 100; i++ {
		p := a.Get()
		*p = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("entry %d moved or was rewritten: %d", i, *p)
		}
	}
	if live := a.Live(); live != 102 { // p2, p3, and the 100 loop entries
		t.Fatalf("live = %d, want 102", live)
	}
}

// TestArenaGateDefersReuse is the reuse/generation-ABA regression test:
// with a reader inside an rcu.Guards window, a released entry must NOT be
// handed out again (its memory could still be read through a stale
// pointer); once the reader exits, the next Get may recycle it.
func TestArenaGateDefersReuse(t *testing.T) {
	var g rcu.Guards
	var a Arena[int]
	a.SetGate(&g)

	p := a.Get()
	*p = 42

	g.Enter() // a reader holds p across the release
	a.Put(p)
	q := a.Get()
	if q == p {
		t.Fatal("gated arena recycled an entry during a reader's grace period")
	}
	if *p != 42 {
		t.Fatal("parked entry was rewritten while a reader could hold it")
	}
	g.Exit()

	// Quiescent again: limbo drains and p becomes reusable. Drain the
	// fresh free entries first (q's chunk neighbours) so the next Get must
	// reach the recycled one.
	a.Put(q)
	r1 := a.Get() // free list still holds q
	if r1 != q {
		t.Fatalf("expected immediate reuse of q")
	}
	got := false
	for i := 0; i < firstChunk*4 && !got; i++ {
		got = a.Get() == p
	}
	if !got {
		t.Fatal("released entry never recycled after quiescence")
	}
}

func TestArenaLimboBatchesDrain(t *testing.T) {
	var g rcu.Guards
	var a Arena[int]
	a.SetGate(&g)
	var ps []*int
	for i := 0; i < 10; i++ {
		ps = append(ps, a.Get())
	}
	for _, p := range ps {
		a.Put(p)
	}
	if live := a.Live(); live != 0 {
		t.Fatalf("live = %d, want 0", live)
	}
	// Quiescent (no readers): all ten limbo entries recycle before any new
	// chunk memory is touched.
	seen := map[*int]bool{}
	for i := 0; i < 10; i++ {
		seen[a.Get()] = true
	}
	recycled := 0
	for _, p := range ps {
		if seen[p] {
			recycled++
		}
	}
	if recycled != 10 {
		t.Fatalf("recycled %d of 10 limbo entries, want all", recycled)
	}
}
