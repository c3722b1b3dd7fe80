package lint

import "testing"

// TestControlFlowSideBySide walks a mutex and a pooled buffer through
// every construct the structured-flow walker handles, taken together and
// given back together, so each marked line names both analyses: one
// fixture, two transfer functions, one walker. A construct the walker
// mishandles shows up as a line where the two disagree.
func TestControlFlowSideBySide(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/cf": {"cf.go": `package cf

import (
	"sync"

	"repro/internal/bp"
)

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) labelledBreak(xs []int) {
outer:
	for _, x := range xs {
		for _, y := range xs {
			s.mu.Lock()
			b := bp.Get(8)
			if x == y {
				break outer // leaves both loops holding both
			}
			b.Release()
			s.mu.Unlock()
		}
	}
} // want:lockdiscipline,ownleak

func (s *S) plainBreak(xs []int) {
	for _, x := range xs {
		s.mu.Lock()
		b := bp.Get(8)
		{
			if x == 0 {
				break
			}
		}
		b.Release()
		s.mu.Unlock()
	}
} // want:lockdiscipline,ownleak

func (s *S) labelledContinue(xs []int) {
outer:
	for _, x := range xs {
		for _, y := range xs {
			if x == y {
				continue outer // nothing held: nothing to carry
			}
			s.mu.Lock()
			b := bp.Get(8)
			b.Release()
			s.mu.Unlock()
		}
	}
}

func (s *S) bodyFallsOffHolding(n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		b := bp.Get(8)
		_ = b.Len()
	}
} // want:lockdiscipline,ownleak

func (s *S) switchNoDefault(x int) {
	s.mu.Lock()
	b := bp.Get(8)
	switch x {
	case 1:
		b.Release()
		s.mu.Unlock()
	case 2:
		b.Release()
		s.mu.Unlock()
	}
} // want:lockdiscipline,ownleak

func (s *S) switchDefault(x int) {
	s.mu.Lock()
	b := bp.Get(8)
	switch x {
	case 1:
		return // want:lockdiscipline,ownleak
	default:
		b.Release()
		s.mu.Unlock()
	}
}

func (s *S) typeSwitch(v any) {
	s.mu.Lock()
	b := bp.Get(8)
	switch v.(type) {
	case int:
		b.Release()
		s.mu.Unlock()
	case string:
		b.Release()
		s.mu.Unlock()
	}
} // want:lockdiscipline,ownleak

func (s *S) selectAllReturn() {
	s.mu.Lock()
	b := bp.Get(8)
	select {
	case <-s.ch:
		b.Release()
		s.mu.Unlock()
		return
	default:
		return // want:lockdiscipline,ownleak
	}
}

func (s *S) foreverWithBreak() {
	for {
		s.mu.Lock()
		b := bp.Get(8)
		if len(s.ch) > 0 {
			break
		}
		b.Release()
		s.mu.Unlock()
	}
} // want:lockdiscipline,ownleak

func (s *S) foreverNoBreak() {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := bp.Get(8)
	defer b.Release()
	for {
		if len(s.ch) > 0 {
			return
		}
	}
}

func (s *S) ifElseBothReturn(x int) int {
	s.mu.Lock()
	b := bp.Get(8)
	if x > 0 {
		b.Release()
		s.mu.Unlock()
		return 1
	} else {
		return 2 // want:lockdiscipline,ownleak
	}
}

func (s *S) deferred(x int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := bp.Get(8)
	defer b.Release()
	if x > 0 {
		return b.Len()
	}
	return 0
}

func (s *S) breakLeavesSwitch(x int) {
	for {
		s.mu.Lock()
		b := bp.Get(8)
		switch x {
		case 1:
			break // leaves the switch, not the loop
		}
		b.Release()
		s.mu.Unlock()
		return
	}
}

func (s *S) breakLeavesSelect() {
	for {
		s.mu.Lock()
		b := bp.Get(8)
		select {
		case <-s.ch:
			break // leaves the select, not the loop
		default:
		}
		b.Release()
		s.mu.Unlock()
		return
	}
}
`},
	}, checksNamed("lockdiscipline", "ownleak"))
}

// TestContinueCarriesState: what a loop body still holds at a `continue`
// reaches the loop's exit exactly as what it holds when it falls off its
// end — a lock, or a pooled buffer. (Before the shared walker both
// analyses dropped the state at `continue`.)
func TestContinueCarriesState(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/ct": {"ct.go": `package ct

import (
	"sync"

	"repro/internal/bp"
)

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) lockHeldAtContinue(xs []int) {
	for _, x := range xs {
		s.mu.Lock()
		if x == 0 {
			continue
		}
		s.n += x
		s.mu.Unlock()
	}
} // want:lockdiscipline

func bufferOwnedAtContinue(xs []int) {
	for _, x := range xs {
		b := bp.Get(x)
		if x == 0 {
			continue
		}
		b.Release()
	}
} // want:ownleak

func (s *S) labelledContinue(xs []int) {
outer:
	for _, x := range xs {
		for _, y := range xs {
			s.mu.Lock()
			b := bp.Get(y)
			if x == y {
				continue outer // skips the inner loop's release too
			}
			b.Release()
			s.mu.Unlock()
		}
	}
} // want:lockdiscipline,ownleak

func (s *S) settledBeforeContinue(xs []int) {
	for _, x := range xs {
		s.mu.Lock()
		b := bp.Get(x)
		if x == 0 {
			b.Release()
			s.mu.Unlock()
			continue
		}
		s.n += b.Len()
		b.Release()
		s.mu.Unlock()
	}
}
`},
	}, checksNamed("lockdiscipline", "ownleak"))
}

// TestLoopWithoutConditionExitsOnlyThroughBreak is the walker's one rule
// for `for { ... }`: nothing follows it but what a break carries out.
// (lockdiscipline used to let the entry state fall through as well, and
// reported the lock as still held at the unreachable end of keepsLock.)
func TestLoopWithoutConditionExitsOnlyThroughBreak(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/internal/bp": {"bp.go": bpFixture},
		"repro/fl": {"fl.go": `package fl

import (
	"sync"

	"repro/internal/bp"
)

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) keepsLock() {
	s.mu.Lock()
	b := bp.Get(8)
	for {
		if len(s.ch) > 0 {
			b.Release()
			s.mu.Unlock()
			return
		}
	}
}

func (s *S) breakCarriesBoth() {
	s.mu.Lock()
	b := bp.Get(8)
	for {
		if len(s.ch) > 0 {
			break
		}
	}
	_ = b.Len()
} // want:lockdiscipline,ownleak
`},
	}, checksNamed("lockdiscipline", "ownleak"))
}

// TestLockPassSinksStayApart: the lock pass walks each body once for
// lockdiscipline, lockorder, guardedby and seqlock together. What a
// //lint:requires annotation or a seqlock stamp window grants is visible
// to the guard checks only: a function that blocks, or takes another
// lock, under a lock its caller holds is judged at the caller's site.
func TestLockPassSinksStayApart(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/sk": {"sk.go": `package sk

import (
	"sync"
	"sync/atomic"
)

//lint:lockrank A.mu < B.mu

type A struct {
	mu sync.Mutex
	n  int //lint:guardedby mu
	ch chan int
}

type B struct{ mu sync.Mutex }

// bump blocks and takes B.mu under the A.mu its caller holds: neither a
// lockdiscipline nor a lockorder finding here.
//
//lint:requires mu
func (a *A) bump(b *B) {
	a.n++
	<-a.ch
	b.mu.Lock()
	b.mu.Unlock()
}

func (a *A) caller(b *B) {
	a.mu.Lock()
	a.bump(b) // want:lockdiscipline
	a.mu.Unlock()
}

func (a *A) callerUnlocked(b *B) {
	a.bump(b) // want:guardedby
}

//lint:seqlock stamp
type slot struct {
	stamp atomic.Uint64
	val   uint64
}

// publish leaves with the stamp window open on one path: a seqlock
// matter, never "stamp may still be held".
func publish(s *slot, seq uint64, ch chan int) {
	s.stamp.Store(2*seq + 1)
	s.val = seq
	<-ch
	if seq == 0 {
		return
	}
	s.stamp.Store(2*seq + 2)
	s.val = 0 // want:seqlock
}
`},
	}, checksNamed("lockdiscipline", "lockorder", "guardedby", "seqlock"))
}

// TestLockDisciplineReceiverChain: a call in the receiver position of a
// method call is a call like any other. (Only the guard checks used to
// look there; lockdiscipline and lockorder saw the arguments alone.)
func TestLockDisciplineReceiverChain(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/rc": {"rc.go": `package rc

import "sync"

//lint:lockrank T.mu < P.mu

type P struct {
	mu sync.Mutex
	ch chan int
}

func (p *P) poke() {}

type T struct {
	mu   sync.Mutex
	peer *P
	q    *Q
}

type Q struct{ mu sync.Mutex }

func (t *T) waitPeer() *P {
	<-t.peer.ch
	return t.peer
}

func (t *T) lockedPeer() *P {
	t.peer.mu.Lock()
	t.peer.mu.Unlock()
	return t.peer
}

func (t *T) lockedQ() *P {
	t.q.mu.Lock()
	t.q.mu.Unlock()
	return t.peer
}

func (t *T) chain() {
	t.mu.Lock()
	t.waitPeer().poke() // want:lockdiscipline
	t.lockedPeer().poke()
	t.lockedQ().poke() // want:lockorder
	t.mu.Unlock()
}
`},
	}, checksNamed("lockdiscipline", "lockorder"))
}
