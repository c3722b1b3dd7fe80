package lint

import "testing"

// TestControlFlowSideBySide walks a mutex through every construct the
// structured-flow walker handles, taken and given back, so each marked line
// is a path the walker carries the lock out on. A construct the walker
// mishandles shows up as a marked line without a finding, or the reverse.
func TestControlFlowSideBySide(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/cf": {"cf.go": `package cf

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) labelledBreak(xs []int) {
outer:
	for _, x := range xs {
		for _, y := range xs {
			s.mu.Lock()
			if x == y {
				break outer // leaves both loops holding both
			}
			s.mu.Unlock()
		}
	}
} // want:lockdiscipline

func (s *S) plainBreak(xs []int) {
	for _, x := range xs {
		s.mu.Lock()
		{
			if x == 0 {
				break
			}
		}
		s.mu.Unlock()
	}
} // want:lockdiscipline

func (s *S) labelledContinue(xs []int) {
outer:
	for _, x := range xs {
		for _, y := range xs {
			if x == y {
				continue outer // nothing held: nothing to carry
			}
			s.mu.Lock()
			s.mu.Unlock()
		}
	}
}

func (s *S) bodyFallsOffHolding(n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
	}
} // want:lockdiscipline

func (s *S) switchNoDefault(x int) {
	s.mu.Lock()
	switch x {
	case 1:
		s.mu.Unlock()
	case 2:
		s.mu.Unlock()
	}
} // want:lockdiscipline

func (s *S) switchDefault(x int) {
	s.mu.Lock()
	switch x {
	case 1:
		return // want:lockdiscipline
	default:
		s.mu.Unlock()
	}
}

func (s *S) typeSwitch(v any) {
	s.mu.Lock()
	switch v.(type) {
	case int:
		s.mu.Unlock()
	case string:
		s.mu.Unlock()
	}
} // want:lockdiscipline

func (s *S) selectAllReturn() {
	s.mu.Lock()
	select {
	case <-s.ch:
		s.mu.Unlock()
		return
	default:
		return // want:lockdiscipline
	}
}

func (s *S) foreverWithBreak() {
	for {
		s.mu.Lock()
		if len(s.ch) > 0 {
			break
		}
		s.mu.Unlock()
	}
} // want:lockdiscipline

func (s *S) foreverNoBreak() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.ch) > 0 {
			return
		}
	}
}

func (s *S) ifElseBothReturn(x int) int {
	s.mu.Lock()
	if x > 0 {
		s.mu.Unlock()
		return 1
	} else {
		return 2 // want:lockdiscipline
	}
}

func (s *S) deferred(x int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x > 0 {
		return 1
	}
	return 0
}

func (s *S) breakLeavesSwitch(x int) {
	for {
		s.mu.Lock()
		switch x {
		case 1:
			break // leaves the switch, not the loop
		}
		s.mu.Unlock()
		return
	}
}

func (s *S) breakLeavesSelect() {
	for {
		s.mu.Lock()
		select {
		case <-s.ch:
			break // leaves the select, not the loop
		default:
		}
		s.mu.Unlock()
		return
	}
}
`},
	}, checksNamed("lockdiscipline"))
}

// TestContinueCarriesState: what a loop body still holds at a `continue`
// reaches the loop's exit exactly as what it holds when it falls off its
// end. (Before the shared walker the lock pass dropped the state at
// `continue`.)
func TestContinueCarriesState(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/ct": {"ct.go": `package ct

import "sync"

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

func (s *S) labelledContinue(xs []int) {
outer:
	for _, x := range xs {
		for _, y := range xs {
			s.mu.Lock()
			if x == y {
				continue outer // skips the inner loop's release too
			}
			s.mu.Unlock()
		}
	}
} // want:lockdiscipline

func (s *S) settledBeforeContinue(xs []int) {
	for _, x := range xs {
		s.mu.Lock()
		if x == 0 {
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
	}
}
`},
	}, checksNamed("lockdiscipline"))
}

// TestLoopWithoutConditionExitsOnlyThroughBreak is the walker's one rule
// for `for { ... }`: nothing follows it but what a break carries out.
// (lockdiscipline used to let the entry state fall through as well, and
// reported the lock as still held at the unreachable end of keepsLock.)
func TestLoopWithoutConditionExitsOnlyThroughBreak(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/fl": {"fl.go": `package fl

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

func (s *S) keepsLock() {
	s.mu.Lock()
	for {
		if len(s.ch) > 0 {
			s.mu.Unlock()
			return
		}
	}
}

func (s *S) breakCarriesBoth() {
	s.mu.Lock()
	for {
		if len(s.ch) > 0 {
			break
		}
	}
} // want:lockdiscipline
`},
	}, checksNamed("lockdiscipline"))
}

// TestLockPassSinksStayApart: the lock pass walks each body once for
// lockdiscipline, lockorder and guardedby together. What a
// //lint:requires annotation grants is visible to the guard check only: a
// function that blocks, or takes another lock, under a lock its caller
// holds is judged at the caller's site.
func TestLockPassSinksStayApart(t *testing.T) {
	runFixture(t, map[string]map[string]string{
		"repro/sk": {"sk.go": `package sk

import "sync"

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
`},
	}, checksNamed("lockdiscipline", "lockorder", "guardedby"))
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
