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
`},
	}, checksNamed("lockdiscipline", "ownleak"))
}
