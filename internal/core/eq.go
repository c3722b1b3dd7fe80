package core

import (
	"fmt"
	"time"

	"repro/internal/eventq"
	"repro/internal/types"
)

// EQAlloc creates an event queue with the given number of slots
// (PtlEQAlloc). Event queues are circular (§4.8); see internal/eventq.
func (s *State) EQAlloc(slots int) (types.Handle, error) {
	if slots < 1 {
		return types.InvalidHandle, fmt.Errorf("%w: event queue needs at least 1 slot", types.ErrInvalidArgument)
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.closed.Load() {
		return types.InvalidHandle, types.ErrClosed
	}
	return s.eqs.alloc(eventq.New(slots))
}

// EQFree releases an event queue (PtlEQFree). Descriptors still pointing
// at it simply stop logging: the engine treats a vanished queue as "no
// event queue", and an acknowledgment for it is dropped per §4.8.
func (s *State) EQFree(h types.Handle) error {
	s.resMu.Lock()
	q, ok := s.eqs.lookup(h)
	if ok {
		s.eqs.release(h)
	}
	s.resMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	q.Close()
	return nil
}

// eqRes returns the queue for a handle, nil if the handle is invalid or
// stale — atomic loads only, no locks, so it is safe on the per-message
// path with any lock held. Queues are ordinary heap objects (never arena
// recycled), so no pins window is needed: a stale handle simply misses,
// and §4.8 says an event for a vanished queue is dropped.
func (s *State) eqRes(h types.Handle) *eventq.Queue {
	if !h.IsValid() {
		return nil
	}
	q, ok := s.eqs.lookup(h)
	if !ok {
		return nil
	}
	return q
}

// lookupEQ resolves a handle to its queue or an error.
func (s *State) lookupEQ(h types.Handle) (*eventq.Queue, error) {
	q := s.eqRes(h)
	if q == nil {
		return nil, fmt.Errorf("%w: %v", types.ErrInvalidHandle, h)
	}
	return q, nil
}

// EQGet returns the next event without blocking (PtlEQGet).
func (s *State) EQGet(h types.Handle) (eventq.Event, error) {
	q, err := s.lookupEQ(h)
	if err != nil {
		return eventq.Event{}, err
	}
	return q.Get()
}

// EQWait blocks until an event arrives (PtlEQWait).
func (s *State) EQWait(h types.Handle) (eventq.Event, error) {
	q, err := s.lookupEQ(h)
	if err != nil {
		return eventq.Event{}, err
	}
	return q.Wait()
}

// EQPoll waits up to d for an event.
func (s *State) EQPoll(h types.Handle, d time.Duration) (eventq.Event, error) {
	q, err := s.lookupEQ(h)
	if err != nil {
		return eventq.Event{}, err
	}
	return q.Poll(d)
}

// EQPending reports the number of unconsumed events.
func (s *State) EQPending(h types.Handle) (int, error) {
	q, err := s.lookupEQ(h)
	if err != nil {
		return 0, err
	}
	return q.Pending(), nil
}
