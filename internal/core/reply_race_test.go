package core

import (
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// TestReplyEQSpaceRace is the regression test for a check-then-post TOCTOU
// in the reply path. Two memory descriptors with *different* owner locks
// (one free-floating under bindMu, one attached under its portal's mutex)
// share a one-slot event queue, and two goroutines deliver a reply to each
// concurrently — the interleaving delivery lanes produce. §4.8 demands the
// loser's *reply* be dropped (counted DropEQFull); with a check-then-post
// pair both replies could pass the space check and the consumer would see
// ErrEQDropped — an event lost after the engine decided there was room.
func TestReplyEQSpaceRace(t *testing.T) {
	self := types.ProcessID{NID: 1, PID: 1}
	s := checked(t, NewState(self, types.Limits{}, nil, nil))
	eq, err := s.EQAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := s.MDBind(MD{Start: make([]byte, 8), Threshold: types.ThresholdInfinite, EQ: eq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	me, err := s.MEAttach(0, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	attached, err := s.MDAttach(me, MD{Start: make([]byte, 8), Threshold: types.ThresholdInfinite, Options: types.MDOpPut, EQ: eq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}

	replyTo := func(md types.Handle) wire.Header {
		return wire.ReplyFor(&wire.Header{
			Op: wire.OpGet, Initiator: self, Target: self, MD: md, RLength: 4,
		}, 4)
	}
	h1, h2 := replyTo(bound), replyTo(attached)
	payload := []byte("data")

	const rounds = 1500
	for r := 0; r < rounds; r++ {
		before := s.Counters().DroppedFor(types.DropEQFull)
		var wg sync.WaitGroup
		for _, h := range []*wire.Header{&h1, &h2} {
			wg.Add(1)
			go func(h *wire.Header) {
				defer wg.Done()
				hh := *h // HandleIncoming may not retain, but keep headers private per goroutine
				s.HandleIncoming(&hh, payload)
			}(h)
		}
		wg.Wait()
		dropped := s.Counters().DroppedFor(types.DropEQFull) - before
		events := int64(0)
		for {
			_, err := s.EQGet(eq)
			if err == types.ErrEQEmpty {
				break
			}
			if err == types.ErrEQDropped {
				t.Fatalf("round %d: consumer saw an overrun — a reply was admitted without space", r)
			}
			if err != nil {
				t.Fatal(err)
			}
			events++
		}
		if events+dropped != 2 || events != 1 {
			t.Fatalf("round %d: events = %d, drops = %d; want exactly 1 and 1", r, events, dropped)
		}
	}
}
