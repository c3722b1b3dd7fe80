package core

import (
	"errors"
	"testing"

	"repro/internal/bufpool/pooltest"
	"repro/internal/types"
	"repro/internal/wire"
)

// The binary fails at exit if a pooled buffer taken by a test is still out.
func TestMain(m *testing.M) { pooltest.Main(m) }

var (
	aliceID = types.ProcessID{NID: 1, PID: 10}
	bobID   = types.ProcessID{NID: 2, PID: 20}
)

func newState(t *testing.T, id types.ProcessID) *State {
	t.Helper()
	return checked(t, NewState(id, types.Limits{}, nil, nil))
}

// checked has s torn down with the test, then fails the test if a pin is
// still open or an arena holds an entry the State's tables no longer reach
// (CheckTeardown).
func checked(t *testing.T, s *State) *State {
	t.Cleanup(func() {
		if err := s.CheckTeardown(); err != nil {
			t.Error(err)
		}
	})
	return s
}

// deliver routes a set of outbound messages into the destination state and
// recursively delivers any responses (acks, replies), emulating a lossless
// instant network between exactly two states.
func deliver(t *testing.T, out []Outbound, states map[types.ProcessID]*State) {
	t.Helper()
	for len(out) > 0 {
		next := out[0]
		out = out[1:]
		dst, ok := states[next.Dst]
		if !ok {
			t.Fatalf("no state for destination %v", next.Dst)
		}
		h, payload, err := wire.DecodeMessage(next.Msg)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, dst.HandleIncoming(&h, payload)...)
		next.Recycle()
	}
}

// recycle returns the pooled buffers of messages a test does not pass on.
func recycle(out ...Outbound) {
	for i := range out {
		out[i].Recycle()
	}
}

func pair(t *testing.T) (*State, *State, map[types.ProcessID]*State) {
	t.Helper()
	a, b := newState(t, aliceID), newState(t, bobID)
	return a, b, map[types.ProcessID]*State{aliceID: a, bobID: b}
}

func TestMEAttachBadPortalIndex(t *testing.T) {
	s := newState(t, aliceID)
	_, err := s.MEAttach(types.PtlIndex(s.Limits().MaxPtlIndex)+1, types.ProcessID{NID: types.NIDAny, PID: types.PIDAny},
		0, 0, types.Retain, types.After)
	if !errors.Is(err, types.ErrInvalidArgument) {
		t.Errorf("MEAttach out of range = %v", err)
	}
}

func TestMEAttachOrdering(t *testing.T) {
	s := newState(t, aliceID)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	if _, err := s.MEAttach(0, any, 1, 0, types.Retain, types.After); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MEAttach(0, any, 2, 0, types.Retain, types.After); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MEAttach(0, any, 3, 0, types.Retain, types.Before); err != nil {
		t.Fatal(err)
	}
	if n := s.MatchListLen(0); n != 3 {
		t.Fatalf("match list len = %d, want 3", n)
	}
	// Order should be 3, 1, 2. Verify via delivery: a put with bits=1
	// must skip entry 3 and land in entry 1's MD.
	want := []types.MatchBits{3, 1, 2}
	if got := matchBitsOrder(s, 0); !equalBits(got, want) {
		t.Errorf("match list order = %v, want %v", got, want)
	}
}

// matchBitsOrder walks the portal's match list in order, for tests.
func matchBitsOrder(s *State, ptl types.PtlIndex) []types.MatchBits {
	p := &s.table[ptl]
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []types.MatchBits
	for me := p.head; me != nil; me = me.next {
		out = append(out, me.matchBits)
	}
	return out
}

func equalBits(a, b []types.MatchBits) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMEInsertPositions(t *testing.T) {
	s := newState(t, aliceID)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	mid, err := s.MEAttach(0, any, 10, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MEInsert(mid, any, 5, 0, types.Retain, types.Before); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MEInsert(mid, any, 15, 0, types.Retain, types.After); err != nil {
		t.Fatal(err)
	}
	want := []types.MatchBits{5, 10, 15}
	if got := matchBitsOrder(s, 0); !equalBits(got, want) {
		t.Errorf("match list order = %v, want %v", got, want)
	}
}

func TestMEInsertStaleBase(t *testing.T) {
	s := newState(t, aliceID)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	h, err := s.MEAttach(0, any, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MEUnlink(h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MEInsert(h, any, 0, 0, types.Retain, types.After); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("MEInsert on stale handle = %v", err)
	}
}

// Every call that resolves a handle closes its pin on the way out, a failed
// lookup included: each one here is given a handle that is gone.
func TestStaleHandlesClosePins(t *testing.T) {
	s := newState(t, aliceID)
	me, err := s.MEAttach(0, anyID, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	md, err := s.MDBind(MD{Start: make([]byte, 4), Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MDUnlink(md); err != nil {
		t.Fatal(err)
	}
	if err := s.MEUnlink(me); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"StartPut": func() error { _, err := s.StartPut(md, types.NoAckReq, bobID, 0, 0, 0, 0); return err },
		"StartGet": func() error { _, err := s.StartGet(md, bobID, 0, 0, 0, 0); return err },
		"MDAttach": func() error { _, err := s.MDAttach(me, MD{Start: make([]byte, 4)}, types.Retain); return err },
		"MDUnlink": func() error { return s.MDUnlink(md) },
		"MDUpdate": func() error { return s.MDUpdate(md, MD{Start: make([]byte, 4)}, types.InvalidHandle) },
		"MDStatus": func() error { _, _, err := s.MDStatus(md); return err },
		"MEInsert": func() error { _, err := s.MEInsert(me, anyID, 0, 0, types.Retain, types.After); return err },
		"MEUnlink": func() error { return s.MEUnlink(me) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s on a handle that is gone succeeded", name)
		}
		if !s.pins.Quiescent() {
			t.Fatalf("%s left a pin open", name)
		}
	}
	reply := wire.ReplyFor(&wire.Header{Op: wire.OpGet, Initiator: aliceID, Target: bobID, MD: md, RLength: 4}, 4)
	var pl Placement
	if v := s.Resolve(&reply, &pl); v != Discard || !s.pins.Quiescent() {
		t.Errorf("Resolve of a reply to a descriptor that is gone = %v, pins quiescent %v", v, s.pins.Quiescent())
	}
}

func TestMEUnlinkReleasesMDs(t *testing.T) {
	s := newState(t, aliceID)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	me, err := s.MEAttach(0, any, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	md, err := s.MDAttach(me, MD{Start: make([]byte, 16), Threshold: types.ThresholdInfinite, Options: types.MDOpPut}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MEUnlink(me); err != nil {
		t.Fatal(err)
	}
	if err := s.MDUnlink(md); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("MD should be gone after MEUnlink: %v", err)
	}
	if s.MatchListLen(0) != 0 {
		t.Error("match list not empty after MEUnlink")
	}
}

func TestMDAttachValidation(t *testing.T) {
	s := newState(t, aliceID)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	me, err := s.MEAttach(0, any, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	// Bad EQ handle.
	bad := types.Handle{Kind: types.KindEQ, Index: 99, Gen: 0}
	if _, err := s.MDAttach(me, MD{Start: make([]byte, 4), Threshold: 1, Options: types.MDOpPut, EQ: bad}, types.Retain); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("MDAttach with bad EQ = %v", err)
	}
	// Bad threshold.
	if _, err := s.MDAttach(me, MD{Start: make([]byte, 4), Threshold: -5, Options: types.MDOpPut}, types.Retain); !errors.Is(err, types.ErrInvalidArgument) {
		t.Errorf("MDAttach with bad threshold = %v", err)
	}
	// Stale ME.
	if err := s.MEUnlink(me); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MDAttach(me, MD{Start: make([]byte, 4), Threshold: 1, Options: types.MDOpPut}, types.Retain); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("MDAttach to stale ME = %v", err)
	}
}

func TestMDBindAndUnlink(t *testing.T) {
	s := newState(t, aliceID)
	md, err := s.MDBind(MD{Start: make([]byte, 8), Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MDUnlink(md); err != nil {
		t.Fatal(err)
	}
	if err := s.MDUnlink(md); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("double MDUnlink = %v", err)
	}
}

func TestMDUpdateRefusedWithPendingEvents(t *testing.T) {
	a, b, states := pair(t)
	eq, err := b.EQAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	me, err := b.MEAttach(0, any, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	md, err := b.MDAttach(me, MD{Start: buf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut, EQ: eq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	// Land a put so the EQ has a pending event.
	src, err := a.MDBind(MD{Start: []byte("hi"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(src, types.NoAckReq, bobID, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)

	if err := b.MDUpdate(md, MD{Start: buf, Threshold: 1, Options: types.MDOpPut, EQ: eq}, eq); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MDUpdate with pending events = %v, want ErrMDInUse", err)
	}
	if _, err := b.EQGet(eq); err != nil {
		t.Fatal(err)
	}
	if err := b.MDUpdate(md, MD{Start: buf, Threshold: 1, Options: types.MDOpPut, EQ: eq}, eq); err != nil {
		t.Errorf("MDUpdate after drain = %v", err)
	}
	th, _, err := b.MDStatus(md)
	if err != nil || th != 1 {
		t.Errorf("threshold after update = %d/%v, want 1", th, err)
	}
}

func TestEQAllocValidation(t *testing.T) {
	s := newState(t, aliceID)
	if _, err := s.EQAlloc(0); !errors.Is(err, types.ErrInvalidArgument) {
		t.Errorf("EQAlloc(0) = %v", err)
	}
	eq, err := s.EQAlloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EQFree(eq); err != nil {
		t.Fatal(err)
	}
	if err := s.EQFree(eq); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("double EQFree = %v", err)
	}
	if _, err := s.EQGet(eq); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("EQGet on freed queue = %v", err)
	}
}

func TestSlotExhaustion(t *testing.T) {
	s := checked(t, NewState(aliceID, types.Limits{MaxEQs: 2, MaxMEs: 2, MaxMDs: 2}, nil, nil))
	if _, err := s.EQAlloc(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EQAlloc(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EQAlloc(1); !errors.Is(err, types.ErrNoSpace) {
		t.Errorf("EQ table overflow = %v, want ErrNoSpace", err)
	}

	// A match entry or descriptor refused for want of a slot gives its
	// arena entry back, whichever call made it.
	me, err := s.MEAttach(0, anyID, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	attachME := func() error { _, err := s.MEAttach(0, anyID, 0, 0, types.Retain, types.After); return err }
	insertME := func() error { _, err := s.MEInsert(me, anyID, 0, 0, types.Retain, types.After); return err }
	bindMD := func() error { _, err := s.MDBind(MD{Start: make([]byte, 4)}, types.Retain); return err }
	attachMD := func() error { _, err := s.MDAttach(me, MD{Start: make([]byte, 4)}, types.Retain); return err }
	for _, fill := range []func() error{insertME, bindMD, attachMD} {
		if err := fill(); err != nil {
			t.Fatal(err)
		}
	}
	mes := s.meArena.Live()
	mds := s.mdArena.Live()
	for name, alloc := range map[string]func() error{"MEAttach": attachME, "MEInsert": insertME, "MDBind": bindMD, "MDAttach": attachMD} {
		if err := alloc(); !errors.Is(err, types.ErrNoSpace) {
			t.Errorf("%s on a full table = %v, want ErrNoSpace", name, err)
		}
		if m := s.meArena.Live(); m != mes {
			t.Errorf("%s refused, but the arena holds %d match entries, not %d", name, m, mes)
		}
		if d := s.mdArena.Live(); d != mds {
			t.Errorf("%s refused, but the arena holds %d descriptors, not %d", name, d, mds)
		}
	}
}

func TestSlotReuseBumpsGeneration(t *testing.T) {
	s := newState(t, aliceID)
	h1, err := s.EQAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EQFree(h1); err != nil {
		t.Fatal(err)
	}
	h2, err := s.EQAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Index != h1.Index {
		t.Fatalf("slot not reused: %v vs %v", h2, h1)
	}
	if h2.Gen == h1.Gen {
		t.Error("generation not bumped on reuse")
	}
	if _, err := s.EQGet(h1); !errors.Is(err, types.ErrInvalidHandle) {
		t.Error("stale handle accepted after slot reuse")
	}
}

func TestCloseFailsOperations(t *testing.T) {
	s := newState(t, aliceID)
	eq, err := s.EQAlloc(2)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	if _, err := s.MEAttach(0, any, 0, 0, types.Retain, types.After); !errors.Is(err, types.ErrClosed) {
		t.Errorf("MEAttach after close = %v", err)
	}
	if _, err := s.MDBind(MD{Start: nil, Threshold: 1}, types.Retain); !errors.Is(err, types.ErrClosed) {
		t.Errorf("MDBind after close = %v", err)
	}
	if _, err := s.EQAlloc(1); !errors.Is(err, types.ErrClosed) {
		t.Errorf("EQAlloc after close = %v", err)
	}
	if _, err := s.EQWait(eq); !errors.Is(err, types.ErrClosed) {
		t.Errorf("EQWait after close = %v", err)
	}
	s.Close() // idempotent
}

func TestStartPutThresholdExhausted(t *testing.T) {
	s := newState(t, aliceID)
	md, err := s.MDBind(MD{Start: make([]byte, 4), Threshold: 1}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.StartPut(md, types.NoAckReq, bobID, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recycle(out)
	if _, err := s.StartPut(md, types.NoAckReq, bobID, 0, 0, 0, 0); !errors.Is(err, types.ErrInvalidArgument) {
		t.Errorf("put on exhausted MD = %v", err)
	}
}

func TestStartGetPinsMD(t *testing.T) {
	a, b, states := pair(t)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	me, err := b.MEAttach(0, any, 0, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MDAttach(me, MD{Start: []byte("abcd"), Threshold: types.ThresholdInfinite, Options: types.MDOpGet}, types.Retain); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4)
	md, err := a.MDBind(MD{Start: dst, Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartGet(md, bobID, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pending reply: unlink must be refused (§4.7).
	if err := a.MDUnlink(md); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MDUnlink with pending get = %v, want ErrMDInUse", err)
	}
	deliver(t, []Outbound{out}, states)
	if string(dst) != "abcd" {
		t.Errorf("get data = %q, want abcd", dst)
	}
	if err := a.MDUnlink(md); err != nil {
		t.Errorf("MDUnlink after reply = %v", err)
	}
}
