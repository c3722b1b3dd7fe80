package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/wire"
)

// A put lends its body: until the fabric gives it back the descriptor is in
// use — MDUnlink and MDUpdate refuse with ErrMDInUse and no send event is
// posted — and the return completes the put: SEND, then, for a spent
// Threshold-1 Unlink descriptor, its UNLINK.
func TestLendHoldsTheDescriptorUntilReturned(t *testing.T) {
	a := newState(t, aliceID)
	eq, _ := a.EQAlloc(8)
	region := []byte("lent, not copied")
	md, err := a.MDBind(MD{Start: region, Threshold: 1, EQ: eq}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.LendPut(md, types.NoAckReq, bobID, 0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Msg) != wire.HeaderSize {
		t.Errorf("the put's message is %d bytes, want its %d-byte header alone", len(out.Msg), wire.HeaderSize)
	}
	body := out.TakeBody(nil)
	if !bytes.Equal(body.Bytes(), region) || &body.Bytes()[0] != &region[0] {
		t.Error("the body is not the descriptor's own memory")
	}
	if err := a.MDUnlink(md); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MDUnlink while lent = %v, want ErrMDInUse", err)
	}
	if err := a.MDUpdate(md, MD{Start: region, Threshold: 1, EQ: eq}, types.InvalidHandle); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MDUpdate while lent = %v, want ErrMDInUse", err)
	}
	if n, _ := a.EQPending(eq); n != 0 {
		t.Fatalf("%d events before the body came back, want none", n)
	}
	out.Recycle()
	body.Release()
	for _, want := range []types.EventType{types.EventSend, types.EventUnlink} {
		if ev, err := a.EQGet(eq); err != nil || ev.Type != want {
			t.Fatalf("event = %v/%v, want %v", ev.Type, err, want)
		}
	}
	if _, _, err := a.MDStatus(md); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("MDStatus after the return = %v, want the descriptor gone", err)
	}

	// A body still out fails the teardown check, once the grace for a late
	// return has passed.
	defer func(g time.Duration) { lentGrace = g }(lentGrace)
	lentGrace = 10 * time.Millisecond
	md, _ = a.MDBind(MD{Start: region, Threshold: 1}, types.Unlink)
	if out, err = a.LendPut(md, types.NoAckReq, bobID, 0, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckTeardown(); err == nil {
		t.Error("CheckTeardown passes a State with a body still lent")
	}
	out.Recycle()
}

// A segmented descriptor lends its segment list: a window of the body never
// spans two segments, and the joined message is the segments in order.
func TestLendSegmentsAndJoin(t *testing.T) {
	a, b, states := pair(t)
	landed := make([]byte, 10)
	postME(t, b, 0, 5, 0, landed, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	segs := [][]byte{[]byte("abc"), []byte("defg"), []byte("hij")}
	md, err := a.MDBind(MD{Segments: segs, Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.LendPut(md, types.NoAckReq, bobID, 0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := out.ln.body.Window(2, 8); string(w) != "c" {
		t.Errorf("window at 2 = %q, want the rest of the first segment", w)
	}
	if w := out.ln.body.Window(3, 2); string(w) != "de" {
		t.Errorf("window at 3 = %q, want two bytes of the second segment", w)
	}
	out.Recycle()
	out, err = a.StartPut(md, types.NoAckReq, bobID, 0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if string(landed) != "abcdefghij" {
		t.Errorf("target holds %q", landed)
	}
}
