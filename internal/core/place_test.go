package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// window posts the persistent one-sided window placement is for.
func window(t *testing.T, s *State, buf []byte, extra types.MDOptions, eq types.Handle) (me, md types.Handle) {
	t.Helper()
	return postME(t, s, 0, 7, 0, buf, types.MDOpPut|types.MDManageRemote|extra, types.ThresholdInfinite, eq, types.Retain, types.Retain)
}

func putHeader(rlen, offset uint64, ack types.AckRequest) wire.Header {
	h := wire.NewPut(aliceID, bobID, 0, 0, 7, offset, types.Handle{Kind: types.KindMD, Index: 1, Gen: 1}, rlen, ack)
	h.Seq = 99
	return h
}

// A put into a window lands fragment by fragment and commits like a whole
// message: same bytes, same event, same ack.
func TestPlacedPutMatchesWholeDelivery(t *testing.T) {
	payload := []byte("0123456789abcdefghij")
	for _, tc := range []struct {
		name    string
		size    int
		extra   types.MDOptions
		offset  uint64
		mlength uint64
	}{
		{"fits", 64, 0, 8, 20},
		{"truncated", 16, types.MDTruncate, 4, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, b, _ := pair(t)
			eq, _ := b.EQAlloc(8)
			whole, placed := make([]byte, tc.size), make([]byte, tc.size)
			window(t, b, whole, tc.extra, eq)
			h := putHeader(uint64(len(payload)), tc.offset, types.AckReq)
			wantOut := b.HandleIncoming(&h, payload)
			wantEv, err := b.EQGet(eq)
			if err != nil {
				t.Fatal(err)
			}

			_, c, _ := pair(t)
			ceq, _ := c.EQAlloc(8)
			window(t, c, placed, tc.extra, ceq)
			var pl Placement
			if v := c.Resolve(&h, &pl); v != Place {
				t.Fatalf("Resolve = %v, want Place", v)
			}
			if n, _ := c.EQPending(ceq); n != 0 {
				t.Fatal("an event was posted before commit")
			}
			for off := 0; off < len(payload); off += 7 { // odd fragments, the last one clipped
				pl.WriteAt(uint64(off), payload[off:min(off+7, len(payload))])
			}
			gotOut := c.Commit(&pl, nil)
			gotEv, err := c.EQGet(ceq)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(placed, whole) {
				t.Errorf("placed bytes %q, whole delivery %q", placed, whole)
			}
			wantEv.MD, gotEv.MD = types.Handle{}, types.Handle{} // two states, two handles
			if gotEv != wantEv || gotEv.MLength != tc.mlength {
				t.Errorf("event %+v, whole delivery posted %+v", gotEv, wantEv)
			}
			if len(gotOut) != 1 || len(wantOut) != 1 || !bytes.Equal(gotOut[0].Msg, wantOut[0].Msg) {
				t.Errorf("ack differs from the whole delivery's")
			}
			if got, want := c.Counters().Snapshot(), b.Counters().Snapshot(); got.RecvBytes != want.RecvBytes || got.RecvMsgs != want.RecvMsgs || got.Acks != want.Acks {
				t.Errorf("counters %+v, whole delivery %+v", got, want)
			}
		})
	}
}

// Only the persistent window is placed; everything a later match could
// observe changing answers Buffer, and a put nothing accepts is dropped on
// its header, once, with the reason the whole message would have had.
func TestResolveEligibility(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      types.MDOptions
		threshold int32
		bits      types.MatchBits
		ptl       types.PtlIndex
		want      Verdict
		drop      types.DropReason
	}{
		{name: "window", opts: types.MDOpPut | types.MDManageRemote, threshold: types.ThresholdInfinite, bits: 7, want: Place},
		{name: "counted threshold", opts: types.MDOpPut | types.MDManageRemote, threshold: 3, bits: 7, want: Buffer},
		{name: "locally managed offset", opts: types.MDOpPut, threshold: types.ThresholdInfinite, bits: 7, want: Buffer},
		{name: "accumulate", opts: types.MDOpPut | types.MDManageRemote | types.MDAccumulate, threshold: types.ThresholdInfinite, bits: 7, want: Buffer},
		{name: "no match", opts: types.MDOpPut | types.MDManageRemote, threshold: types.ThresholdInfinite, bits: 8, want: Discard, drop: types.DropNoMatch},
		{name: "too long, no truncate", opts: types.MDOpPut | types.MDManageRemote, threshold: types.ThresholdInfinite, bits: 7, want: Discard, drop: types.DropNoMatch},
		{name: "bad portal", opts: types.MDOpPut | types.MDManageRemote, threshold: types.ThresholdInfinite, bits: 7, ptl: 9999, want: Discard, drop: types.DropBadPortal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, b, _ := pair(t)
			_, md := postME(t, b, 0, 7, 0, make([]byte, 64), tc.opts, tc.threshold, types.InvalidHandle, types.Retain, types.Retain)
			rlen := uint64(32)
			if tc.name == "too long, no truncate" {
				rlen = 65
			}
			h := putHeader(rlen, 0, types.NoAckReq)
			h.MatchBits, h.PtlIndex = tc.bits, tc.ptl
			var pl Placement
			if got := b.Resolve(&h, &pl); got != tc.want {
				t.Fatalf("Resolve = %v, want %v", got, tc.want)
			}
			if got := b.Counters().Dropped(); (tc.drop != types.DropNone) != (got == 1) || b.Counters().DroppedFor(tc.drop) != got {
				t.Errorf("drops = %d (%d for %v)", got, b.Counters().DroppedFor(tc.drop), tc.drop)
			}
			if tc.want == Place {
				b.Abort(&pl)
			}
			// Whatever the verdict, nothing is left behind on the descriptor.
			if th, _, err := b.MDStatus(md); err != nil || th != tc.threshold {
				t.Errorf("threshold after resolve = %d (%v), want %d untouched", th, err, tc.threshold)
			}
			if err := b.MDUnlink(md); err != nil {
				t.Errorf("MDUnlink after resolve = %v", err)
			}
		})
	}
}

// Between resolve and commit the descriptor is pinned: unlinking it, its
// match entry, or updating it answers ErrMDInUse — and an atomic delivery
// into the same window still goes through. Abort unpins it, posts nothing,
// and counts one drop.
func TestLandingPinsTheDescriptor(t *testing.T) {
	_, b, _ := pair(t)
	eq, _ := b.EQAlloc(8)
	buf := make([]byte, 64)
	me, md := window(t, b, buf, 0, eq)
	h := putHeader(16, 0, types.AckReq)
	var pl Placement
	if v := b.Resolve(&h, &pl); v != Place {
		t.Fatalf("Resolve = %v", v)
	}
	pl.WriteAt(0, []byte("partial!"))
	if err := b.MDUnlink(md); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MDUnlink while landing = %v, want ErrMDInUse", err)
	}
	if err := b.MEUnlink(me); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MEUnlink while landing = %v, want ErrMDInUse", err)
	}
	if err := b.MDUpdate(md, MD{Start: buf[:8], Threshold: types.ThresholdInfinite, Options: types.MDOpPut}, types.InvalidHandle); !errors.Is(err, types.ErrMDInUse) {
		t.Errorf("MDUpdate while landing = %v, want ErrMDInUse", err)
	}
	other := putHeader(4, 32, types.NoAckReq)
	b.HandleIncoming(&other, []byte("atom"))
	if ev, err := b.EQGet(eq); err != nil || ev.Offset != 32 || string(buf[32:36]) != "atom" {
		t.Errorf("atomic delivery beside a landing: event %+v, %v", ev, err)
	}

	b.Abort(&pl)
	if n, _ := b.EQPending(eq); n != 0 {
		t.Error("an aborted placement posted an event")
	}
	if got := b.Counters().DroppedFor(types.DropAborted); got != 1 || b.Counters().Dropped() != 1 {
		t.Errorf("aborted drops = %d of %d, want 1 of 1", got, b.Counters().Dropped())
	}
	if err := b.MEUnlink(me); err != nil {
		t.Errorf("MEUnlink after the abort = %v", err)
	}
}

// A reply is placed when a get is waiting for it. The placement's own count
// keeps the descriptor through a forged duplicate handled atomically in the
// meantime; commit ends the get, and an unlink-when-spent descriptor goes
// then, not before.
func TestPlacedReply(t *testing.T) {
	a, b, states := pair(t)
	src := []byte("0123456789")
	postME(t, b, 0, 9, 0, src, types.MDOpGet|types.MDManageRemote, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	eq, _ := a.EQAlloc(8)
	dst := make([]byte, 6) // shorter than the reply: truncated
	md, err := a.MDBind(MD{Start: dst, Threshold: 1, EQ: eq}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}

	stray := wire.ReplyFor(&wire.Header{Op: wire.OpGet, Initiator: aliceID, Target: bobID, MD: md, RLength: 10}, 10)
	var pl Placement
	if v := a.Resolve(&stray, &pl); v != Buffer {
		t.Fatalf("Resolve of a reply nobody asked for = %v, want Buffer", v)
	}

	get, err := a.StartGet(md, bobID, 0, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	gh, _, _ := wire.DecodeMessage(get.Msg)
	replies := states[bobID].HandleIncoming(&gh, nil)
	rh, payload, err := wire.DecodeMessage(replies[0].Msg)
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Resolve(&rh, &pl); v != Place {
		t.Fatalf("Resolve = %v, want Place", v)
	}
	pl.WriteAt(0, payload[:4])
	// A forged duplicate, delivered whole while the real one is landing: it
	// is judged like any reply (and ends the get), but the record stays.
	a.HandleIncoming(&rh, payload)
	if err := a.MDUnlink(md); !errors.Is(err, types.ErrMDInUse) {
		t.Fatalf("MDUnlink while the reply is landing = %v, want ErrMDInUse", err)
	}
	pl.WriteAt(4, payload[4:])
	a.Commit(&pl, nil)
	if string(dst) != "012345" {
		t.Errorf("reply landed as %q", dst)
	}
	var seen []types.EventType
	for {
		ev, err := a.EQGet(eq)
		if err != nil {
			break
		}
		seen = append(seen, ev.Type)
		if ev.Type == types.EventReply && ev.MLength != 6 {
			t.Errorf("reply event mlength %d, want 6", ev.MLength)
		}
	}
	want := []types.EventType{types.EventReply, types.EventReply, types.EventUnlink}
	if len(seen) != len(want) {
		t.Fatalf("events %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("events %v, want %v", seen, want)
		}
	}
	if _, _, err := a.MDStatus(md); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("the spent descriptor is still there after commit: %v", err)
	}
}

// The §4.8 queue rule is applied to a placed reply at commit: its bytes are
// in, the reply still counts as dropped, and the get is over all the same.
func TestPlacedReplyToFullEQ(t *testing.T) {
	a, _, _ := pair(t)
	eq, _ := a.EQAlloc(1)
	md, err := a.MDBind(MD{Start: make([]byte, 4), Threshold: types.ThresholdInfinite, EQ: eq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the first reply fills the queue
		if _, err := a.StartGet(md, bobID, 0, 0, 9, 0); err != nil {
			t.Fatal(err)
		}
		rh := wire.ReplyFor(&wire.Header{Op: wire.OpGet, Initiator: aliceID, Target: bobID, MD: md, RLength: 4}, 4)
		var pl Placement
		if v := a.Resolve(&rh, &pl); v != Place {
			t.Fatalf("Resolve = %v", v)
		}
		pl.WriteAt(0, []byte("data"))
		a.Commit(&pl, nil)
	}
	if n := a.Counters().DroppedFor(types.DropEQFull); n != 1 {
		t.Errorf("event-queue-full drops = %d, want 1", n)
	}
	if err := a.MDUnlink(md); err != nil {
		t.Errorf("MDUnlink after both replies were judged = %v", err)
	}
}

// Scattered descriptors take fragments at any cut.
func TestPlacedPutIntoSegments(t *testing.T) {
	_, b, _ := pair(t)
	segs := [][]byte{make([]byte, 5), make([]byte, 1), make([]byte, 10)}
	me, err := b.MEAttach(0, anyID, 7, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MDAttach(me, MD{Segments: segs, Threshold: types.ThresholdInfinite, Options: types.MDOpPut | types.MDManageRemote}, types.Retain); err != nil {
		t.Fatal(err)
	}
	payload := []byte("abcdefghijkl")
	h := putHeader(uint64(len(payload)), 2, types.NoAckReq)
	var pl Placement
	if v := b.Resolve(&h, &pl); v != Place {
		t.Fatalf("Resolve = %v", v)
	}
	for off := 0; off < len(payload); off += 5 {
		pl.WriteAt(uint64(off), payload[off:min(off+5, len(payload))])
	}
	b.Commit(&pl, nil)
	if got := string(segs[0]) + string(segs[1]) + string(segs[2]); got != "\x00\x00abcdefghijkl\x00\x00" {
		t.Errorf("segments hold %q", got)
	}
}
