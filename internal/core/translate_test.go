package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

var anyID = types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}

// postME is a helper attaching one ME+MD at a portal index.
func postME(t *testing.T, s *State, ptl types.PtlIndex, bits, ignore types.MatchBits,
	buf []byte, opts types.MDOptions, threshold int32, eq types.Handle,
	unlinkME, unlinkMD types.UnlinkOption) (types.Handle, types.Handle) {
	t.Helper()
	me, err := s.MEAttach(ptl, anyID, bits, ignore, unlinkME, types.After)
	if err != nil {
		t.Fatal(err)
	}
	md, err := s.MDAttach(me, MD{Start: buf, Threshold: threshold, Options: opts, EQ: eq}, unlinkMD)
	if err != nil {
		t.Fatal(err)
	}
	return me, md
}

func sendPut(t *testing.T, a *State, states map[types.ProcessID]*State, data []byte,
	bits types.MatchBits, offset uint64, ack types.AckRequest, eq types.Handle) types.Handle {
	t.Helper()
	md, err := a.MDBind(MD{Start: data, Threshold: 1, EQ: eq}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(md, ack, bobID, 0, 0, bits, offset)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	return md
}

func TestPutDeliversToMatchingEntry(t *testing.T) {
	a, b, states := pair(t)
	eq, _ := b.EQAlloc(8)
	buf := make([]byte, 16)
	postME(t, b, 0, 42, 0, buf, types.MDOpPut, types.ThresholdInfinite, eq, types.Retain, types.Retain)

	sendPut(t, a, states, []byte("hello"), 42, 0, types.NoAckReq, types.InvalidHandle)

	if !bytes.Equal(buf[:5], []byte("hello")) {
		t.Errorf("buffer = %q", buf[:5])
	}
	ev, err := b.EQGet(eq)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != types.EventPut || ev.MLength != 5 || ev.RLength != 5 || ev.Initiator != aliceID || ev.MatchBits != 42 {
		t.Errorf("event = %+v", ev)
	}
}

func TestPutNoMatchDropped(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	postME(t, b, 0, 42, 0, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	sendPut(t, a, states, []byte("x"), 43, 0, types.NoAckReq, types.InvalidHandle)

	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("no-match drops = %d, want 1", n)
	}
	if buf[0] != 0 {
		t.Error("data written despite mismatch")
	}
}

func TestIgnoreBitsWidenMatch(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	// Must-match high nibble 0xA0, ignore low nibble entirely.
	postME(t, b, 0, 0xA0, 0x0F, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	sendPut(t, a, states, []byte("y"), 0xA7, 0, types.NoAckReq, types.InvalidHandle)
	if buf[0] != 'y' {
		t.Error("ignored bits prevented match")
	}
	sendPut(t, a, states, []byte("z"), 0xB7, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("must-match bits not enforced: drops = %d", n)
	}
}

func TestMatchIDRestriction(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	me, err := b.MEAttach(0, types.ProcessID{NID: 99, PID: 99}, 0, ^types.MatchBits(0), types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MDAttach(me, MD{Start: buf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut}, types.Retain); err != nil {
		t.Fatal(err)
	}
	sendPut(t, a, states, []byte("n"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("initiator restriction not enforced: drops = %d", n)
	}
}

func TestFirstMatchWins(t *testing.T) {
	a, b, states := pair(t)
	buf1 := make([]byte, 8)
	buf2 := make([]byte, 8)
	postME(t, b, 0, 7, 0, buf1, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	postME(t, b, 0, 7, 0, buf2, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("1st"), 7, 0, types.NoAckReq, types.InvalidHandle)
	if buf1[0] != '1' || buf2[0] != 0 {
		t.Errorf("first matching entry not preferred: %q %q", buf1[:3], buf2[:3])
	}
}

// Figure 4: if the first MD rejects, translation moves to the NEXT MATCH
// ENTRY — not to the second MD of the same entry.
func TestRejectionSkipsToNextEntryNotNextMD(t *testing.T) {
	a, b, states := pair(t)
	eq, _ := b.EQAlloc(8)
	me1, err := b.MEAttach(0, anyID, 7, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	// First MD of me1 rejects (get-only); second MD of me1 would accept
	// but must never be considered.
	secondBuf := make([]byte, 8)
	if _, err := b.MDAttach(me1, MD{Start: make([]byte, 8), Threshold: types.ThresholdInfinite, Options: types.MDOpGet}, types.Retain); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MDAttach(me1, MD{Start: secondBuf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut}, types.Retain); err != nil {
		t.Fatal(err)
	}
	// Next entry accepts.
	nextBuf := make([]byte, 8)
	postME(t, b, 0, 7, 0, nextBuf, types.MDOpPut, types.ThresholdInfinite, eq, types.Retain, types.Retain)

	sendPut(t, a, states, []byte("go"), 7, 0, types.NoAckReq, types.InvalidHandle)
	if secondBuf[0] != 0 {
		t.Error("second MD of rejecting entry was used")
	}
	if nextBuf[0] != 'g' {
		t.Error("next match entry was not used")
	}
}

func TestEmptyMDListEntrySkipped(t *testing.T) {
	a, b, states := pair(t)
	if _, err := b.MEAttach(0, anyID, 7, 0, types.Retain, types.After); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	postME(t, b, 0, 7, 0, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("k"), 7, 0, types.NoAckReq, types.InvalidHandle)
	if buf[0] != 'k' {
		t.Error("entry with empty MD list was not skipped")
	}
}

func TestTruncateOption(t *testing.T) {
	a, b, states := pair(t)
	eq, _ := b.EQAlloc(8)
	small := make([]byte, 4)
	postME(t, b, 0, 1, 0, small, types.MDOpPut|types.MDTruncate, types.ThresholdInfinite, eq, types.Retain, types.Retain)

	sendPut(t, a, states, []byte("truncated!"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if !bytes.Equal(small, []byte("trun")) {
		t.Errorf("truncated data = %q", small)
	}
	ev, err := b.EQGet(eq)
	if err != nil {
		t.Fatal(err)
	}
	if ev.RLength != 10 || ev.MLength != 4 {
		t.Errorf("rlength/mlength = %d/%d, want 10/4", ev.RLength, ev.MLength)
	}
}

func TestTooLongWithoutTruncateRejected(t *testing.T) {
	a, b, states := pair(t)
	small := make([]byte, 4)
	postME(t, b, 0, 1, 0, small, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("too long data"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("oversized put not rejected: drops = %d", n)
	}
}

func TestRemoteManagedOffset(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut|types.MDManageRemote, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("abc"), 1, 8, types.NoAckReq, types.InvalidHandle)
	if !bytes.Equal(buf[8:11], []byte("abc")) {
		t.Errorf("offset write missed: %q", buf)
	}
	// Offset beyond region without truncate → reject.
	sendPut(t, a, states, []byte("abc"), 1, 20, types.NoAckReq, types.InvalidHandle)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("out-of-bounds offset accepted: drops = %d", n)
	}
}

func TestLocallyManagedOffsetAppends(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("aa"), 1, 0, types.NoAckReq, types.InvalidHandle)
	sendPut(t, a, states, []byte("bb"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if !bytes.Equal(buf[:4], []byte("aabb")) {
		t.Errorf("local offset did not append: %q", buf[:4])
	}
}

func TestThresholdConsumptionAndAutoUnlink(t *testing.T) {
	a, b, states := pair(t)
	eq, _ := b.EQAlloc(8)
	buf := make([]byte, 16)
	_, md := postME(t, b, 0, 1, 0, buf, types.MDOpPut, 2, eq, types.Retain, types.Unlink)

	sendPut(t, a, states, []byte("x"), 1, 0, types.NoAckReq, types.InvalidHandle)
	th, _, err := b.MDStatus(md)
	if err != nil || th != 1 {
		t.Fatalf("threshold = %d/%v, want 1", th, err)
	}
	sendPut(t, a, states, []byte("y"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if _, _, err := b.MDStatus(md); !errors.Is(err, types.ErrInvalidHandle) {
		t.Errorf("MD not auto-unlinked: %v", err)
	}
	// Events: PUT, PUT, UNLINK.
	var kinds []types.EventType
	for {
		ev, err := b.EQGet(eq)
		if err != nil {
			break
		}
		kinds = append(kinds, ev.Type)
	}
	want := []types.EventType{types.EventPut, types.EventPut, types.EventUnlink}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	// A third put now finds no entry.
	sendPut(t, a, states, []byte("z"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("drops = %d, want 1", n)
	}
}

// Figure 4 cascade: unlinking the last MD unlinks the ME when requested.
func TestMEUnlinkCascade(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, 1, types.InvalidHandle, types.Unlink, types.Unlink)
	if n := b.MatchListLen(0); n != 1 {
		t.Fatalf("list len = %d", n)
	}
	sendPut(t, a, states, []byte("x"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.MatchListLen(0); n != 0 {
		t.Errorf("ME not unlinked with its last MD: len = %d", n)
	}
}

func TestMERetainedWhenMDListEmptiesWithoutFlag(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, 1, types.InvalidHandle, types.Retain, types.Unlink)
	sendPut(t, a, states, []byte("x"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.MatchListLen(0); n != 1 {
		t.Errorf("ME with Retain was unlinked: len = %d", n)
	}
}

func TestInactiveRetainedMDRejects(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 16)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, 1, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("x"), 1, 0, types.NoAckReq, types.InvalidHandle)
	sendPut(t, a, states, []byte("y"), 1, 0, types.NoAckReq, types.InvalidHandle)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("inactive MD accepted an operation: drops = %d", n)
	}
	if buf[1] == 'y' {
		t.Error("inactive MD overwrote data")
	}
}

func TestPutAckRoundTrip(t *testing.T) {
	a, b, states := pair(t)
	aeq, _ := a.EQAlloc(8)
	buf := make([]byte, 8)
	postME(t, b, 0, 5, 0, buf, types.MDOpPut|types.MDTruncate, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	md, err := a.MDBind(MD{Start: []byte("0123456789"), Threshold: types.ThresholdInfinite, EQ: aeq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(md, types.AckReq, bobID, 0, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)

	// Initiator sees SEND then ACK.
	ev1, err := a.EQGet(aeq)
	if err != nil || ev1.Type != types.EventSend {
		t.Fatalf("first event = %v/%v, want SEND", ev1.Type, err)
	}
	ev2, err := a.EQGet(aeq)
	if err != nil || ev2.Type != types.EventAck {
		t.Fatalf("second event = %v/%v, want ACK", ev2.Type, err)
	}
	if ev2.MLength != 8 || ev2.RLength != 10 {
		t.Errorf("ack lengths = %d/%d, want mlength 8 (truncated) rlength 10", ev2.MLength, ev2.RLength)
	}
	if s := b.Counters().Snapshot(); s.Acks != 1 {
		t.Errorf("target ack count = %d", s.Acks)
	}
}

func TestMDAckDisableSuppressesAck(t *testing.T) {
	a, b, states := pair(t)
	aeq, _ := a.EQAlloc(8)
	buf := make([]byte, 8)
	postME(t, b, 0, 5, 0, buf, types.MDOpPut|types.MDAckDisable, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	sendPut(t, a, states, []byte("hi"), 5, 0, types.AckReq, aeq)

	ev, err := a.EQGet(aeq)
	if err != nil || ev.Type != types.EventSend {
		t.Fatalf("event = %v/%v", ev.Type, err)
	}
	// The threshold-1 send MD auto-unlinks; after that the queue must stay
	// silent — no ack event.
	ev, err = a.EQGet(aeq)
	if err != nil || ev.Type != types.EventUnlink {
		t.Fatalf("event = %v/%v, want UNLINK", ev.Type, err)
	}
	if _, err := a.EQGet(aeq); !errors.Is(err, types.ErrEQEmpty) {
		t.Error("ack event posted despite MDAckDisable")
	}
}

func TestGetReplyRoundTrip(t *testing.T) {
	a, b, states := pair(t)
	aeq, _ := a.EQAlloc(8)
	beq, _ := b.EQAlloc(8)
	postME(t, b, 3, 9, 0, []byte("serverdata"), types.MDOpGet|types.MDManageRemote, types.ThresholdInfinite, beq, types.Retain, types.Retain)

	dst := make([]byte, 6)
	md, err := a.MDBind(MD{Start: dst, Threshold: types.ThresholdInfinite, EQ: aeq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartGet(md, bobID, 3, 0, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)

	if string(dst) != "erdata"[0:6] {
		t.Errorf("get data = %q, want %q", dst, "erdata")
	}
	ev, err := a.EQGet(aeq)
	if err != nil || ev.Type != types.EventReply {
		t.Fatalf("initiator event = %v/%v, want REPLY", ev.Type, err)
	}
	if ev.MLength != 6 {
		t.Errorf("reply mlength = %d, want 6", ev.MLength)
	}
	tev, err := b.EQGet(beq)
	if err != nil || tev.Type != types.EventGet {
		t.Fatalf("target event = %v/%v, want GET", tev.Type, err)
	}
	if s := b.Counters().Snapshot(); s.Replies != 1 {
		t.Errorf("replies = %d", s.Replies)
	}
}

// §4.8: "every memory descriptor accepts and truncates incoming reply
// messages" — a reply longer than the local MD is truncated, not dropped.
func TestReplyTruncatesToLocalMD(t *testing.T) {
	a, b, states := pair(t)
	postME(t, b, 0, 9, 0, []byte("0123456789"), types.MDOpGet|types.MDManageRemote|types.MDTruncate, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	dst := make([]byte, 10)
	md, err := a.MDBind(MD{Start: dst, Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartGet(md, bobID, 0, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the local MD after the request is on the wire.
	if err := a.MDUpdate(md, MD{Start: dst[:3], Threshold: types.ThresholdInfinite}, types.InvalidHandle); err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if !bytes.Equal(dst[:3], []byte("012")) || dst[3] != 0 {
		t.Errorf("reply not truncated to local MD: %q", dst)
	}
}

func TestGetWithoutGetOptionRejected(t *testing.T) {
	a, b, states := pair(t)
	postME(t, b, 0, 9, 0, []byte("data"), types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	dst := make([]byte, 4)
	md, err := a.MDBind(MD{Start: dst, Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartGet(md, bobID, 0, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("get into put-only MD accepted: drops = %d", n)
	}
}

func TestBadPortalIndexDrop(t *testing.T) {
	a, b, states := pair(t)
	data := []byte("x")
	md, err := a.MDBind(MD{Start: data, Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(md, types.NoAckReq, bobID, types.PtlIndex(b.Limits().MaxPtlIndex)+1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if n := b.Counters().DroppedFor(types.DropBadPortal); n != 1 {
		t.Errorf("bad-portal drops = %d, want 1", n)
	}
}

func TestACLDropReasons(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 8)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	// Lock ACL entry 2 to a specific foreign process and portal 5.
	if err := b.ACL().Set(2, types.ProcessID{NID: 77, PID: 88}, 5); err != nil {
		t.Fatal(err)
	}

	send := func(cookie types.ACIndex, ptl types.PtlIndex) {
		md, err := a.MDBind(MD{Start: []byte("x"), Threshold: 1}, types.Unlink)
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.StartPut(md, types.NoAckReq, bobID, ptl, cookie, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		deliver(t, []Outbound{out}, states)
	}

	send(9, 0) // invalid cookie
	if n := b.Counters().DroppedFor(types.DropBadCookie); n != 1 {
		t.Errorf("bad-cookie drops = %d, want 1", n)
	}
	send(2, 0) // entry names a different process
	if n := b.Counters().DroppedFor(types.DropACProcess); n != 1 {
		t.Errorf("acl-process drops = %d, want 1", n)
	}
	// Entry admits alice on portal 5 only; request portal 0 → portal mismatch.
	if err := b.ACL().Set(2, aliceID, 5); err != nil {
		t.Fatal(err)
	}
	send(2, 0)
	if n := b.Counters().DroppedFor(types.DropACPortal); n != 1 {
		t.Errorf("acl-portal drops = %d, want 1", n)
	}
	// Correct cookie and portal — but no ME on portal 5 accepts, so the
	// request passes the ACL and drops at matching instead.
	send(2, 5)
	if n := b.Counters().DroppedFor(types.DropNoMatch); n != 1 {
		t.Errorf("no-match drops = %d, want 1", n)
	}
	if buf[0] != 0 {
		t.Error("rejected requests modified memory")
	}
}

func TestAckToVanishedMDDropped(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 8)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	// Threshold-1 Unlink MD: it vanishes as soon as the put is started,
	// before the ack can come back.
	md, err := a.MDBind(MD{Start: []byte("q"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(md, types.AckReq, bobID, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if n := a.Counters().DroppedFor(types.DropEQGone); n != 1 {
		t.Errorf("ack-to-gone-MD drops = %d, want 1", n)
	}
}

func TestAckToMDWithoutEQDropped(t *testing.T) {
	a, b, states := pair(t)
	buf := make([]byte, 8)
	postME(t, b, 0, 1, 0, buf, types.MDOpPut, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)
	md, err := a.MDBind(MD{Start: []byte("q"), Threshold: types.ThresholdInfinite}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(md, types.AckReq, bobID, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if n := a.Counters().DroppedFor(types.DropEQGone); n != 1 {
		t.Errorf("ack-without-EQ drops = %d, want 1", n)
	}
}

func TestReplyToVanishedMDDropped(t *testing.T) {
	a, b, _ := pair(t)
	// Forge a reply naming a never-allocated MD handle.
	h := wire.ReplyFor(&wire.Header{
		Op: wire.OpGet, Initiator: aliceID, Target: bobID,
		MD: types.Handle{Kind: types.KindMD, Index: 3, Gen: 4}, RLength: 4,
	}, 4)
	msg := wire.EncodeMessage(&h, []byte("data"))
	hdr, payload, err := wire.DecodeMessage(msg)
	if err != nil {
		t.Fatal(err)
	}
	a.HandleIncoming(&hdr, payload)
	if n := a.Counters().DroppedFor(types.DropMDGone); n != 1 {
		t.Errorf("reply-to-gone-MD drops = %d, want 1", n)
	}
	_ = b
}

func TestReplyToFullEQDropped(t *testing.T) {
	a, b, states := pair(t)
	postME(t, b, 0, 9, 0, []byte("abcd"), types.MDOpGet|types.MDManageRemote, types.ThresholdInfinite, types.InvalidHandle, types.Retain, types.Retain)

	aeq, err := a.EQAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4)
	md, err := a.MDBind(MD{Start: dst, Threshold: types.ThresholdInfinite, EQ: aeq}, types.Retain)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the EQ so the reply finds no space.
	out1, err := a.StartGet(md, bobID, 0, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out1}, states) // EQ now holds the REPLY event (full)
	out2, err := a.StartGet(md, bobID, 0, 0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out2}, states)
	if n := a.Counters().DroppedFor(types.DropEQFull); n != 1 {
		t.Errorf("reply-to-full-EQ drops = %d, want 1", n)
	}
	// The get is over once its reply has been judged: the drop must not
	// leave the descriptor pinned.
	if _, err := a.EQGet(aeq); err != nil {
		t.Fatal(err)
	}
	if err := a.MDUnlink(md); err != nil {
		t.Errorf("MDUnlink after the dropped reply = %v, want nil", err)
	}
}

func TestUserPtrFlowsThroughEvents(t *testing.T) {
	a, b, states := pair(t)
	eq, _ := b.EQAlloc(4)
	buf := make([]byte, 8)
	me, err := b.MEAttach(0, anyID, 1, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	type tag struct{ n int }
	marker := &tag{n: 42}
	if _, err := b.MDAttach(me, MD{Start: buf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut, EQ: eq, UserPtr: marker}, types.Retain); err != nil {
		t.Fatal(err)
	}
	sendPut(t, a, states, []byte("x"), 1, 0, types.NoAckReq, types.InvalidHandle)
	ev, err := b.EQGet(eq)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := ev.UserPtr.(*tag); !ok || got.n != 42 {
		t.Errorf("UserPtr = %#v", ev.UserPtr)
	}
}

func TestSelfPut(t *testing.T) {
	// A process can put to itself; the engine handles its own messages.
	a := newState(t, aliceID)
	states := map[types.ProcessID]*State{aliceID: a}
	buf := make([]byte, 8)
	me, err := a.MEAttach(0, anyID, 1, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MDAttach(me, MD{Start: buf, Threshold: types.ThresholdInfinite, Options: types.MDOpPut}, types.Retain); err != nil {
		t.Fatal(err)
	}
	md, err := a.MDBind(MD{Start: []byte("self"), Threshold: 1}, types.Unlink)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.StartPut(md, types.NoAckReq, aliceID, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(t, []Outbound{out}, states)
	if !bytes.Equal(buf[:4], []byte("self")) {
		t.Errorf("self put = %q", buf[:4])
	}
}

// TestHandleIncomingHugeHandleIndex is the regression test for the
// slot-table chunk-bound overflow: a peer controls Header.MD verbatim, and
// an index in the top 16 values of the uint32 space (0xFFFFFFF0 and up)
// used to map one chunk past the rcu table's chunk array and panic the
// whole process on the delivery path. It must be a clean drop instead.
func TestHandleIncomingHugeHandleIndex(t *testing.T) {
	s := newState(t, aliceID)
	for _, idx := range []uint32{0xFFFFFFF0, 0xFFFFFFFF} {
		for _, op := range []wire.Op{wire.OpAck, wire.OpReply} {
			h := wire.Header{
				Op:        op,
				Initiator: bobID,
				Target:    aliceID,
				MD:        types.Handle{Kind: types.KindMD, Index: idx, Gen: 3},
			}
			if out := s.HandleIncoming(&h, nil); len(out) != 0 {
				t.Fatalf("%v with MD index %#x produced %d outbound messages", op, idx, len(out))
			}
		}
	}
	if n := s.Counters().Dropped(); n != 4 {
		t.Fatalf("drops = %d, want 4 (one per crafted message)", n)
	}
}
