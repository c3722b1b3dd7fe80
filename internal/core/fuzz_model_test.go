package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// Model-based fuzz of the Figure 4 translation algorithm: a randomized
// portal configuration receives a randomized put sequence, and every
// delivery (which entry, at what offset, how many bytes) plus every drop
// must match an independent straight-line model. The point is sequence
// behaviour — local offsets advancing, thresholds draining, unlink
// cascades — where single-shot unit tests have no reach.

type mMD struct {
	size      uint64
	offset    uint64 // locally-managed cursor
	threshold int32  // -1 = infinite
	truncate  bool
	remote    bool
	unlink    bool
	id        int
}

type mME struct {
	bits   types.MatchBits
	ignore types.MatchBits
	unlink bool
	mds    []*mMD
}

type mState struct {
	list []*mME
}

type mOutcome struct {
	delivered bool
	mdID      int
	offset    uint64
	mlength   uint64
}

// apply runs one put through the model and mutates it.
func (m *mState) apply(bits types.MatchBits, rlen, roff uint64) mOutcome {
	for mi := 0; mi < len(m.list); mi++ {
		me := m.list[mi]
		if (bits^me.bits)&^me.ignore != 0 {
			continue
		}
		if len(me.mds) == 0 {
			continue
		}
		d := me.mds[0]
		if d.threshold == 0 {
			continue
		}
		off := d.offset
		if d.remote {
			off = roff
		}
		var avail uint64
		if off < d.size {
			avail = d.size - off
		}
		mlen := rlen
		if rlen > avail {
			if !d.truncate {
				continue
			}
			mlen = avail
		}
		// Accepted: mutate state per Figure 4.
		if d.threshold > 0 {
			d.threshold--
		}
		if !d.remote {
			d.offset = off + mlen
		}
		if d.threshold == 0 && d.unlink {
			me.mds = me.mds[1:]
			if len(me.mds) == 0 && me.unlink {
				m.list = append(m.list[:mi], m.list[mi+1:]...)
			}
		}
		return mOutcome{delivered: true, mdID: d.id, offset: off, mlength: mlen}
	}
	return mOutcome{}
}

func TestFuzzTranslationModel(t *testing.T) {
	for _, seed := range []int64{2, 11, 99, 12345} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			fuzzTranslation(t, seed)
		})
	}
}

func fuzzTranslation(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := checked(t, NewState(bobID, types.Limits{MaxMEs: 128, MaxMDs: 256}, nil, nil))
	eq, err := st.EQAlloc(4096)
	if err != nil {
		t.Fatal(err)
	}

	model := &mState{}
	nextID := 0

	// Random configuration: up to 12 entries, 0–2 MDs each.
	numMEs := 3 + rng.Intn(10)
	for i := 0; i < numMEs; i++ {
		bits := types.MatchBits(rng.Intn(8))
		var ignore types.MatchBits
		if rng.Intn(3) == 0 {
			ignore = types.MatchBits(rng.Intn(8)) // partial wildcard
		}
		meUnlink := types.Retain
		mm := &mME{bits: bits, ignore: ignore}
		if rng.Intn(2) == 0 {
			meUnlink = types.Unlink
			mm.unlink = true
		}
		me, err := st.MEAttach(0, anyID, bits, ignore, meUnlink, types.After)
		if err != nil {
			t.Fatal(err)
		}
		for j := rng.Intn(3); j > 0; j-- {
			size := uint64(rng.Intn(64))
			threshold := int32(types.ThresholdInfinite)
			if rng.Intn(2) == 0 {
				threshold = int32(1 + rng.Intn(4))
			}
			opts := types.MDOpPut
			md := &mMD{size: size, threshold: threshold, id: nextID}
			nextID++
			if rng.Intn(2) == 0 {
				opts |= types.MDTruncate
				md.truncate = true
			}
			if rng.Intn(2) == 0 {
				opts |= types.MDManageRemote
				md.remote = true
			}
			mdUnlink := types.Retain
			if rng.Intn(2) == 0 {
				mdUnlink = types.Unlink
				md.unlink = true
			}
			if _, err := st.MDAttach(me, MD{
				Start: make([]byte, size), Threshold: threshold,
				Options: opts, EQ: eq, UserPtr: md.id,
			}, mdUnlink); err != nil {
				t.Fatal(err)
			}
			mm.mds = append(mm.mds, md)
		}
		model.list = append(model.list, mm)
	}

	// Random put sequence.
	var wantDrops int64
	for op := 0; op < 400; op++ {
		bits := types.MatchBits(rng.Intn(8))
		rlen := uint64(rng.Intn(48))
		roff := uint64(rng.Intn(48))
		want := model.apply(bits, rlen, roff)

		h := wire.NewPut(aliceID, bobID, 0, 0, bits, roff,
			types.Handle{Kind: types.KindMD, Index: 0, Gen: 0}, rlen, types.NoAckReq)
		payload := make([]byte, rlen)
		st.HandleIncoming(&h, payload)

		if !want.delivered {
			wantDrops++
			continue
		}
		// The delivery must be logged with exactly the model's outcome.
		var ev, evErr = st.EQGet(eq)
		for evErr == nil && ev.Type == types.EventUnlink {
			ev, evErr = st.EQGet(eq)
		}
		if evErr != nil && !errors.Is(evErr, types.ErrEQDropped) {
			t.Fatalf("op %d: model delivered to md %d but engine logged nothing (%v)",
				op, want.mdID, evErr)
		}
		if ev.Type != types.EventPut {
			t.Fatalf("op %d: event %v, want PUT", op, ev.Type)
		}
		gotID, _ := ev.UserPtr.(int)
		if gotID != want.mdID || ev.Offset != want.offset || ev.MLength != want.mlength {
			t.Fatalf("op %d (bits=%d rlen=%d roff=%d): engine md=%d off=%d mlen=%d, model md=%d off=%d mlen=%d",
				op, bits, rlen, roff, gotID, ev.Offset, ev.MLength,
				want.mdID, want.offset, want.mlength)
		}
	}
	if got := st.Counters().DroppedFor(types.DropNoMatch); got != wantDrops {
		t.Errorf("drops = %d, model predicts %d", got, wantDrops)
	}
	// No spurious leftover put events.
	for {
		ev, err := st.EQGet(eq)
		if err != nil {
			break
		}
		if ev.Type == types.EventPut {
			t.Fatalf("spurious delivery event: %+v", ev)
		}
	}
}
