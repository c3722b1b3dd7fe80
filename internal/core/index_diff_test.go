package core

// Differential tests for the match index (index.go): under randomized
// attach/insert/unlink/receive interleavings, the indexed translate must
// return exactly what the retained linear reference walk returns, and the
// portal's list/index structures must stay mutually coherent.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// checkIndexCoherent verifies the portal invariants: the linked list is
// well-formed with strictly increasing seq keys, every entry appears in
// exactly the bucket classify assigns it, buckets are seq-sorted, and the
// counts line up.
func checkIndexCoherent(t *testing.T, p *portal) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()

	inList := make(map[*matchEntry]bool)
	n := 0
	var prev *matchEntry
	for me := p.head; me != nil; me = me.next {
		if me.prev != prev {
			t.Fatalf("entry %d: prev pointer broken", n)
		}
		if prev != nil && me.seq <= prev.seq {
			t.Fatalf("entry %d: seq %d not increasing (prev %d)", n, me.seq, prev.seq)
		}
		if me.unlinked {
			t.Fatalf("entry %d: unlinked entry still in list", n)
		}
		inList[me] = true
		prev = me
		n++
	}
	if p.tail != prev {
		t.Fatalf("tail pointer broken")
	}
	if n != p.count {
		t.Fatalf("list length %d != count %d", n, p.count)
	}

	indexed := 0
	checkBucket := func(name string, b []*matchEntry, class int) {
		for i, me := range b {
			if !inList[me] {
				t.Fatalf("%s bucket holds entry not in list", name)
			}
			if classify(me) != class {
				t.Fatalf("%s bucket holds entry of class %d", name, classify(me))
			}
			if i > 0 && b[i-1].seq >= me.seq {
				t.Fatalf("%s bucket not seq-sorted", name)
			}
			indexed++
		}
	}
	for k, b := range p.exact {
		if len(b) == 0 {
			t.Fatalf("empty exact bucket %v left behind", k)
		}
		checkBucket("exact", b, idxExact)
		for _, me := range b {
			if (exactKey{me.matchBits, me.matchID.NID, me.matchID.PID}) != k {
				t.Fatalf("entry in wrong exact bucket")
			}
		}
	}
	for k, b := range p.anyInit {
		if len(b) == 0 {
			t.Fatalf("empty anyInit bucket %v left behind", k)
		}
		checkBucket("anyInit", b, idxAnyInit)
		for _, me := range b {
			if me.matchBits != k {
				t.Fatalf("entry in wrong anyInit bucket")
			}
		}
	}
	checkBucket("residual", p.residual, idxResidual)
	if indexed != n {
		t.Fatalf("index holds %d entries, list holds %d", indexed, n)
	}
}

// translateReference is the pre-index linear walk over the match list,
// retained as the differential-testing oracle: the indexed translate must
// return the same descriptor, offset, length, and drop reason on every
// input. Caller holds p.mu.
//
//lint:requires portal.mu
func (s *State) translateReference(p *portal, h *wire.Header, want types.MDOptions) (*memDesc, uint64, uint64, types.DropReason) {
	if ok, reason := s.acl.Check(h.Cookie, h.Initiator, h.PtlIndex); !ok {
		return nil, 0, 0, reason
	}
	for me := p.head; me != nil; me = me.next {
		if !me.matches(h.Initiator, h.MatchBits) {
			continue
		}
		if len(me.mds) == 0 {
			continue
		}
		d := me.mds[0]
		if offset, mlength, ok := accept(d, h, want); ok {
			return d, offset, mlength, types.DropNone
		}
	}
	return nil, 0, 0, types.DropNoMatch
}

// diffTranslate runs indexed and reference translation on the same header
// and fails on any disagreement.
func diffTranslate(t *testing.T, s *State, h *wire.Header, want types.MDOptions) {
	t.Helper()
	p := &s.table[h.PtlIndex]
	p.mu.Lock()
	d1, off1, ml1, r1 := s.translate(p, h, want)
	d2, off2, ml2, r2 := s.translateReference(p, h, want)
	p.mu.Unlock()
	if d1 != d2 || off1 != off2 || ml1 != ml2 || r1 != r2 {
		t.Fatalf("translate mismatch for bits=%d init=%v op=%v:\n indexed   (%p, %d, %d, %v)\n reference (%p, %d, %d, %v)",
			h.MatchBits, h.Initiator, want, d1, off1, ml1, r1, d2, off2, ml2, r2)
	}
}

func TestTranslateIndexedMatchesReference(t *testing.T) {
	initiators := []types.ProcessID{aliceID, bobID, {NID: 3, PID: 30}}
	matchIDs := []types.ProcessID{
		aliceID, bobID, {NID: 3, PID: 30}, // exact class
		{NID: types.NIDAny, PID: types.PIDAny}, // anyInit class
		{NID: types.NIDAny, PID: 10},           // partial wildcards: residual
		{NID: 1, PID: types.PIDAny},
	}
	ignores := []types.MatchBits{0, 0, 0, 0x3, ^types.MatchBits(0)}

	for _, seed := range []int64{1, 7, 42, 991} {
		rng := rand.New(rand.NewSource(seed))
		s := newState(t, aliceID)
		var handles []types.Handle

		randHeader := func() (wire.Header, types.MDOptions, []byte) {
			op := wire.OpPut
			want := types.MDOpPut
			if rng.Intn(3) == 0 {
				op, want = wire.OpGet, types.MDOpGet
			}
			rlen := uint64(rng.Intn(64))
			h := wire.Header{
				Op:        op,
				Initiator: initiators[rng.Intn(len(initiators))],
				Target:    aliceID,
				PtlIndex:  types.PtlIndex(rng.Intn(2)),
				MatchBits: types.MatchBits(rng.Intn(8)),
				RLength:   rlen,
				Offset:    uint64(rng.Intn(32)),
			}
			if rng.Intn(2) == 0 {
				h.Flags = wire.FlagAckRequested
			}
			return h, want, make([]byte, rlen)
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 3: // attach a new entry at head or tail
				pos := types.After
				if rng.Intn(2) == 0 {
					pos = types.Before
				}
				unlink := types.Retain
				if rng.Intn(2) == 0 {
					unlink = types.Unlink
				}
				h, err := s.MEAttach(types.PtlIndex(rng.Intn(2)),
					matchIDs[rng.Intn(len(matchIDs))],
					types.MatchBits(rng.Intn(8)),
					ignores[rng.Intn(len(ignores))],
					unlink, pos)
				if err == nil {
					handles = append(handles, h)
				}
			case r < 4 && len(handles) > 0: // insert relative to an existing entry
				pos := types.After
				if rng.Intn(2) == 0 {
					pos = types.Before
				}
				base := handles[rng.Intn(len(handles))]
				h, err := s.MEInsert(base,
					matchIDs[rng.Intn(len(matchIDs))],
					types.MatchBits(rng.Intn(8)),
					ignores[rng.Intn(len(ignores))],
					types.Retain, pos)
				if err == nil {
					handles = append(handles, h)
				}
			case r < 6 && len(handles) > 0: // give an entry a descriptor
				opts := types.MDOpPut | types.MDOpGet
				if rng.Intn(2) == 0 {
					opts |= types.MDTruncate
				}
				if rng.Intn(2) == 0 {
					opts |= types.MDManageRemote
				}
				md := MD{
					Start:     make([]byte, rng.Intn(96)),
					Threshold: int32(rng.Intn(4)),
					Options:   opts,
				}
				if rng.Intn(4) == 0 {
					md.Threshold = types.ThresholdInfinite
				}
				_, _ = s.MDAttach(handles[rng.Intn(len(handles))], md, types.Unlink)
			case r < 7 && len(handles) > 0: // unlink an entry (stale handles exercise error paths)
				i := rng.Intn(len(handles))
				_ = s.MEUnlink(handles[i])
			default: // compare walks, then actually deliver the message
				h, want, payload := randHeader()
				diffTranslate(t, s, &h, want)
				s.HandleIncoming(&h, payload)
			}
			checkIndexCoherent(t, &s.table[0])
			checkIndexCoherent(t, &s.table[1])
		}
	}
}

// TestMEInsertRenumber forces seq-gap exhaustion: repeatedly inserting
// before the same entry halves the midpoint gap (~2^32) each time, so a
// few dozen iterations trigger renumber. Order and index must survive.
func TestMEInsertRenumber(t *testing.T) {
	s := newState(t, aliceID)
	any := types.ProcessID{NID: types.NIDAny, PID: types.PIDAny}
	ref, err := s.MEAttach(0, any, 1000, 0, types.Retain, types.After)
	if err != nil {
		t.Fatal(err)
	}
	// Each MEInsert(Before) lands between the previous insertion and ref.
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := s.MEInsert(ref, any, types.MatchBits(i), 0, types.Retain, types.Before); err != nil {
			t.Fatal(err)
		}
		checkIndexCoherent(t, &s.table[0])
	}
	got := matchBitsOrder(s, 0)
	if len(got) != n+1 {
		t.Fatalf("list length = %d, want %d", len(got), n+1)
	}
	for i := 0; i < n; i++ {
		if got[i] != types.MatchBits(i) {
			t.Fatalf("entry %d bits = %d, want %d (insertion order broken)", i, got[i], i)
		}
	}
	if got[n] != 1000 {
		t.Fatalf("last entry bits = %d, want 1000", got[n])
	}
}

// TestUnlinkUnderTraffic hammers one portal with deliveries while another
// goroutine churns entries through attach/unlink, exercising the sharded
// locks; run with -race this validates the lock discipline, and the index
// must come out coherent.
func TestUnlinkUnderTraffic(t *testing.T) {
	s := newState(t, aliceID)
	region := make([]byte, 128)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		var live []types.Handle
		for i := 0; i < 2000; i++ {
			if len(live) < 8 && rng.Intn(2) == 0 {
				me, err := s.MEAttach(0, bobID, types.MatchBits(rng.Intn(4)), 0, types.Retain, types.After)
				if err != nil {
					continue
				}
				_, _ = s.MDAttach(me, MD{Start: region, Threshold: types.ThresholdInfinite,
					Options: types.MDOpPut | types.MDTruncate | types.MDManageRemote}, types.Retain)
				live = append(live, me)
			} else if len(live) > 0 {
				i := rng.Intn(len(live))
				_ = s.MEUnlink(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(6))
		payload := make([]byte, 32)
		for i := 0; i < 2000; i++ {
			h := wire.Header{
				Op:        wire.OpPut,
				Initiator: bobID,
				Target:    aliceID,
				PtlIndex:  0,
				MatchBits: types.MatchBits(rng.Intn(4)),
				RLength:   uint64(len(payload)),
			}
			for _, out := range s.HandleIncoming(&h, payload) {
				out.Recycle()
			}
		}
	}()
	wg.Wait()
	checkIndexCoherent(t, &s.table[0])
}
