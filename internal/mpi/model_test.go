package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/portals"
)

// Model-based randomized matching test.
//
// MPI's matching outcome for a single (source, destination) pair is
// uniquely determined by the send order and the receive-post order: each
// arrival matches the earliest still-open compatible receive, and each
// posted receive matches the earliest queued compatible message. This
// outcome is independent of the relative timing of arrivals and posts,
// so a sequential reference model can predict exactly which message every
// receive must get — across eager/long protocols, wildcards, pre-posted
// and unexpected paths, whatever the scheduler does.

type modelMsg struct {
	id   uint64
	tag  int
	size int
}

type modelRecv struct {
	tag int // AnyTag allowed
}

// modelMatch computes the expected message id for every receive.
func modelMatch(msgs []modelMsg, recvs []modelRecv) []uint64 {
	out := make([]uint64, len(recvs))
	taken := make([]bool, len(msgs))
	for r, rc := range recvs {
		out[r] = ^uint64(0)
		for m := range msgs {
			if taken[m] {
				continue
			}
			if rc.tag == AnyTag || rc.tag == msgs[m].tag {
				taken[m] = true
				out[r] = msgs[m].id
				break
			}
		}
	}
	return out
}

func TestRandomizedMatchingModel(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testMatchingSeed(t, seed)
		})
	}
}

func testMatchingSeed(t *testing.T, seed int64) {
	const (
		numMsgs    = 60
		eagerLimit = 2048
		numTags    = 4
	)
	rng := rand.New(rand.NewSource(seed))

	// Script: random messages and a receive list that plausibly consumes
	// them (same tag distribution plus wildcards).
	msgs := make([]modelMsg, numMsgs)
	for i := range msgs {
		size := 16 + rng.Intn(64)
		if rng.Intn(4) == 0 {
			size = eagerLimit * (2 + rng.Intn(3)) // long protocol
		}
		msgs[i] = modelMsg{id: uint64(1000 + i), tag: rng.Intn(numTags), size: size}
	}
	// Build receives: a shuffled bijection of the message tags (always
	// solvable), then greedily widen receives to AnyTag wherever the
	// model still matches every receive — wildcards can otherwise starve
	// an exact receive by stealing the last message of its tag.
	recvs := make([]modelRecv, numMsgs)
	for i, m := range msgs {
		recvs[i] = modelRecv{tag: m.tag}
	}
	rng.Shuffle(len(recvs), func(i, j int) { recvs[i], recvs[j] = recvs[j], recvs[i] })
	solvable := func(rs []modelRecv) bool {
		for _, e := range modelMatch(msgs, rs) {
			if e == ^uint64(0) {
				return false
			}
		}
		return true
	}
	if !solvable(recvs) {
		t.Fatal("bijection script must be solvable")
	}
	for i := range recvs {
		if rng.Intn(3) != 0 {
			continue
		}
		old := recvs[i].tag
		recvs[i].tag = AnyTag
		if !solvable(recvs) {
			recvs[i].tag = old
		}
	}
	expected := modelMatch(msgs, recvs)

	w := worldOn(t, portals.Loopback(), 2, Config{EagerLimit: eagerLimit})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Sends must be non-blocking: the receive order is shuffled,
			// and a blocking long send whose matching receive comes later
			// than a receive for a later message would deadlock (the
			// usual unsafe-MPI-program hazard, not an implementation
			// property under test).
			sRng := rand.New(rand.NewSource(seed + 1))
			reqs := make([]*Request, 0, len(msgs))
			for _, m := range msgs {
				buf := make([]byte, m.size)
				binary.BigEndian.PutUint64(buf, m.id)
				req, err := c.Isend(buf, 1, m.tag)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
				if sRng.Intn(5) == 0 {
					time.Sleep(time.Duration(sRng.Intn(3)) * time.Millisecond)
				}
			}
			return WaitAll(reqs...)
		}
		rRng := rand.New(rand.NewSource(seed + 2))
		// Receive in random batch sizes: batches exercise multiple open
		// receives at once; random sleeps shuffle pre-posted vs
		// unexpected paths.
		buf := make([][]byte, len(recvs))
		r := 0
		for r < len(recvs) {
			batch := 1 + rRng.Intn(4)
			if r+batch > len(recvs) {
				batch = len(recvs) - r
			}
			if rRng.Intn(3) == 0 {
				time.Sleep(time.Duration(rRng.Intn(4)) * time.Millisecond)
			}
			reqs := make([]*Request, batch)
			for j := 0; j < batch; j++ {
				buf[r+j] = make([]byte, eagerLimit*5)
				req, err := c.Irecv(buf[r+j], 0, recvs[r+j].tag)
				if err != nil {
					return err
				}
				reqs[j] = req
			}
			for j := 0; j < batch; j++ {
				st, err := reqs[j].Wait()
				if err != nil {
					return err
				}
				got := binary.BigEndian.Uint64(buf[r+j])
				if got != expected[r+j] {
					return fmt.Errorf("receive %d (tag %d): got msg %d, model says %d",
						r+j, recvs[r+j].tag, got, expected[r+j])
				}
				wantMsg := msgs[got-1000]
				if st.Count != wantMsg.size || (recvs[r+j].tag != AnyTag && st.Tag != recvs[r+j].tag) {
					return fmt.Errorf("receive %d status %+v vs msg %+v", r+j, st, wantMsg)
				}
			}
			r += batch
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequeuedLoserGoesToTheArmingReceive replays the interleaving behind
// a TestRandomizedMatchingModel failure (seed 42: "receive 29 (tag 2): got
// msg 1042, model says 1041"). Message B raced into an armed receive r1
// that an older unexpected message then completed, so B is requeued when
// its event drains. When that happens inside a later Irecv's arming drain,
// the new receive r2 must take B, ahead of every message that arrived
// after B. The drain is driven by hand: no fabric can hold B inside Irecv.
func TestRequeuedLoserGoesToTheArmingReceive(t *testing.T) {
	c := world(t, 1).Comm(0)
	buf := make([]byte, 8)
	r2, err := c.Irecv(buf, AnySource, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Request{c: c, done: true, fixup: true, fixupSave: []byte("message B")}
	c.armingReq = r2
	c.handle(portals.Event{Type: portals.EventPut, UserPtr: r1,
		MatchBits: encBits(false, c.ctx, 0, 2), MLength: 8, RLength: 8})
	c.armingReq = nil
	if !r2.done || string(buf) != "message " {
		t.Fatalf("arming receive: done=%v buf=%q; want B's bytes", r2.done, buf)
	}
	if len(c.unexpected) != 0 {
		t.Fatalf("%d unexpected records left; B should have gone to the arming receive", len(c.unexpected))
	}
}
