package portals

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Counting-event and triggered-operation surface tests. The collective
// chains built on these live in internal/coll; here the primitives are
// exercised directly — option routing, threshold semantics, teardown, and
// the arm-vs-fire race across delivery-lane counts.

func TestCTBasics(t *testing.T) {
	m := newMachine(t, Loopback())
	nis, err := m.LaunchJob(1)
	if err != nil {
		t.Fatal(err)
	}
	ni := nis[0]
	ct, err := ni.CTAlloc()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ni.CTGet(ct); err != nil || v.Success != 0 || v.Failure != 0 {
		t.Fatalf("fresh counter = %+v, %v", v, err)
	}
	if err := ni.CTInc(ct, CTValue{Success: 3}); err != nil {
		t.Fatal(err)
	}
	if v, err := ni.CTWait(ct, 3); err != nil || v.Success != 3 {
		t.Fatalf("wait(3) = %+v, %v", v, err)
	}
	// A waiter below the current value returns immediately; a poll above
	// it times out with ErrTimeout.
	if _, err := ni.CTWait(ct, 1); err != nil {
		t.Fatalf("wait(1) after 3: %v", err)
	}
	if _, err := ni.CTPoll(ct, 10, 20*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("poll(10) = %v, want ErrTimeout", err)
	}
	if err := ni.CTSet(ct, CTValue{Success: 7}); err != nil {
		t.Fatal(err)
	}
	if v, _ := ni.CTGet(ct); v.Success != 7 {
		t.Fatalf("after set: %+v", v)
	}
	// Failure increments wake waiters with ErrCTFailure.
	if err := ni.CTInc(ct, CTValue{Failure: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ni.CTWait(ct, 100); !errors.Is(err, ErrCTFailure) {
		t.Fatalf("wait after failure = %v, want ErrCTFailure", err)
	}
	if err := ni.CTFree(ct); err != nil {
		t.Fatal(err)
	}
	if _, err := ni.CTGet(ct); !errors.Is(err, ErrInvalidHandle) {
		t.Fatalf("get after free = %v, want ErrInvalidHandle", err)
	}
}

// TestCTOptionRouting checks each MD option routes its completion class
// into the counter: MDCTPut on the target, MDCTSend and MDCTAck on the
// initiator, and MDCTBytes switching the increment to a byte count.
func TestCTOptionRouting(t *testing.T) {
	m := newMachine(t, Loopback())
	nis, err := m.LaunchJob(2)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := nis[0], nis[1]

	ctPut, _ := dst.CTAlloc()
	me, err := dst.MEAttach(3, AnyProcess, 0x6a, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if _, err := dst.MDAttach(me, MD{Start: buf, Threshold: ThresholdInfinite,
		Options: MDOpPut | MDManageRemote | MDCTPut, CT: ctPut}, Retain); err != nil {
		t.Fatal(err)
	}

	ctSend, _ := src.CTAlloc()
	payload := []byte("routed")
	md, err := src.MDBind(MD{Start: payload, Threshold: ThresholdInfinite,
		Options: MDOpPut | MDCTSend | MDCTAck, CT: ctSend}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put(md, AckReq, dst.ID(), 3, 0, 0x6a, 0); err != nil {
		t.Fatal(err)
	}
	// Send counts as soon as the payload leaves the descriptor; the ack
	// arrives after target delivery, so success reaches 2 (send + ack).
	if _, err := src.CTPoll(ctSend, 2, 5*time.Second); err != nil {
		t.Fatalf("initiator counter (send+ack): %v", err)
	}
	if _, err := dst.CTPoll(ctPut, 1, 5*time.Second); err != nil {
		t.Fatalf("target put counter: %v", err)
	}

	// MDCTBytes: a second descriptor counting delivered bytes, not events.
	ctBytes, _ := dst.CTAlloc()
	me2, err := dst.MEAttach(3, AnyProcess, 0x6b, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.MDAttach(me2, MD{Start: make([]byte, 256), Threshold: ThresholdInfinite,
		Options: MDOpPut | MDManageRemote | MDCTPut | MDCTBytes, CT: ctBytes}, Retain); err != nil {
		t.Fatal(err)
	}
	if err := src.Put(md, NoAckReq, dst.ID(), 3, 0, 0x6b, 0); err != nil {
		t.Fatal(err)
	}
	if v, err := dst.CTPoll(ctBytes, uint64(len(payload)), 5*time.Second); err != nil {
		t.Fatalf("byte counter: %v (value %+v)", err, v)
	}
}

// TestTriggeredArmRaceLanes is the arm-vs-fire race: application
// goroutines arm triggered increments at random thresholds WHILE delivery
// lanes are crossing those thresholds with put traffic. Whatever
// interleaving the scheduler produces, exactly the armed ops whose
// thresholds are ≤ the final count must fire — late arming past a crossed
// threshold fires immediately on the arming goroutine, lane-side crossing
// fires on the lane, and neither path may double-fire or lose an op.
// Run under -race this is also the memory-model check for the
// counter/armed-list handoff.
func TestTriggeredArmRaceLanes(t *testing.T) {
	for _, lanes := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			m := newMachine(t, Loopback().WithLanes(lanes))
			nis, err := m.LaunchJob(2)
			if err != nil {
				t.Fatal(err)
			}
			src, dst := nis[0], nis[1]
			const puts = 200
			const armers = 4
			const perArmer = 25

			// Receiver: every delivered put increments ctRecv on a lane.
			ctRecv, _ := dst.CTAlloc()
			me, err := dst.MEAttach(3, AnyProcess, 0x77, 0, Retain, After)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dst.MDAttach(me, MD{Start: make([]byte, 64), Threshold: ThresholdInfinite,
				Options: MDOpPut | MDManageRemote | MDCTPut, CT: ctRecv}, Retain); err != nil {
				t.Fatal(err)
			}

			// Armers: TriggeredCTInc chains onto per-armer result counters,
			// thresholds drawn at random from [1, puts] while traffic flows.
			results := make([]Handle, armers)
			for i := range results {
				if results[i], err = dst.CTAlloc(); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			wg.Add(1 + armers)
			go func() {
				defer wg.Done()
				payload := []byte("race")
				md, err := src.MDBind(MD{Start: payload, Threshold: ThresholdInfinite, Options: MDOpPut}, Retain)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < puts; i++ {
					if err := src.Put(md, NoAckReq, dst.ID(), 3, 0, 0x77, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for a := 0; a < armers; a++ {
				go func(a int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + a)))
					for i := 0; i < perArmer; i++ {
						threshold := uint64(rng.Intn(puts) + 1)
						if err := dst.TriggeredCTInc(results[a], CTValue{Success: 1}, ctRecv, threshold); err != nil {
							t.Error(err)
							return
						}
					}
				}(a)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if _, err := dst.CTPoll(ctRecv, puts, 10*time.Second); err != nil {
				t.Fatalf("traffic counter never reached %d: %v", puts, err)
			}
			// Every armed op's threshold is ≤ puts, so every one must fire.
			for a, res := range results {
				if _, err := dst.CTPoll(res, perArmer, 10*time.Second); err != nil {
					v, _ := dst.CTGet(res)
					t.Errorf("armer %d: %d/%d triggered increments fired (%v)", a, v.Success, perArmer, err)
				}
			}
			if n, err := dst.CTArmed(ctRecv); err != nil || n != 0 {
				t.Errorf("armed ops left on counter: %d, %v", n, err)
			}
		})
	}
}

// TestCTFreeWhileArmed is the teardown contract: freeing a counter with
// triggered operations still armed discards them — they never fire, the
// drop is accounted, and waiters wake with ErrClosed.
func TestCTFreeWhileArmed(t *testing.T) {
	m := newMachine(t, Loopback())
	nis, err := m.LaunchJob(2)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := nis[0], nis[1]
	ct, _ := src.CTAlloc()
	target, _ := src.CTAlloc()

	// Arm a triggered put and a triggered increment at unreachable
	// thresholds, plus a blocked waiter.
	md, err := src.MDBind(MD{Start: []byte("never"), Threshold: ThresholdInfinite, Options: MDOpPut}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.TriggeredPut(md, NoAckReq, dst.ID(), 3, 0, 0x1, 0, ct, 1000); err != nil {
		t.Fatal(err)
	}
	if err := src.TriggeredCTInc(target, CTValue{Success: 1}, ct, 2000); err != nil {
		t.Fatal(err)
	}
	if n, _ := src.CTArmed(ct); n != 2 {
		t.Fatalf("armed = %d, want 2", n)
	}
	waitErr := make(chan error, 1)
	go func() {
		_, err := src.CTWait(ct, 1000)
		waitErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block

	before := src.Status()
	if err := src.CTFree(ct); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter woke with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CTWait still blocked after CTFree")
	}
	after := src.Status()
	if got := after.TrigDropped - before.TrigDropped; got != 2 {
		t.Errorf("TrigDropped advanced by %d, want 2", got)
	}
	if after.TrigFired != before.TrigFired {
		t.Errorf("discarded ops fired: %d -> %d", before.TrigFired, after.TrigFired)
	}
	// The armed ops are gone, not leaked: the target counter never moves
	// and the MD is free to unlink.
	if v, _ := src.CTGet(target); v.Success != 0 {
		t.Errorf("discarded TriggeredCTInc fired: target = %+v", v)
	}
	if err := src.MDUnlink(md); err != nil {
		t.Errorf("MD still held after discard: %v", err)
	}
	if _, err := src.CTArmed(ct); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("CTArmed after free = %v, want ErrInvalidHandle", err)
	}
}
