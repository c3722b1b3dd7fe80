package portals

import (
	"errors"
	"testing"
	"time"
)

// Negative paths through the public API: every misuse must fail with the
// right sentinel error and leave the interface usable.

// twoNIs brings up processes 1 and 2 on a machine over fab, closed when the
// test ends.
func twoNIs(t *testing.T, fab Fabric) (*NI, *NI) {
	t.Helper()
	m := newMachine(t, fab)
	a, err := m.NIInit(1, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.NIInit(2, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestPutWithStaleMD(t *testing.T) {
	a, b := twoNIs(t, Loopback())
	md, err := a.MDBind(MD{Start: []byte("x"), Threshold: 1}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MDUnlink(md); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(md, NoAckReq, b.ID(), 0, 0, 1, 0); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("Put with stale MD = %v", err)
	}
	if err := a.Get(md, b.ID(), 0, 0, 1, 0); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("Get with stale MD = %v", err)
	}
}

func TestWrongHandleKinds(t *testing.T) {
	a, _ := twoNIs(t, Loopback())
	eq, err := a.EQAlloc(4)
	if err != nil {
		t.Fatal(err)
	}
	// An EQ handle is not an ME handle.
	if _, err := a.MDAttach(eq, MD{Start: nil, Threshold: 1}, Retain); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("MDAttach to EQ handle = %v", err)
	}
	// An EQ handle is not an MD handle.
	if err := a.MDUnlink(eq); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("MDUnlink of EQ handle = %v", err)
	}
	// An invalid handle everywhere.
	if _, err := a.EQGet(InvalidHandle); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("EQGet(invalid) = %v", err)
	}
	if err := a.MEUnlink(InvalidHandle); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("MEUnlink(invalid) = %v", err)
	}
}

func TestMDStatusAndUpdateErrors(t *testing.T) {
	a, _ := twoNIs(t, Loopback())
	if _, _, err := a.MDStatus(InvalidHandle); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("MDStatus(invalid) = %v", err)
	}
	md, err := a.MDBind(MD{Start: make([]byte, 8), Threshold: 1}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	// Updating against a bad test EQ handle fails.
	bogus := Handle{Kind: 4 /* KindEQ */, Index: 99, Gen: 0}
	if err := a.MDUpdate(md, MD{Start: make([]byte, 8), Threshold: 1}, bogus); !errors.Is(err, ErrInvalidHandle) {
		t.Errorf("MDUpdate with bogus test EQ = %v", err)
	}
}

func TestACEntryOutOfRange(t *testing.T) {
	a, _ := twoNIs(t, Loopback())
	max := a.Limits().MaxACEntries
	if err := a.ACEntry(ACIndex(max), AnyProcess, PtlIndexAny); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("ACEntry out of range = %v", err)
	}
}

func TestMDSizeLimit(t *testing.T) {
	m := newMachine(t, Loopback())
	ni, err := m.NIInit(1, 1, Limits{MaxMDSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.MDBind(MD{Start: make([]byte, 17), Threshold: 1}, Retain); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("oversized MD = %v", err)
	}
	if _, err := ni.MDBind(MD{Start: make([]byte, 16), Threshold: 1}, Retain); err != nil {
		t.Errorf("limit-sized MD rejected: %v", err)
	}
}

func TestEQWaitWokenByClose(t *testing.T) {
	a, _ := twoNIs(t, Loopback())
	eq, err := a.EQAlloc(4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.EQWait(eq)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.EQFree(eq); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("EQWait woken with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EQWait not woken by EQFree")
	}
}

func TestSegmentedMDThroughPublicAPI(t *testing.T) {
	a, b := twoNIs(t, Loopback())
	eq, err := b.EQAlloc(8)
	if err != nil {
		t.Fatal(err)
	}
	me, err := b.MEAttach(0, AnyProcess, 1, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := make([]byte, 3), make([]byte, 5)
	if _, err := b.MDAttach(me, MD{
		Segments: [][]byte{s1, s2}, Threshold: ThresholdInfinite,
		Options: MDOpPut, EQ: eq,
	}, Retain); err != nil {
		t.Fatal(err)
	}
	md, err := a.MDBind(MD{Start: []byte("12345678"), Threshold: 1}, Unlink)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(md, NoAckReq, b.ID(), 0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EQPoll(eq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if string(s1) != "123" || string(s2) != "45678" {
		t.Errorf("scatter through public API: %q %q", s1, s2)
	}
}

func TestStatusDropBreakdown(t *testing.T) {
	a, b := twoNIs(t, Loopback())
	// No ME armed: put drops with no-match.
	md, err := a.MDBind(MD{Start: []byte("x"), Threshold: 1}, Unlink)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(md, NoAckReq, b.ID(), 0, 0, 7, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := b.Status()
		if st.Dropped == 1 {
			if st.Drops[DropNoMatch] != 1 {
				t.Errorf("drop breakdown: %+v", st.Drops)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drop never counted")
		}
		time.Sleep(time.Millisecond)
	}
}
