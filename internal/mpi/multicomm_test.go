package mpi

import (
	"fmt"
	"sync"
	"testing"

	"repro/portals"
)

// Two communicators on the SAME interfaces must be fully isolated: same
// tags, same ranks, different contexts (§2: Portals was "designed to
// efficiently support multiple protocols within the same process").
func TestCommunicatorContextIsolation(t *testing.T) {
	m := newMachine(t, portals.Loopback())
	nis, err := m.LaunchJob(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := []portals.ProcessID{nis[0].ID(), nis[1].ID()}

	commA := make([]*Comm, 2)
	commB := make([]*Comm, 2)
	for r := 0; r < 2; r++ {
		if commA[r], err = New(nis[r], r, ids, 1, Config{}); err != nil {
			t.Fatal(err)
		}
		if commB[r], err = New(nis[r], r, ids, 2, Config{}); err != nil {
			t.Fatal(err)
		}
	}

	// Rank 0 sends tag 5 on BOTH comms with different payloads; rank 1
	// receives on comm B first, then comm A. Cross-delivery would give
	// the wrong payload.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := commA[0].Send([]byte("context-A"), 1, 5); err != nil {
			errs[0] = err
			return
		}
		errs[0] = commB[0].Send([]byte("context-B"), 1, 5)
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		st, err := commB[1].Recv(buf, 0, 5)
		if err != nil {
			errs[1] = err
			return
		}
		if string(buf[:st.Count]) != "context-B" {
			errs[1] = fmt.Errorf("comm B got %q", buf[:st.Count])
			return
		}
		st, err = commA[1].Recv(buf, 0, 5)
		if err != nil {
			errs[1] = err
			return
		}
		if string(buf[:st.Count]) != "context-A" {
			errs[1] = fmt.Errorf("comm A got %q", buf[:st.Count])
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// A wildcard receive on one communicator must never swallow another
// communicator's traffic, even when the other comm's message arrives
// first and sits unexpected.
func TestWildcardDoesNotCrossContexts(t *testing.T) {
	m := newMachine(t, portals.Loopback())
	nis, err := m.LaunchJob(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := []portals.ProcessID{nis[0].ID(), nis[1].ID()}
	var comms [2][2]*Comm // [ctx][rank]
	for c := 0; c < 2; c++ {
		for r := 0; r < 2; r++ {
			if comms[c][r], err = New(nis[r], r, ids, uint16(c+1), Config{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Send on ctx 1 FIRST so it lands unexpected at rank 1.
		if err := comms[0][0].Send([]byte{0xA1}, 1, 9); err != nil {
			errs[0] = err
			return
		}
		errs[0] = comms[1][0].Send([]byte{0xB2}, 1, 9)
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 1)
		// Wildcard receive on ctx 2 must get the ctx-2 message.
		st, err := comms[1][1].Recv(buf, AnySource, AnyTag)
		if err != nil {
			errs[1] = err
			return
		}
		if buf[0] != 0xB2 || st.Tag != 9 {
			errs[1] = fmt.Errorf("ctx-2 wildcard got %#x tag %d", buf[0], st.Tag)
			return
		}
		if _, err := comms[0][1].Recv(buf, 0, 9); err != nil {
			errs[1] = err
			return
		}
		if buf[0] != 0xA1 {
			errs[1] = fmt.Errorf("ctx-1 got %#x", buf[0])
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
