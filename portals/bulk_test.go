package portals

import (
	"fmt"
	"testing"
	"time"
)

// Symmetric bulk traffic over tcp: both sides put at each other at once, with
// acks requested, until every socket buffer between them is full. The engine
// acks from inside the delivery handler, through a SendBuf that blocks on a
// full socket, so this finishes only if the fabric keeps draining its wire
// while its handler is blocked (transport.BatchHandler). It used to deadlock
// whenever the engine ran on the goroutine that read the socket: always at
// Lanes=1, and at any lane count once a lane's queue filled.
func TestBidirectionalBulk(t *testing.T) {
	const size = 1 << 20
	puts := 400
	if testing.Short() {
		puts = 100 // still many times what the sockets buffer
	}
	for _, lanes := range []int{1, 0} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			m := NewMachine(TCP().WithLanes(lanes))
			defer m.Close()
			a, err := m.NIInit(1, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.NIInit(2, 1, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			type side struct {
				ni *NI
				eq Handle
				md Handle
			}
			sides := make([]side, 2)
			for i, ni := range []*NI{a, b} {
				me, err := ni.MEAttach(0, AnyProcess, 7, 0, Retain, After)
				if err != nil {
					t.Fatal(err)
				}
				sink := MD{Start: make([]byte, size), Threshold: ThresholdInfinite, Options: MDOpPut | MDManageRemote}
				if _, err := ni.MDAttach(me, sink, Retain); err != nil {
					t.Fatal(err)
				}
				eq, err := ni.EQAlloc(2*puts + 8) // a send and an ack event per put
				if err != nil {
					t.Fatal(err)
				}
				md, err := ni.MDBind(MD{Start: make([]byte, size), Threshold: ThresholdInfinite, EQ: eq}, Retain)
				if err != nil {
					t.Fatal(err)
				}
				sides[i] = side{ni, eq, md}
			}
			done := make(chan error, len(sides))
			for i := range sides {
				self, peer := sides[i], sides[1-i].ni.ID()
				go func() {
					for n := 0; n < puts; n++ {
						if err := self.ni.Put(self.md, AckReq, peer, 0, 0, 7, 0); err != nil {
							done <- fmt.Errorf("put %d: %w", n, err)
							return
						}
					}
					for acks := 0; acks < puts; {
						ev, err := self.ni.EQPoll(self.eq, 30*time.Second)
						if err != nil {
							done <- fmt.Errorf("after %d acks: %w", acks, err)
							return
						}
						if ev.Type == EventAck {
							acks++
						}
					}
					done <- nil
				}()
			}
			watchdog := time.After(30 * time.Second)
			for range sides {
				select {
				case err := <-done:
					if err != nil {
						t.Error(err)
					}
				case <-watchdog:
					t.Fatal("symmetric bulk traffic did not finish in 30s: the wire stopped being drained")
				}
			}
		})
	}
}
