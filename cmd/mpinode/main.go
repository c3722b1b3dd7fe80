// Command mpinode runs one rank of a distributed MPI job, each rank in
// its own OS process, over the TCP reference transport — the whole stack
// (MPI → Portals → sockets) with nothing shared but the network.
//
//	mpinode -rank 0 -n 2 -addrs 127.0.0.1:9801,127.0.0.1:9802 &
//	mpinode -rank 1 -n 2 -addrs 127.0.0.1:9801,127.0.0.1:9802
//
// Every rank runs the same mini-application: a barrier, a ring exchange
// of payloads, and an allreduce whose result each rank verifies. Rank
// i's NID is i+1; -addrs lists the listen address of every rank in rank
// order.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/portals"
)

func main() {
	rank := flag.Int("rank", 0, "this process's rank")
	n := flag.Int("n", 2, "total ranks")
	addrSpec := flag.String("addrs", "", "comma-separated listen addresses, one per rank")
	size := flag.Int("size", 64*1024, "ring payload bytes")
	rounds := flag.Int("rounds", 3, "application rounds")
	flag.Parse()

	addrs := strings.Split(*addrSpec, ",")
	if len(addrs) != *n {
		fmt.Fprintf(os.Stderr, "need %d addresses, got %d\n", *n, len(addrs))
		os.Exit(2)
	}
	if *rank < 0 || *rank >= *n {
		fmt.Fprintf(os.Stderr, "rank %d out of range\n", *rank)
		os.Exit(2)
	}

	selfNID := portals.NID(*rank + 1)
	peers := map[portals.NID]string{}
	ids := make([]portals.ProcessID, *n)
	for r := 0; r < *n; r++ {
		ids[r] = portals.ProcessID{NID: portals.NID(r + 1), PID: 1}
		if r != *rank {
			peers[portals.NID(r+1)] = addrs[r]
		}
	}

	m := portals.NewMachine(portals.TCPStatic(selfNID, addrs[*rank], peers))
	defer m.Close()
	ni, err := m.NIInit(selfNID, 1, portals.Limits{})
	if err != nil {
		fatal(err)
	}
	c, err := mpi.New(ni, *rank, ids, 1, mpi.Config{})
	if err != nil {
		fatal(err)
	}
	if err := awaitPeers(ni, ids, *rank); err != nil {
		fatal(err)
	}

	if err := app(c, *size, *rounds); err != nil {
		fatal(err)
	}
}

// ptlReady is the portal a rank opens once its communicator exists.
const ptlReady = mpi.PtlFree

// awaitPeers returns once every other rank's communicator exists. A rank's
// listener is up from NIInit, a moment before mpi.New has posted its match
// entries, and a message that lands in between finds nothing attached and
// is dropped (§4.8) — Portals has nobody to tell, so the startup barrier
// would wait for ever. So each rank opens ptlReady after mpi.New and puts
// empty acked messages at the others' until each has answered: an ack means
// the entry was there, hence the communicator before it.
func awaitPeers(ni *portals.NI, ids []portals.ProcessID, rank int) error {
	me, err := ni.MEAttach(ptlReady, portals.AnyProcess, 0, 0, portals.Retain, portals.After)
	if err != nil {
		return err
	}
	sink := portals.MD{Threshold: portals.ThresholdInfinite, Options: portals.MDOpPut | portals.MDManageRemote}
	if _, err := ni.MDAttach(me, sink, portals.Retain); err != nil {
		return err
	}
	eq, err := ni.EQAlloc(8 * len(ids))
	if err != nil {
		return err
	}
	defer ni.EQFree(eq)
	probe, err := ni.MDBind(portals.MD{Threshold: portals.ThresholdInfinite, EQ: eq}, portals.Retain)
	if err != nil {
		return err
	}
	defer ni.MDUnlink(probe)
	waiting := map[portals.ProcessID]bool{}
	for r, id := range ids {
		if r != rank {
			waiting[id] = true
		}
	}
	for deadline := time.Now().Add(30 * time.Second); len(waiting) > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d peers not ready after 30s", len(waiting))
		}
		for id := range waiting {
			if err := ni.Put(probe, portals.AckReq, id, ptlReady, 0, 0, 0); err != nil {
				return fmt.Errorf("probing %v: %w", id, err)
			}
		}
		for len(waiting) > 0 {
			ev, err := ni.EQPoll(eq, 50*time.Millisecond)
			if err != nil {
				break // quiet: probe again whoever has not answered
			}
			if ev.Type == portals.EventAck {
				delete(waiting, ev.Initiator)
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpinode:", err)
	os.Exit(1)
}

func app(c *mpi.Comm, size, rounds int) error {
	start := time.Now()
	if err := c.Barrier(); err != nil {
		return fmt.Errorf("startup barrier: %w", err)
	}
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	out := make([]byte, size)
	in := make([]byte, size)
	for i := range out {
		out[i] = byte(c.Rank())
	}
	for round := 0; round < rounds; round++ {
		if _, err := c.Sendrecv(out, next, round, in, prev, round); err != nil {
			return fmt.Errorf("round %d ring: %w", round, err)
		}
		if in[0] != byte(prev) || in[size-1] != byte(prev) {
			return fmt.Errorf("round %d: ring payload corrupted", round)
		}
		v := []float64{float64(c.Rank() + 1)}
		if err := c.Allreduce(v, mpi.Sum); err != nil {
			return fmt.Errorf("round %d allreduce: %w", round, err)
		}
		if want := float64(c.Size()*(c.Size()+1)) / 2; v[0] != want {
			return fmt.Errorf("round %d: allreduce %v, want %v", round, v[0], want)
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	fmt.Printf("rank %d/%d: %d rounds of %d-byte ring + allreduce OK in %v\n",
		c.Rank(), c.Size(), rounds, size, time.Since(start).Round(time.Millisecond))
	return nil
}
