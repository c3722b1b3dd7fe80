package experiments

import (
	"time"

	"repro/internal/mpi"
)

// OSU-style MPI micro-benchmarks between ranks 0 and 1 of a two-rank world
// — not a paper figure, but the numbers an MPI user would quote for this
// stack (EXPERIMENTS.md, "MPI-level performance"). The caller owns the
// world, so one sweep over sizes shares its connections.

// MPILatency measures half the round trip of size-byte Send/Recv pairs,
// averaged over iters round trips after a two-trip warm-up.
func MPILatency(w *mpi.World, size, iters int) (time.Duration, error) {
	var lat time.Duration
	err := w.Run(func(c *mpi.Comm) error {
		buf := make([]byte, size)
		if err := mpiPingPong(c, buf, 2); err != nil {
			return err
		}
		start := time.Now()
		if err := mpiPingPong(c, buf, iters); err != nil {
			return err
		}
		if c.Rank() == 0 {
			lat = time.Since(start) / time.Duration(2*iters)
		}
		return nil
	})
	return lat, err
}

func mpiPingPong(c *mpi.Comm, buf []byte, iters int) error {
	peer := 1 - c.Rank()
	for i := 0; i < iters; i++ {
		if c.Rank() == 0 {
			if err := c.Send(buf, peer, 1); err != nil {
				return err
			}
			if _, err := c.Recv(buf, peer, 2); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(buf, peer, 1); err != nil {
				return err
			}
			if err := c.Send(buf, peer, 2); err != nil {
				return err
			}
		}
	}
	return nil
}

// MPIStream streams count size-byte messages from rank 0 to rank 1, window
// non-blocking sends in flight at a time, and returns how long that took.
// Streaming bandwidth is size×count over it; with size 0 it is the message
// rate.
func MPIStream(w *mpi.World, size, count, window int) (time.Duration, error) {
	var elapsed time.Duration
	err := w.Run(func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		buf := make([]byte, size)
		if c.Rank() != 0 {
			for it := 0; it < count; it++ {
				if _, err := c.Recv(buf, peer, 1); err != nil {
					return err
				}
			}
			return c.Send([]byte{1}, peer, 9)
		}
		start := time.Now()
		reqs := make([]*mpi.Request, 0, window)
		for it := 0; it < count; it += window {
			reqs = reqs[:0]
			for k := 0; k < window && it+k < count; k++ {
				r, err := c.Isend(buf, peer, 1)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if err := mpi.WaitAll(reqs...); err != nil {
				return err
			}
		}
		// Drain marker: wait for the receiver's done token so the
		// measurement covers delivery, not just local completion.
		if _, err := c.Recv(make([]byte, 1), peer, 9); err != nil {
			return err
		}
		elapsed = time.Since(start)
		return nil
	})
	return elapsed, err
}
