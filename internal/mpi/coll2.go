package mpi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/coll"
	"repro/portals"
)

// WaitAny blocks until at least one of the requests completes and
// returns its index and status (MPI_Waitany). Nil entries are skipped;
// if every entry is nil, WaitAny returns an error.
func WaitAny(reqs ...*Request) (int, Status, error) {
	var c *Comm
	for _, r := range reqs {
		if r != nil {
			c = r.c
			break
		}
	}
	if c == nil {
		return -1, Status{}, fmt.Errorf("mpi: WaitAny with no requests")
	}
	for {
		for i, r := range reqs {
			if r == nil {
				continue
			}
			if r.done {
				return i, r.status, r.err
			}
		}
		if c.fatalErr != nil {
			return -1, Status{}, c.fatalErr
		}
		ev, err := c.ni.EQPoll(c.eq, 200*time.Microsecond)
		switch {
		case err == nil:
			c.handle(ev)
		case errors.Is(err, portals.ErrEQDropped):
			c.handle(ev)
			c.fatalErr = fmt.Errorf("mpi: event queue overrun; completion events lost")
		case errors.Is(err, portals.ErrEQEmpty):
			// keep polling
		default:
			return -1, Status{}, err
		}
	}
}

// Scan computes the inclusive prefix reduction: rank r ends with
// op(vec_0, ..., vec_r) (MPI_Scan). Linear pipeline: receive the prefix
// from rank-1, fold in, forward to rank+1.
func (c *Comm) Scan(vec []float64, op Op) error {
	c.collSeq++
	buf := make([]byte, 8*len(vec))
	if c.rank > 0 {
		if _, err := c.Recv(buf, c.rank-1, c.collTag(0)); err != nil {
			return fmt.Errorf("mpi: scan recv: %w", err)
		}
		tmp := make([]float64, len(vec))
		coll.DecodeF64(buf, tmp)
		op(tmp, vec)
		copy(vec, tmp)
	}
	if c.rank < c.size-1 {
		if err := c.Send(coll.EncodeF64(vec, buf), c.rank+1, c.collTag(0)); err != nil {
			return fmt.Errorf("mpi: scan send: %w", err)
		}
	}
	return nil
}

// Allgather collects every rank's equal-sized block on every rank,
// ordered by rank (MPI_Allgather). Ring algorithm: n-1 steps, each rank
// forwards the block it received in the previous step.
func (c *Comm) Allgather(block []byte, out []byte) error {
	c.collSeq++
	n := c.size
	if len(out) < len(block)*n {
		return fmt.Errorf("mpi: allgather buffer too small: %d < %d", len(out), len(block)*n)
	}
	copy(out[c.rank*len(block):], block)
	next := (c.rank + 1) % n
	prev := (c.rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		sendIdx := (c.rank - step + n) % n
		recvIdx := (c.rank - step - 1 + n) % n
		sendBlk := out[sendIdx*len(block) : (sendIdx+1)*len(block)]
		recvBlk := out[recvIdx*len(block) : (recvIdx+1)*len(block)]
		if _, err := c.Sendrecv(sendBlk, next, c.collTag(step), recvBlk, prev, c.collTag(step)); err != nil {
			return fmt.Errorf("mpi: allgather step %d: %w", step, err)
		}
	}
	return nil
}

// Scatter distributes root's consecutive equal-sized blocks: rank r
// receives in[r*len(block):(r+1)*len(block)] into block (MPI_Scatter).
func (c *Comm) Scatter(in []byte, block []byte, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	if c.rank == root {
		if len(in) < len(block)*c.size {
			return fmt.Errorf("mpi: scatter buffer too small: %d < %d", len(in), len(block)*c.size)
		}
		reqs := make([]*Request, 0, c.size-1)
		for r := 0; r < c.size; r++ {
			if r == root {
				copy(block, in[r*len(block):(r+1)*len(block)])
				continue
			}
			req, err := c.isend(in[r*len(block):(r+1)*len(block)], r, c.collTag(0))
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return WaitAll(reqs...)
	}
	_, err := c.Recv(block, root, c.collTag(0))
	return err
}
