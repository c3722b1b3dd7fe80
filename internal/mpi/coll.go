package mpi

import (
	"fmt"
	"math/bits"

	"repro/internal/coll"
)

// Collective operations implemented over the point-to-point layer with
// reserved tags (bit 30 set, outside the user tag space). All ranks must
// call each collective in the same order — the usual MPI contract — which
// keeps the per-communicator collective sequence numbers aligned.

// collTag builds a reserved tag for round r of the current collective.
func (c *Comm) collTag(r int) int {
	return 1<<30 | int(c.collSeq&0x3FFFFF)<<8 | (r & 0xFF)
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm: ⌈log2 n⌉ rounds of pairwise token exchange).
func (c *Comm) Barrier() error {
	c.collSeq++
	token := []byte{1}
	buf := make([]byte, 1)
	for r, dist := 0, 1; dist < c.size; r, dist = r+1, dist*2 {
		dst := (c.rank + dist) % c.size
		src := (c.rank - dist + c.size) % c.size
		if _, err := c.Sendrecv(token, dst, c.collTag(r), buf, src, c.collTag(r)); err != nil {
			return fmt.Errorf("mpi: barrier round %d: %w", r, err)
		}
	}
	return nil
}

// Bcast distributes root's buf to every rank (binomial tree).
func (c *Comm) Bcast(buf []byte, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	// Work in root-relative rank space so any root uses the same tree.
	vrank := (c.rank - root + c.size) % c.size
	// Climb the mask to the bit where this rank hangs off the tree and
	// receive from the parent there; the root climbs past the top.
	mask := 1
	for mask < c.size {
		if vrank&mask != 0 {
			from := ((vrank &^ mask) + root) % c.size
			if _, err := c.Recv(buf, from, c.collTag(0)); err != nil {
				return fmt.Errorf("mpi: bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	// Forward to children at every lower bit.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < c.size {
			to := ((vrank + mask) + root) % c.size
			if err := c.Send(buf, to, c.collTag(0)); err != nil {
				return fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
	}
	return nil
}

// Op and the built-in reduction operators are internal/coll's: one
// definition of the elementwise arithmetic (and of the vector codec the
// reductions below send) under every collectives stack.
type Op = coll.Op

// Built-in reduction operators.
var (
	Sum = coll.Sum
	Max = coll.Max
	Min = coll.Min
)

// Reduce combines every rank's vec with op; the result lands in root's
// vec (other ranks' vec is used as scratch and holds partial results).
// Binomial-tree reduction, ⌈log2 n⌉ rounds.
func (c *Comm) Reduce(vec []float64, op Op, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	vrank := (c.rank - root + c.size) % c.size
	tmp := make([]float64, len(vec))
	buf := make([]byte, 8*len(vec))
	for bit := 1; bit < c.size; bit <<= 1 {
		if vrank&bit != 0 {
			// Send partial to the subtree parent and exit.
			parent := ((vrank &^ bit) + root) % c.size
			if err := c.Send(coll.EncodeF64(vec, buf), parent, c.collTag(bits.Len(uint(bit)))); err != nil {
				return fmt.Errorf("mpi: reduce send: %w", err)
			}
			return nil
		}
		child := vrank | bit
		if child < c.size {
			from := (child + root) % c.size
			if _, err := c.Recv(buf, from, c.collTag(bits.Len(uint(bit)))); err != nil {
				return fmt.Errorf("mpi: reduce recv: %w", err)
			}
			coll.DecodeF64(buf, tmp)
			op(vec, tmp)
		}
	}
	return nil
}

// Allreduce leaves the combined vector on every rank (reduce to rank 0,
// then broadcast).
func (c *Comm) Allreduce(vec []float64, op Op) error {
	if err := c.Reduce(vec, op, 0); err != nil {
		return err
	}
	buf := make([]byte, 8*len(vec))
	if c.rank == 0 {
		coll.EncodeF64(vec, buf)
	}
	if err := c.Bcast(buf, 0); err != nil {
		return err
	}
	coll.DecodeF64(buf, vec)
	return nil
}

// Gather collects equal-sized blocks from every rank into root's out
// buffer (len(block)*size bytes), ordered by rank.
func (c *Comm) Gather(block []byte, out []byte, root int) error {
	if err := c.checkPeer(root, "root"); err != nil {
		return err
	}
	c.collSeq++
	if c.rank != root {
		return c.Send(block, root, c.collTag(0))
	}
	if len(out) < len(block)*c.size {
		return fmt.Errorf("mpi: gather buffer too small: %d < %d", len(out), len(block)*c.size)
	}
	reqs := make([]*Request, 0, c.size-1)
	for r := 0; r < c.size; r++ {
		if r == root {
			copy(out[r*len(block):], block)
			continue
		}
		req, err := c.Irecv(out[r*len(block):(r+1)*len(block)], r, c.collTag(0))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return WaitAll(reqs...)
}

// Alltoall exchanges rank-sized blocks: rank i's block j lands in rank
// j's slot i. send and recv are size*block bytes.
func (c *Comm) Alltoall(send, recv []byte, block int) error {
	c.collSeq++
	if len(send) < block*c.size || len(recv) < block*c.size {
		return fmt.Errorf("mpi: alltoall buffers too small")
	}
	reqs := make([]*Request, 0, 2*c.size)
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			copy(recv[r*block:(r+1)*block], send[r*block:(r+1)*block])
			continue
		}
		req, err := c.Irecv(recv[r*block:(r+1)*block], r, c.collTag(0))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < c.size; r++ {
		if r == c.rank {
			continue
		}
		req, err := c.Isend(send[r*block:(r+1)*block], r, c.collTag(0))
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return WaitAll(reqs...)
}
