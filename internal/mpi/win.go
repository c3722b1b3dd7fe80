package mpi

import (
	"errors"
	"fmt"
	"time"

	"repro/portals"
)

// §2: the Puma MPI "contained a preliminary implementation of the MPI-2
// one-sided functions". This file is that preliminary subset on Portals:
// window creation/free (collective), Put, Get, and fence synchronization.
// Accumulate is omitted — Portals 3.0 has no remote atomics (the paper
// defers such extensions to future work), and the fence discipline MPI-2
// requires makes read-modify-write through Get/Put the documented
// substitute.

// ptlWin is the portal table index for window exposures.
const ptlWin portals.PtlIndex = 7

// Win is one rank's handle on a window: remotely accessible memory with
// fence-separated access epochs (MPI_Win with MPI_Win_fence).
type Win struct {
	c    *Comm
	id   uint64
	base []byte
	eq   portals.Handle // window-private queue: acks and replies
	me   portals.Handle

	outAcks    int // puts awaiting remote completion
	outReplies int // gets awaiting data

	// FenceTimeout bounds epoch completion waits. Default 30s.
	FenceTimeout time.Duration
}

// WinCreate collectively creates a window exposing base on every rank
// (base may differ in size per rank; nil exposes nothing). All ranks of
// the communicator must call it in the same order.
func (c *Comm) WinCreate(base []byte) (*Win, error) {
	c.collSeq++
	w := &Win{c: c, id: uint64(c.collSeq), base: base, FenceTimeout: 30 * time.Second}
	eq, err := c.ni.EQAlloc(4096)
	if err != nil {
		return nil, err
	}
	w.eq = eq
	me, err := c.ni.MEAttach(ptlWin, portals.AnyProcess,
		portals.MatchBits(w.id), 0, portals.Retain, portals.After)
	if err != nil {
		return nil, err
	}
	w.me = me
	if _, err := c.ni.MDAttach(me, portals.MD{
		Start:     base,
		Threshold: portals.ThresholdInfinite,
		Options:   portals.MDOpPut | portals.MDOpGet | portals.MDManageRemote | portals.MDTruncate,
	}, portals.Retain); err != nil {
		return nil, err
	}
	// The exposure must be armed everywhere before any rank's first
	// access epoch: windows open with a collective fence anyway.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return w, nil
}

// Put transfers data into rank dst's window at a byte offset. As with
// MPI_Put, data must not be modified until the next Fence: the put's body
// is read out of data where it is, possibly after Put has returned (a
// rendezvous body waits for its CTS), and Fence returns only once every
// put is acknowledged — which the target does after it holds the whole
// body. REMOTE completion is likewise guaranteed only after the next Fence.
func (w *Win) Put(dst int, offset uint64, data []byte) error {
	if err := w.c.checkPeer(dst, "window target"); err != nil {
		return err
	}
	md, err := w.c.ni.MDBind(portals.MD{Start: data, Threshold: 2, EQ: w.eq}, portals.Unlink)
	if err != nil {
		return err
	}
	if err := w.c.ni.Put(md, portals.AckReq, w.c.ids[dst], ptlWin, 0,
		portals.MatchBits(w.id), offset); err != nil {
		return err
	}
	w.outAcks++
	return nil
}

// Get transfers len(buf) bytes from rank dst's window at offset into
// buf. The data is valid only after the next Fence.
func (w *Win) Get(dst int, offset uint64, buf []byte) error {
	if err := w.c.checkPeer(dst, "window target"); err != nil {
		return err
	}
	md, err := w.c.ni.MDBind(portals.MD{Start: buf, Threshold: 1, EQ: w.eq}, portals.Unlink)
	if err != nil {
		return err
	}
	if err := w.c.ni.Get(md, w.c.ids[dst], ptlWin, 0,
		portals.MatchBits(w.id), offset); err != nil {
		return err
	}
	w.outReplies++
	return nil
}

// Fence closes the current access epoch: it blocks until every Put has
// been acknowledged by its target and every Get's data has arrived, then
// synchronizes all ranks (MPI_Win_fence). After Fence returns, remote
// memory reflects all puts of the epoch and local get buffers are valid.
func (w *Win) Fence() error {
	deadline := time.Now().Add(w.FenceTimeout)
	for w.outAcks > 0 || w.outReplies > 0 {
		ev, err := w.c.ni.EQPoll(w.eq, time.Until(deadline))
		if errors.Is(err, portals.ErrEQEmpty) {
			return fmt.Errorf("mpi: window fence timed out (%d acks, %d replies outstanding)",
				w.outAcks, w.outReplies)
		}
		if err != nil && !errors.Is(err, portals.ErrEQDropped) {
			return err
		}
		switch ev.Type {
		case portals.EventAck:
			w.outAcks--
		case portals.EventReply:
			w.outReplies--
		}
	}
	return w.c.Barrier()
}

// Free collectively destroys the window.
func (w *Win) Free() error {
	if err := w.c.Barrier(); err != nil {
		return err
	}
	if err := w.c.ni.MEUnlink(w.me); err != nil {
		return err
	}
	return w.c.ni.EQFree(w.eq)
}
