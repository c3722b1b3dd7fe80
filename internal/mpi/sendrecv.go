package mpi

import (
	"fmt"

	"repro/portals"
)

// maxUserTag bounds application tags; higher tag values are reserved for
// collective operations (bit 30 set).
const maxUserTag = 1<<30 - 1

func (c *Comm) checkPeer(rank int, what string) error {
	if rank < 0 || rank >= c.size {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", what, rank, c.size)
	}
	return nil
}

// Isend starts a non-blocking standard-mode send. The buffer must not be
// modified until the request completes.
func (c *Comm) Isend(buf []byte, dst, tag int) (*Request, error) {
	return c.isend(buf, dst, tag)
}

// isend is shared with the collectives, which use reserved tags.
func (c *Comm) isend(buf []byte, dst, tag int) (*Request, error) {
	if len(buf) > c.cfg.EagerLimit {
		return c.isendLong(buf, dst, tag)
	}
	if err := c.checkPeer(dst, "destination"); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	req := &Request{c: c, isSend: true, sendBytes: len(buf)}

	// Eager: one put carries everything. Local completion (the send
	// event) is all MPI's standard mode requires.
	md, err := c.ni.MDBind(portals.MD{
		Start: buf, Threshold: 1, EQ: c.eq, UserPtr: req,
	}, portals.Unlink)
	if err != nil {
		return nil, err
	}
	if err := c.ni.Put(md, portals.NoAckReq, c.ids[dst], ptlMPI, 0,
		encBits(false, c.ctx, c.rank, tag), 0); err != nil {
		return nil, err
	}
	return req, nil
}

// isendLong runs the long (get-based) protocol regardless of size; it is
// the path for large standard-mode sends and for ALL synchronous-mode
// sends.
func (c *Comm) isendLong(buf []byte, dst, tag int) (*Request, error) {
	if err := c.checkPeer(dst, "destination"); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	req := &Request{c: c, isSend: true, sendBytes: len(buf)}

	// Bind the data for remote get BEFORE the put is on the wire, so the
	// receiver's get can never miss.
	req.long = true
	k := c.longSendCount[dst]
	c.longSendCount[dst]++
	readME, err := c.ni.MEAttach(ptlRead, c.ids[dst],
		readBits(c.ctx, c.rank, k), 0, portals.Unlink, portals.After)
	if err != nil {
		return nil, err
	}
	req.readME = readME
	if _, err := c.ni.MDAttach(readME, portals.MD{
		Start: buf, Threshold: 1,
		Options: portals.MDOpGet | portals.MDTruncate,
		EQ:      c.eq, UserPtr: req,
	}, portals.Unlink); err != nil {
		return nil, err
	}
	// Full-data put: a pre-posted receive absorbs it directly (bypass is
	// preserved for long messages); otherwise only the envelope survives
	// at the target. The requested ack's manipulated length tells us
	// which happened (§4.7). Threshold 2: the send and the ack each
	// consume one operation.
	md, err := c.ni.MDBind(portals.MD{
		Start: buf, Threshold: 2, EQ: c.eq, UserPtr: req,
	}, portals.Unlink)
	if err != nil {
		return nil, err
	}
	if err := c.ni.Put(md, portals.AckReq, c.ids[dst], ptlMPI, 0,
		encBits(true, c.ctx, c.rank, tag), 0); err != nil {
		return nil, err
	}
	return req, nil
}

// Irecv starts a non-blocking receive. src may be AnySource and tag
// AnyTag. If the message is larger than buf, the delivery is truncated
// (Status.Count reports the bytes stored).
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	return c.irecv(buf, src, tag)
}

func (c *Comm) irecv(buf []byte, src, tag int) (*Request, error) {
	if src != AnySource {
		if err := c.checkPeer(src, "source"); err != nil {
			return nil, err
		}
	}
	if tag != AnyTag && tag < 0 {
		return nil, fmt.Errorf("mpi: negative tag %d", tag)
	}
	req := &Request{c: c, buf: buf, wantSrc: src, wantTag: tag}

	// Arm the match entry FIRST: from this instant the engine delivers
	// matching arrivals straight into buf. Order-correctness with respect
	// to earlier arrivals is restored below (see package comment).
	matchID := portals.AnyProcess
	if src != AnySource {
		matchID = c.ids[src]
	}
	bits, ignore := recvBits(c.ctx, src, tag)
	me, err := c.ni.MEInsert(c.sentinel, matchID, bits, ignore, portals.Unlink, portals.Before)
	if err != nil {
		return nil, err
	}
	req.me = me
	if _, err := c.ni.MDAttach(me, portals.MD{
		Start: buf, Threshold: 1,
		Options: portals.MDOpPut | portals.MDTruncate,
		EQ:      c.eq, UserPtr: req,
	}, portals.Unlink); err != nil {
		return nil, err
	}

	// Messages that arrived before arming: first the ones already
	// recorded, then (via a drain with arming-match enabled) the ones
	// whose events are still queued.
	if rec := c.searchUnexpected(src, tag); rec != nil {
		c.consumeRec(req, rec)
		return req, nil
	}
	c.armingReq = req
	c.drain()
	c.armingReq = nil
	return req, nil
}

// Send is the blocking form of Isend.
func (c *Comm) Send(buf []byte, dst, tag int) error {
	req, err := c.Isend(buf, dst, tag)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// Recv is the blocking form of Irecv.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	req, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// Sendrecv exchanges messages without deadlock regardless of ordering.
func (c *Comm) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) (Status, error) {
	rreq, err := c.Irecv(recvBuf, src, recvTag)
	if err != nil {
		return Status{}, err
	}
	sreq, err := c.Isend(sendBuf, dst, sendTag)
	if err != nil {
		return Status{}, err
	}
	if _, err := sreq.Wait(); err != nil {
		return Status{}, err
	}
	return rreq.Wait()
}
