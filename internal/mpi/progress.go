package mpi

import (
	"errors"
	"fmt"

	"repro/portals"
)

// drain consumes every pending event without blocking.
func (c *Comm) drain() {
	for {
		ev, err := c.ni.EQGet(c.eq)
		if errors.Is(err, portals.ErrEQEmpty) {
			return
		}
		if errors.Is(err, portals.ErrEQDropped) {
			c.fatalErr = fmt.Errorf("mpi: event queue overrun; completion events lost")
		} else if err != nil {
			c.fatalErr = err
			return
		}
		c.handle(ev)
	}
}

// handle dispatches one event by the UserPtr its descriptor carried.
func (c *Comm) handle(ev portals.Event) {
	switch u := ev.UserPtr.(type) {
	case *overflowBuf:
		if ev.Type == portals.EventPut {
			c.handleOverflowPut(u, ev)
		}
	case *Request:
		if u.isSend {
			c.handleSendEvent(u, ev)
		} else {
			c.handleRecvEvent(u, ev)
		}
	case cleanupTag:
		// Reply to a fire-and-forget cleanup get: nothing to do.
	}
}

// handleOverflowPut records an unexpected arrival. During Irecv's arming
// drain it may instead satisfy the receive being posted — the only moment
// an overflow event can legitimately match an armed entry (any earlier
// entry would have absorbed the message in hardware).
func (c *Comm) handleOverflowPut(ob *overflowBuf, ev portals.Event) {
	long, _, src, tag := decBits(ev.MatchBits)
	rec := &uexRec{src: src, tag: tag, long: long}
	if long {
		// Envelope only; the data waits at the sender's read portal.
		rec.k = c.longRecvCount[src]
		c.longRecvCount[src]++
		rec.data = nil
	} else {
		rec.data = ob.buf[ev.Offset : ev.Offset+ev.MLength]
		rec.dataReady = true
		c.rotateOverflow(ob, ev.Offset+ev.MLength)
	}

	if r := c.armingReq; r != nil && !r.done && !r.getSeen && envelopeMatches(r.wantSrc, r.wantTag, src, tag) {
		c.consumeRec(r, rec)
		return
	}
	c.unexpected = append(c.unexpected, rec)
}

// envelopeMatches applies MPI matching with wildcards.
func envelopeMatches(wantSrc, wantTag, src, tag int) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	if wantTag != AnyTag && wantTag != tag {
		return false
	}
	return true
}

// searchUnexpected finds (and removes) the oldest matching record.
func (c *Comm) searchUnexpected(src, tag int) *uexRec {
	for i, rec := range c.unexpected {
		if envelopeMatches(src, tag, rec.src, rec.tag) {
			c.unexpected = append(c.unexpected[:i], c.unexpected[i+1:]...)
			return rec
		}
	}
	return nil
}

// consumeRec hands rec to req. The entry armed by Irecv must be disarmed
// first; if the engine already delivered a different message into it, that
// message is saved for requeueing when its own event drains (it is ordered
// AFTER rec, so rec wins the receive).
func (c *Comm) consumeRec(req *Request, rec *uexRec) {
	if err := c.ni.MEUnlink(req.me); err != nil {
		// Lost the race: some message m2 landed in req.buf. Snapshot the
		// buffer now; m2's event will requeue it as unexpected.
		req.fixupSave = append([]byte(nil), req.buf...)
		req.fixup = true
	}
	if rec.dataReady {
		n := copy(req.buf, rec.data)
		req.complete(Status{Source: rec.src, Tag: rec.tag, Count: n}, nil)
		return
	}
	// Pure long record: fetch the data from the sender's read portal
	// straight into the user buffer.
	c.issueGet(req, rec)
}

// issueGet starts the long-protocol fetch for an unexpected long message.
func (c *Comm) issueGet(req *Request, rec *uexRec) {
	req.getSeen = true // marks "get in flight" on the receive side
	req.getEnv = rec
	md, err := c.ni.MDBind(portals.MD{
		Start: req.buf, Threshold: 1, EQ: c.eq, UserPtr: req,
	}, portals.Unlink)
	if err != nil {
		req.complete(Status{}, err)
		return
	}
	if err := c.ni.Get(md, c.ids[rec.src], ptlRead, 0,
		readBits(c.ctx, rec.src, rec.k), 0); err != nil {
		req.complete(Status{}, err)
	}
}

// handleRecvEvent processes events on posted-receive descriptors.
func (c *Comm) handleRecvEvent(req *Request, ev portals.Event) {
	switch ev.Type {
	case portals.EventPut:
		long, _, src, tag := decBits(ev.MatchBits)
		if long {
			// Every long arrival advances the per-source sequence, direct
			// deliveries included, to stay in step with the sender.
			c.longRecvCount[src]++
		}
		if req.fixup {
			// This is m2, the message that raced into buf and lost; it is
			// requeued in its true arrival position (now). If it was a
			// long message delivered only partially (buf too small), the
			// snapshot is incomplete — but the sender saw a partial ack
			// and still holds the data, so requeue it as a fetchable long
			// record instead.
			rec := &uexRec{src: src, tag: tag, long: long}
			if long && ev.MLength < ev.RLength {
				rec.k = c.longRecvCount[src] - 1
			} else {
				rec.data = req.fixupSave[:min(int(ev.MLength), len(req.fixupSave))]
				rec.dataReady = true
			}
			c.unexpected = append(c.unexpected, rec)
			req.fixup = false
			req.fixupSave = nil
			return
		}
		st := Status{Source: src, Tag: tag, Count: int(ev.MLength)}
		if long && ev.MLength < ev.RLength {
			// Truncated direct delivery of a long message: the sender is
			// still holding the data for a get. Consume it with a
			// zero-length cleanup get so the sender completes.
			c.cleanupGet(src)
		}
		req.complete(st, nil)
	case portals.EventReply:
		// The long-protocol get finished; envelope comes from the record.
		rec := req.getEnv
		req.complete(Status{Source: rec.src, Tag: rec.tag, Count: int(ev.MLength)}, nil)
	case portals.EventUnlink:
		// Posted MD consumed and unlinked: bookkeeping only.
	}
}

// cleanupGet consumes the sender's bound read descriptor after a
// truncated direct delivery, transferring zero bytes.
func (c *Comm) cleanupGet(src int) {
	k := c.longRecvCount[src] - 1 // the arrival just counted
	md, err := c.ni.MDBind(portals.MD{
		Start: nil, Threshold: 1, EQ: c.eq, UserPtr: cleanupTag{},
	}, portals.Unlink)
	if err != nil {
		return
	}
	_ = c.ni.Get(md, c.ids[src], ptlRead, 0, readBits(c.ctx, src, k), 0)
}

// handleSendEvent advances the send-side state machine.
func (c *Comm) handleSendEvent(req *Request, ev portals.Event) {
	switch ev.Type {
	case portals.EventSend:
		if !req.long {
			// Eager standard-mode send: locally complete.
			req.complete(Status{Count: req.sendBytes}, nil)
		}
	case portals.EventAck:
		// Long protocol: the manipulated length says whether the target
		// consumed the data directly (§4.7).
		req.ackSeen = true
		if ev.MLength == ev.RLength {
			// Direct full delivery: nobody will get; retire the read
			// entry ourselves.
			_ = c.ni.MEUnlink(req.readME)
			req.complete(Status{Count: req.sendBytes}, nil)
			return
		}
		if req.getSeen {
			req.complete(Status{Count: req.sendBytes}, nil)
		}
	case portals.EventGet:
		// The receiver fetched (or cleanup-fetched) the data.
		req.getSeen = true
		if req.ackSeen {
			req.complete(Status{Count: req.sendBytes}, nil)
		}
	case portals.EventUnlink:
		// Read MD or put MD retired: bookkeeping only.
	}
}
