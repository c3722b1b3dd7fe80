package rtscts

import (
	"repro/internal/bufpool"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// PacketHandler is invoked by a packet network with each raw datagram
// addressed to the local node: hdr followed by payload, split wherever the
// fabric happens to hold the datagram in two pieces (one that holds it whole
// passes it as hdr). src identifies the sending node. Both slices are the
// callee's to read until it returns and never to write or keep: on a fabric
// that carries packets by reference, payload is the sender's own message
// buffer, which a retransmission may be reading at the same moment. All
// packets from one source are fed by one goroutine at a time (rtscts keeps
// its reassembly state per source on that promise); different sources may be
// fed concurrently.
type PacketHandler func(src types.NID, hdr, payload []byte)

// PacketEndpoint is a node's attachment to an unreliable packet fabric —
// the service rtscts builds reliability on. SendPacket transmits hdr
// followed by payload as one datagram, so rtscts never materialises a
// packet of its own (either slice may be empty). hdr is copied before
// SendPacket returns. payload is a window of owner, of which the caller
// holds a reference for the length of the call: a fabric that keeps payload
// past its return takes a reference of its own (Buf.Retain) and releases it
// when the packet leaves the fabric, however it leaves; one that copies
// payload out before returning ignores owner. A payload without an owner
// may be refused. SendPacket is best-effort (loss, duplication, and
// reordering are the reliability layer's job) and MUST NOT block: it is
// called from ack/delivery paths that portalsvet proves non-blocking
// (application bypass, §5.1) and with the sender's window lock held.
// Implementations enqueue or tail-drop; they never wait on sockets or
// pacing, and never call back into rtscts.
type PacketEndpoint interface {
	SendPacket(dst types.NID, hdr, payload []byte, owner *bufpool.Buf) error
	LocalNID() types.NID
	Close() error
}

// PacketNetwork is an unreliable datagram fabric rtscts can attach to.
// Both the in-memory simulator (simnet) and the real-socket UDP transport
// implement it; the reliability engine is identical over either.
type PacketNetwork interface {
	// AttachPacket registers nid and its raw-packet handler. The network
	// calls flush, from the goroutine that just fed h, after the last
	// packet of every dispatch burst: whenever it has handed over all it
	// had and is about to wait for more. No burst may end without one —
	// rtscts acknowledges in-sequence packets and hands completed messages
	// up only at flush, so a packet fed and never flushed is a packet the
	// peer retransmits. A network that cannot tell where its bursts end
	// calls flush after every packet.
	AttachPacket(nid types.NID, h PacketHandler, flush func()) (PacketEndpoint, error)
	// MTU reports the largest datagram the fabric carries.
	MTU() int
}

// simPacketNetwork adapts *simnet.Network to PacketNetwork. simnet's
// Endpoint already satisfies PacketEndpoint (SendPacket tail-drops when a
// link queue is full — it never blocks), and its links end every burst
// with a flush.
type simPacketNetwork struct{ n *simnet.Network }

func (s simPacketNetwork) AttachPacket(nid types.NID, h PacketHandler, flush func()) (PacketEndpoint, error) {
	return s.n.AttachBurst(nid, simnet.PacketHandler(h), flush)
}

func (s simPacketNetwork) MTU() int { return s.n.MTU() }
