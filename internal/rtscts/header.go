// Package rtscts turns the unreliable simnet packet fabric into the
// reliable, ordered, connectionless message service Portals requires. It
// is the Go analogue of the Cplant RTS/CTS kernel module of §3, which
// "is responsible for packetization and flow control" between the Portals
// module and the Myrinet control program.
//
// The layer provides, per ordered node pair:
//
//   - packetization of messages to the fabric MTU;
//   - a Go-Back-N sliding window with cumulative acknowledgments and
//     timeout retransmission (exactly-once, in-order packet stream);
//   - message framing on top of the packet stream;
//   - RTS/CTS rendezvous flow control: a message larger than the eager
//     threshold first sends a request-to-send — its length and its first
//     transport.HeadSize bytes — and waits for a clear-to-send grant before
//     streaming data, so a receiver is never forced to absorb an
//     unannounced bulk transfer, and a handler that asked
//     (transport.Announcer) decides where an announced one lands before it
//     moves: the grant is issued by the handler's answer. The body leaves
//     from the delivery of the grant, which then yields its processor once,
//     so that the peer lands fragments while the rest of the body is sent
//     (grantReceived); a grant nobody waits for is counted (StrayGrants).
//
// Per-pair state is created lazily on first communication; the interface
// presented upward stays connectionless (§4.1).
//
// # Who owns the bytes
//
// A message crosses the layer as one pooled buffer in — or, for a put, a
// pooled head and a body lent out of the sender's memory descriptor
// (bufpool.Buf.Lend) — and one pooled buffer out — or, placed, no buffer out at
// all — and rtscts itself never holds a packet-sized buffer. What lies between is the fabric's business: one that
// carries packets by reference (simnet) copies nothing, so the receive side
// below reads the sender's own message buffer; one that must frame a
// datagram for the kernel (udp) makes the only copy between the two.
//
//   - Send side. SendBuf takes the caller's buffers (Send copies once into a
//     pooled buffer and then is SendBuf); a message within EagerMax is
//     joined into one buffer there and its body returned at once, while a
//     rendezvous message keeps its body, its head going as a fragment of its
//     own. The buffers are cut into fragments — windows of one of them, of
//     one segment of a body, never of two — by SendBuf itself when the
//     window has room, and otherwise by the
//     receipt of the ack or CTS that reopened it; it waits in the per-peer
//     queue while the window is full or an earlier message holds the
//     stream. The window holds descriptors — prebuilt header,
//     payload window, and a reference (bufpool.Buf.Retain) to the buffer the
//     window lies in — not packets, in a ring that starts at two descriptors
//     and doubles, up to the window, when a packet finds it full (grow), so
//     a stream holds what its own traffic needed. Every transmission, first
//     or repeated, hands the fabric that window and that buffer with the
//     window lock held, and a descriptor is retired — by the cumulative ack
//     that covers it, or by shutdown — under the same lock, so the
//     reference the fabric is shown is live for the length of the call,
//     which is all SendPacket asks. The memory returns to the pool, or a
//     lent body to its descriptor, with its last reference: the
//     descriptors' or, when a packet is still queued, held for reordering
//     or duplicated on a link after the ack that retired its message, the
//     fabric's. The descriptors' references are dropped after the window
//     lock, since a body's return completes its put and may send to this
//     very peer.
//     Every failure path of SendBuf releases the buffers too.
//   - Receive side. A message's first fragment obtains the pooled delivery
//     buffer and each fragment is copied straight to its offset. On
//     completion the buffer leaves as an owned transport.Delivery; the batch
//     handler (or, for a transport.Handler attach, transport.Borrow around
//     it) releases it. A buffer whose message never completes is released
//     by Close. An announced message the handler answered Place obtains no
//     buffer: each fragment is written from the fabric's packet straight
//     through the handler's transport.Sink, and what leaves is a completion
//     carrying the sink — aborted, if the body never became whole. A packet
//     is only ever read (PacketHandler): it may be the peer's message buffer.
package rtscts

import (
	"encoding/binary"
	"fmt"
)

// Packet kinds on the fabric.
const (
	pktData uint8 = 1 // carries a message fragment, sequenced
	pktAck  uint8 = 2 // cumulative acknowledgment, unsequenced
)

// Packet flags.
const (
	flagFirst  uint8 = 1 << 0 // first fragment: aux holds the message length
	flagResent uint8 = 1 << 1 // a retransmission; on an ack: the first packet it acknowledges anew was one
	flagDSACK  uint8 = 1 << 2 // on an ack: it answers a duplicate of a packet already accepted (RFC 2883); on data the bit is the message kind's
)

// Message kinds carried in the first fragment's flags (bits 2..3).
const (
	msgApp uint8 = 0 // application message, delivered to the handler
	msgRTS uint8 = 1 // request to send (rendezvous start), payload = length + head
	msgCTS uint8 = 2 // clear to send (rendezvous grant)
)

const msgKindShift = 2

// pktHeaderSize is the per-packet overhead added by this layer.
const pktHeaderSize = 20

// rtsSize is the fixed part of an RTS payload: the announced message length.
// The message's head follows — its first min(length, transport.HeadSize)
// bytes, which the receiver shows its handler before granting.
const rtsSize = 8

// MaxMessage is the largest message the layer carries. Send refuses longer
// ones, and a receiver discards any fragment or announcement that claims
// more — the length field is peer-controlled, and nothing a peer writes
// there may size an allocation beyond this.
const MaxMessage = 1 << 30

// putHeader writes a packet header in place. Headers live inside the
// structures that outlast the send (window descriptors, the receiver's ack
// scratch), never on a caller's stack: SendPacket is an interface call, so a
// stack array handed to it would escape to the heap once per packet.
func putHeader(hdr *[pktHeaderSize]byte, kind, flags uint8, seq, aux uint64) {
	hdr[0] = kind
	hdr[1] = flags
	hdr[2], hdr[3] = 0, 0
	binary.BigEndian.PutUint64(hdr[4:], seq)
	binary.BigEndian.PutUint64(hdr[12:], aux)
}

// decodePacket reads one packet as a PacketHandler receives it: the packet
// header lies within hdr, and the fragment is whatever else the packet holds
// — the rest of hdr from a fabric that hands over whole datagrams, payload
// from one that carries header and fragment apart. A packet whose header
// straddles the two, or that has fragment bytes in both, is not one this
// layer sent, and is refused.
func decodePacket(hdr, payload []byte) (kind, flags uint8, seq, aux uint64, frag []byte, err error) {
	if len(hdr) < pktHeaderSize {
		return 0, 0, 0, 0, nil, fmt.Errorf("rtscts: short packet header (%d bytes, %d behind it)", len(hdr), len(payload))
	}
	kind = hdr[0]
	if kind != pktData && kind != pktAck {
		return 0, 0, 0, 0, nil, fmt.Errorf("rtscts: unknown packet kind %d", kind)
	}
	flags = hdr[1]
	seq = binary.BigEndian.Uint64(hdr[4:])
	aux = binary.BigEndian.Uint64(hdr[12:])
	if frag = hdr[pktHeaderSize:]; len(frag) == 0 {
		frag = payload
	} else if len(payload) != 0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("rtscts: packet split %d bytes past its header", len(frag))
	}
	return kind, flags, seq, aux, frag, nil
}

func msgKind(flags uint8) uint8 { return (flags >> msgKindShift) & 0x3 }
