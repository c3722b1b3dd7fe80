// Package udp carries the rtscts reliability engine over real UDP
// sockets — the deployable form of the paper's connectionless transport
// thesis (§4.1). Where the tcp package reintroduces per-connection kernel
// state (the exact scaling liability the paper argues against), a udp node
// owns ONE socket regardless of peer count: per-peer state is only the
// rtscts sliding window, created lazily on first traffic and bounded by
// the protocol, never by kernel connection tables. There is no dial, no
// accept, no handshake — a datagram's frame header names the sending node
// and the reliability layer does the rest.
//
// The syscall layer is batched: senders enqueue framed packets on a
// per-node queue drained by one writer goroutine that coalesces bursts
// into multi-packet writes behind the packetConn interface (a portable
// WriteToUDP loop, with a sendmmsg/recvmmsg fast path on linux/amd64 —
// see pconn_linux.go). The read loop drains packets in batches and feeds
// them to rtscts, whose completed messages accumulate and flush as one
// transport.BatchHandler call per burst.
package udp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/rcu"
	"repro/internal/rtscts"
	"repro/internal/transport"
	"repro/internal/types"
)

// Frame header: every datagram opens with 8 bytes naming the protocol and
// the sending node, so the receive path identifies the peer from the frame
// itself — no reverse lookup of source addresses, and the batched receive
// syscall does not even ask the kernel for them.
//
//	[0:2] magic 0x5033 ("P3"), big endian
//	[2]   version (1)
//	[3]   reserved (0)
//	[4:8] source NID, big endian
const (
	frameMagic      = 0x5033
	frameVersion    = 1
	frameHeaderSize = 8
)

// Config tunes the fabric.
type Config struct {
	// Reliability tunes the rtscts engine (window ceiling, RTO seed, …).
	// The zero value selects rtscts defaults.
	Reliability rtscts.Config
	// MTU is the largest UDP datagram sent, frame header included.
	// Zero selects 8192: large enough to amortize syscalls on loopback,
	// small enough for default socket buffers.
	MTU int
}

const (
	// readBurst is the number of datagrams drained per receive burst.
	readBurst = 32
	// sendQueueCap caps the per-node async send queue in packets; beyond
	// it sends tail-drop (the reliability layer retransmits).
	sendQueueCap = 1024
)

func (c Config) withDefaults() Config {
	if c.MTU <= 0 {
		c.MTU = 8192
	}
	return c
}

// Stats counts fabric-level events; all fields are atomics.
type Stats struct {
	Sent         atomic.Int64 //lint:guardedby atomic  datagrams written
	SendBursts   atomic.Int64 //lint:guardedby atomic  write bursts (syscall batches)
	Received     atomic.Int64 //lint:guardedby atomic  datagrams accepted
	TxDrops      atomic.Int64 //lint:guardedby atomic  send-queue tail drops
	BadFrames    atomic.Int64 //lint:guardedby atomic  short frames / bad magic / bad version
	UnknownPeers atomic.Int64 //lint:guardedby atomic  traffic for/from unregistered NIDs
}

// Network is a UDP fabric with an in-process address registry, one socket
// per attached node. Nodes attached to the same Network discover each
// other automatically; for genuinely distributed runs, seed the registry
// with Register and pin the local bind address with SetListenAddr (or use
// NewStatic).
//
// Network implements transport.Network and rtscts.PacketNetwork (the
// raw-datagram layer underneath it).
type Network struct {
	cfg   Config
	stats Stats

	// addrs is the NID -> UDP address registry: read lock-free on every
	// packet send, written only under mu (rcu.Map writers are serialized
	// by the caller).
	addrs rcu.Map[types.NID, *net.UDPAddr]

	mu      sync.Mutex
	listen  map[types.NID]string //lint:guardedby mu
	nodes   map[types.NID]*node  //lint:guardedby mu
	closed  bool                 //lint:guardedby mu
	initErr error                //lint:guardedby mu
}

// New creates a fabric whose nodes bind ephemeral localhost ports.
func New() *Network { return NewWithConfig(Config{}) }

// NewWithConfig is New with explicit tuning.
func NewWithConfig(cfg Config) *Network {
	return &Network{
		cfg:    cfg.withDefaults(),
		listen: make(map[types.NID]string),
		nodes:  make(map[types.NID]*node),
	}
}

// NewStatic creates a fabric for a distributed run: the local node
// (whichever NID is attached in this OS process) binds listenAddr, and
// peers maps every remote NID to its address. An unresolvable peer
// address is reported by the first Attach, mirroring tcp.NewStatic.
func NewStatic(localNID types.NID, listenAddr string, peers map[types.NID]string) *Network {
	n := New()
	n.SetListenAddr(localNID, listenAddr)
	for nid, addr := range peers {
		if err := n.Register(nid, addr); err != nil {
			n.mu.Lock()
			if n.initErr == nil {
				n.initErr = err
			}
			n.mu.Unlock()
		}
	}
	return n
}

// SetListenAddr pins the bind address used when nid attaches.
func (n *Network) SetListenAddr(nid types.NID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listen[nid] = addr
}

// Register seeds the address of a node that lives in another OS process
// or on another machine. Re-registering replaces the address (tests use
// this to interpose a lossy proxy) — hence Set, not Insert: the rcu map's
// Insert refuses duplicates, which would silently keep the old address.
func (n *Network) Register(nid types.NID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udp: register %d: %w", nid, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs.Set(nid, ua)
	return nil
}

// Addr reports the bound address of nid, if known — for wiring registries
// across processes and interposing proxies in tests.
func (n *Network) Addr(nid types.NID) (string, bool) {
	a, ok := n.addrs.Get(nid)
	if !ok {
		return "", false
	}
	return a.String(), true
}

// Stats exposes the fabric counters.
func (n *Network) Stats() *Stats { return &n.stats }

// RegisterMetrics exposes the fabric counters as CounterFunc views.
func (n *Network) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	st := &n.stats
	r.CounterFunc("portals_udp_sent_total", "datagrams written to UDP sockets", ls, st.Sent.Load)
	r.CounterFunc("portals_udp_send_bursts_total", "batched write bursts", ls, st.SendBursts.Load)
	r.CounterFunc("portals_udp_received_total", "datagrams accepted from UDP sockets", ls, st.Received.Load)
	r.CounterFunc("portals_udp_tx_drops_total", "send-queue tail drops", ls, st.TxDrops.Load)
	r.CounterFunc("portals_udp_bad_frames_total", "datagrams dropped for bad framing", ls, st.BadFrames.Load)
	r.CounterFunc("portals_udp_unknown_peers_total", "datagrams dropped for unregistered NIDs", ls, st.UnknownPeers.Load)
}

// MTU reports the largest rtscts packet the fabric carries (the datagram
// budget minus the frame header). Part of rtscts.PacketNetwork.
func (n *Network) MTU() int { return n.cfg.MTU - frameHeaderSize }

// Attach is AttachBatch for a borrowing handler.
func (n *Network) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	return n.AttachBatch(nid, transport.Borrow(h))
}

// AttachBatch registers nid with reliability on top: the returned endpoint
// is an rtscts.Conn over this node's socket. The handler receives complete,
// exactly-once, in-order messages; the read loop flushes all those
// completed by one receive burst as a single BatchHandler call.
func (n *Network) AttachBatch(nid types.NID, bh transport.BatchHandler) (transport.Endpoint, error) {
	return rtscts.Attach(n, nid, n.cfg.Reliability, bh)
}

// AttachPacket binds nid's socket and starts its read/write loops; the
// handler receives raw rtscts packets and flush runs after each receive
// burst. Part of rtscts.PacketNetwork — rtscts calls this underneath
// Attach/AttachBatch.
func (n *Network) AttachPacket(nid types.NID, h rtscts.PacketHandler, flush func()) (rtscts.PacketEndpoint, error) {
	if h == nil || flush == nil {
		return nil, fmt.Errorf("udp: nil handler")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, types.ErrClosed
	}
	if n.initErr != nil {
		err := n.initErr
		n.mu.Unlock()
		return nil, err
	}
	if _, dup := n.nodes[nid]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("udp: nid %d already attached", nid)
	}
	listenAddr := n.listen[nid]
	n.mu.Unlock()
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}

	ua, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen addr: %w", err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udp: bind: %w", err)
	}
	nd := &node{
		net:   n,
		nid:   nid,
		pc:    newPacketConn(sock),
		h:     h,
		flush: flush,
		done:  make(chan struct{}),
	}
	nd.qcond = sync.NewCond(&nd.qmu)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		sock.Close()
		return nil, types.ErrClosed
	}
	n.nodes[nid] = nd
	n.addrs.Insert(nid, sock.LocalAddr().(*net.UDPAddr))
	n.mu.Unlock()

	nd.wg.Add(2)
	go nd.writeLoop()
	go nd.readLoop()
	return nd, nil
}

// Close tears down every node's socket.
func (n *Network) Close() error {
	n.mu.Lock()
	nodes := make([]*node, 0, len(n.nodes))
	for _, nd := range n.nodes {
		nodes = append(nodes, nd)
	}
	n.closed = true
	n.nodes = map[types.NID]*node{}
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.Close()
	}
	return nil
}

// outPkt is one framed datagram queued for transmission.
type outPkt struct {
	addr *net.UDPAddr
	buf  *bufpool.Buf // full frame: header + rtscts packet
}

// node owns one UDP socket: the async send queue with its writer
// goroutine, and the batched read loop. It is the rtscts.PacketEndpoint
// for its NID.
type node struct {
	net *Network
	nid types.NID
	pc  packetConn
	h   rtscts.PacketHandler
	// flush runs after each receive burst on the read-loop goroutine.
	flush func()

	// Send queue. SendPacket appends and returns — it is called from
	// rtscts ack/delivery paths that must never block on a socket — and
	// the writer goroutine drains in coalesced bursts.
	qmu    sync.Mutex
	qcond  *sync.Cond
	sendQ  []outPkt //lint:guardedby qmu
	closed bool     //lint:guardedby qmu

	done chan struct{}
	wg   sync.WaitGroup
}

// SendPacket gathers hdr and payload behind the frame header into one
// pooled datagram and enqueues it for the writer goroutine; neither slice
// is retained, so payload's owner is not needed: the kernel wants the frame
// in one piece. It never blocks: an unknown destination or a full queue
// drops the packet (datagram loss the reliability layer already recovers
// from).
//
//lint:noalloc one pooled frame per datagram; the send queue swaps between two backings
func (nd *node) SendPacket(dst types.NID, hdr, payload []byte, _ *bufpool.Buf) error {
	size := len(hdr) + len(payload)
	if size+frameHeaderSize > nd.net.cfg.MTU {
		//lint:ignore noalloc oversized packet: a caller bug, reported loudly off the fast path
		return fmt.Errorf("udp: packet of %d bytes exceeds datagram budget", size)
	}
	addr, ok := nd.net.addrs.Get(dst)
	if !ok {
		nd.net.stats.UnknownPeers.Add(1)
		//lint:ignore noalloc unregistered destination: an addressing error, not the steady state
		return fmt.Errorf("udp: %w: nid %d", types.ErrProcessNotFound, dst)
	}
	buf := bufpool.Get(frameHeaderSize + size)
	b := buf.Bytes()
	binary.BigEndian.PutUint16(b[0:], frameMagic)
	b[2] = frameVersion
	b[3] = 0
	binary.BigEndian.PutUint32(b[4:], uint32(nd.nid))
	copy(b[frameHeaderSize+copy(b[frameHeaderSize:], hdr):], payload)

	nd.qmu.Lock()
	if nd.closed {
		nd.qmu.Unlock()
		buf.Release()
		return types.ErrClosed
	}
	if len(nd.sendQ) >= sendQueueCap {
		nd.qmu.Unlock()
		buf.Release()
		nd.net.stats.TxDrops.Add(1)
		return nil // tail drop: retransmission repairs it
	}
	//lint:ignore noalloc amortized: the writer swaps the queue between two backings that stop growing at the deepest backlog
	nd.sendQ = append(nd.sendQ, outPkt{addr: addr, buf: buf})
	nd.qmu.Unlock()
	nd.qcond.Signal()
	return nil
}

// LocalNID reports the attached node id.
func (nd *node) LocalNID() types.NID { return nd.nid }

// LocalAddr reports the socket's bound address.
func (nd *node) LocalAddr() net.Addr { return nd.pc.LocalAddr() }

// writeLoop drains the send queue, coalescing whatever has accumulated
// into multi-packet writes. Syscalls happen with no locks held.
func (nd *node) writeLoop() {
	defer nd.wg.Done()
	var batch []outPkt // ping-pong spare for the queue swap
	for {
		nd.qmu.Lock()
		for len(nd.sendQ) == 0 && !nd.closed {
			nd.qcond.Wait()
		}
		if len(nd.sendQ) == 0 && nd.closed {
			nd.qmu.Unlock()
			return
		}
		q := nd.sendQ
		nd.sendQ = batch[:0]
		closed := nd.closed
		nd.qmu.Unlock()

		if !closed {
			for off := 0; off < len(q); {
				n := len(q) - off
				if n > maxWriteBurst {
					n = maxWriteBurst
				}
				written, bursts := nd.pc.writeBatch(q[off : off+n])
				nd.net.stats.Sent.Add(int64(written))
				nd.net.stats.SendBursts.Add(int64(bursts))
				off += n
			}
		}
		for i := range q {
			q[i].buf.Release()
			q[i] = outPkt{}
		}
		batch = q
		if closed {
			return
		}
	}
}

// maxWriteBurst bounds one writeBatch call (and the sendmmsg vector size).
const maxWriteBurst = 64

// readLoop drains receive bursts into persistent buffers and feeds each
// frame's rtscts packet to the handler; the messages a burst completes
// flush once, after it. Buffers are reused across iterations —
// rtscts copies what it keeps.
func (nd *node) readLoop() {
	defer nd.wg.Done()
	bufs := make([][]byte, readBurst)
	for i := range bufs {
		bufs[i] = make([]byte, nd.net.cfg.MTU)
	}
	sizes := make([]int, readBurst)
	for {
		count, err := nd.pc.readBatch(bufs, sizes)
		if err != nil {
			return // socket closed
		}
		for i := 0; i < count; i++ {
			src, payload, ok := decodeFrame(bufs[i][:sizes[i]])
			if !ok {
				nd.net.stats.BadFrames.Add(1)
				continue
			}
			nd.net.stats.Received.Add(1)
			nd.h(src, payload, nil) // the datagram whole: rtscts finds its own header
		}
		nd.flush()
	}
}

// decodeFrame validates the frame header and splits off the rtscts packet.
func decodeFrame(b []byte) (src types.NID, payload []byte, ok bool) {
	if len(b) < frameHeaderSize ||
		binary.BigEndian.Uint16(b[0:]) != frameMagic ||
		b[2] != frameVersion {
		return 0, nil, false
	}
	return types.NID(binary.BigEndian.Uint32(b[4:])), b[frameHeaderSize:], true
}

// Close shuts the socket down and reaps both loops.
func (nd *node) Close() error {
	nd.qmu.Lock()
	if nd.closed {
		nd.qmu.Unlock()
		return nil
	}
	nd.closed = true
	nd.qmu.Unlock()
	nd.qcond.Broadcast()
	close(nd.done)
	err := nd.pc.Close() // unblocks readBatch
	nd.net.mu.Lock()
	if nd.net.nodes[nd.nid] == nd {
		delete(nd.net.nodes, nd.nid)
		nd.net.addrs.Delete(nd.nid)
	}
	nd.net.mu.Unlock()
	nd.wg.Wait()
	return err
}
