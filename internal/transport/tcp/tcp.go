// Package tcp is the reference transport over kernel TCP/IP sockets —
// the counterpart of the Portals 3.0 reference implementation the paper
// shipped (§3: "we implemented a reference implementation over TCP/IP").
//
// The Portals API is connectionless; TCP is not. The mismatch is resolved
// the way the reference implementation did: connections are established
// lazily on first send to a destination and cached, entirely hidden from
// the layer above. Messages are length-prefixed frames; per-pair ordering
// follows from using one cached connection per directed pair.
//
// SendBuf writes the frame synchronously and then releases the buffer, so a
// write error reaches the sender — and a full socket blocks it. Each inbound
// connection has a read goroutine that reads every frame straight into the
// pooled buffer that is delivered, and does nothing else: it queues the frame
// on the endpoint's transport.Handoff and goes back to its socket. The
// Handoff's Serve is the endpoint's one delivery goroutine. The
// split is what lets a handler block in SendBuf (the engine acking a put)
// without the wire backing up behind it: two endpoints whose handlers both
// wait on full sockets would otherwise each be waiting for the other's
// reader.
//
// The price: backpressure from a slow engine ends at the Handoff. A reader
// never waits for the handler, so TCP flow control no longer reaches the
// sender on the engine's account: the backlog sits on the receiver's heap,
// and nothing bounds it but the peers stopping to wait for a reply — a
// one-way stream of unacknowledged puts into a stalled engine is buffered
// whole. (Before the split the bound was the delivery lanes' depth, 1024
// batches, then the socket.) A byte cap on the Handoff would have to keep
// admitting acks, or it brings the deadlock back.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/obs/metrics"
	"repro/internal/transport"
	"repro/internal/types"
)

// maxFrame bounds a single message; guards against corrupt length
// prefixes on the wire.
const maxFrame = 1 << 30

// Network is a TCP fabric with an in-process address registry. Nodes
// attached to the same Network discover each other automatically; for
// genuinely distributed runs, seed the registry with Register and pin
// the local listen address with SetListenAddr (or use NewStatic).
type Network struct {
	stats Stats

	mu     sync.Mutex
	addrs  map[types.NID]string    //lint:guardedby mu
	listen map[types.NID]string    //lint:guardedby mu
	eps    map[types.NID]*endpoint //lint:guardedby mu
	closed bool                    //lint:guardedby mu
}

// Stats counts fabric-level events; all fields are atomics.
type Stats struct {
	Sent      atomic.Int64 //lint:guardedby atomic  frames written to a socket
	Delivered atomic.Int64 //lint:guardedby atomic  frames handed to a handler
	Redials   atomic.Int64 //lint:guardedby atomic  cached connections dropped after a write error
	BadFrames atomic.Int64 //lint:guardedby atomic  inbound connections closed for a bad hello or an oversize length prefix
}

// Stats exposes the fabric counters.
func (n *Network) Stats() *Stats { return &n.stats }

// RegisterMetrics exposes the fabric counters as CounterFunc views.
func (n *Network) RegisterMetrics(r *metrics.Registry, ls metrics.Labels) {
	st := &n.stats
	r.CounterFunc("portals_fabric_sent_total", "frames written to TCP sockets", ls, st.Sent.Load)
	r.CounterFunc("portals_fabric_delivered_total", "frames handed to a destination handler", ls, st.Delivered.Load)
	r.CounterFunc("portals_fabric_redials_total", "cached connections dropped after write errors", ls, st.Redials.Load)
	r.CounterFunc("portals_fabric_bad_frames_total", "inbound connections closed for bad framing", ls, st.BadFrames.Load)
}

// New creates a fabric whose nodes listen on ephemeral localhost ports.
func New() *Network {
	return &Network{
		addrs:  make(map[types.NID]string),
		listen: make(map[types.NID]string),
		eps:    make(map[types.NID]*endpoint),
	}
}

// NewStatic creates a fabric for a genuinely distributed run: the local
// node (whichever NID is attached in this OS process) listens at
// listenAddr, and peers maps every remote NID to its address.
func NewStatic(localNID types.NID, listenAddr string, peers map[types.NID]string) *Network {
	n := New()
	n.mu.Lock()
	n.listen[localNID] = listenAddr
	for nid, addr := range peers {
		n.addrs[nid] = addr
	}
	n.mu.Unlock()
	return n
}

// SetListenAddr pins the listen address used when nid attaches.
func (n *Network) SetListenAddr(nid types.NID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listen[nid] = addr
}

// Register seeds the address of a node that lives in another OS process
// or on another machine.
func (n *Network) Register(nid types.NID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[nid] = addr
}

// Attach is AttachBatch for a borrowing handler.
func (n *Network) Attach(nid types.NID, h transport.Handler) (transport.Endpoint, error) {
	return n.AttachBatch(nid, transport.Borrow(h))
}

// AttachBatch starts a listener for nid and registers its address.
func (n *Network) AttachBatch(nid types.NID, h transport.BatchHandler) (transport.Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("tcp: nil handler")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, types.ErrClosed
	}
	if _, dup := n.eps[nid]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("tcp: nid %d already attached", nid)
	}
	listenAddr := n.listen[nid]
	n.mu.Unlock()
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen: %w", err)
	}
	ep := &endpoint{
		net:     n,
		nid:     nid,
		ln:      ln,
		conns:   make(map[types.NID]*sendConn),
		inbound: make(map[net.Conn]struct{}),
	}
	ep.out.Init(func(batch []transport.Delivery) {
		n.stats.Delivered.Add(int64(len(batch)))
		h(batch)
	})
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return nil, types.ErrClosed
	}
	n.eps[nid] = ep
	n.addrs[nid] = ln.Addr().String()
	n.mu.Unlock()
	go ep.out.Serve()
	go ep.acceptLoop()
	return ep, nil
}

// Close tears down every endpoint.
func (n *Network) Close() error {
	n.mu.Lock()
	eps := make([]*endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.closed = true
	n.eps = map[types.NID]*endpoint{}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

func (n *Network) lookup(nid types.NID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[nid]
	return a, ok
}

type endpoint struct {
	net *Network
	nid types.NID
	ln  net.Listener
	out transport.Handoff // what the read goroutines queue; its Serve is the delivery goroutine

	mu      sync.Mutex
	conns   map[types.NID]*sendConn //lint:guardedby mu
	inbound map[net.Conn]struct{}   //lint:guardedby mu
	closed  bool                    //lint:guardedby mu
	wg      sync.WaitGroup
}

// sendConn serializes writes on one outgoing connection. A write failure
// re-locks the endpoint (dropConn) while the connection's send lock is
// still held, so the send lock ranks above the endpoint lock.
//
//lint:lockrank sendConn.mu < endpoint.mu
type sendConn struct {
	mu   sync.Mutex
	conn net.Conn
	hdr  [4]byte // length-prefix scratch, written under mu
}

func (ep *endpoint) LocalNID() types.NID { return ep.nid }

func (ep *endpoint) acceptLoop() {
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			c.Close()
			return
		}
		ep.inbound[c] = struct{}{}
		ep.wg.Add(1)
		ep.mu.Unlock()
		go func() {
			defer ep.wg.Done()
			ep.readLoop(c)
			ep.mu.Lock()
			delete(ep.inbound, c)
			ep.mu.Unlock()
		}()
	}
}

// readLoop handles one inbound connection: a hello frame naming the
// sender, then message frames, each read into the pooled buffer it is
// delivered in. Everything on the socket is hostile input: a bad hello or
// an oversize length prefix is counted and ends the connection before any
// buffer is acquired for it.
func (ep *endpoint) readLoop(c net.Conn) {
	defer c.Close()
	src, err := readHello(c)
	if err != nil {
		if errors.Is(err, errBadHello) {
			ep.net.stats.BadFrames.Add(1)
		}
		return
	}
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxFrame {
			ep.net.stats.BadFrames.Add(1)
			return
		}
		buf := bufpool.Get(int(n))
		if _, err := io.ReadFull(c, buf.Bytes()); err != nil {
			buf.Release()
			return
		}
		if !ep.out.Add(transport.Delivery{Src: src, Msg: buf.Bytes(), Buf: buf}) {
			return // endpoint closed
		}
	}
}

func (ep *endpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// Send copies msg once and continues as SendBuf.
func (ep *endpoint) Send(dst types.NID, msg []byte) error {
	return transport.SendCopy(ep, dst, msg)
}

// SendBuf frames buf onto the cached connection to dst, dialing on first
// use. The write is synchronous — an error here is the socket's — and the
// buffer is released when it returns.
func (ep *endpoint) SendBuf(dst types.NID, buf *bufpool.Buf) error {
	defer buf.Release()
	msg := buf.Bytes()
	if len(msg) > maxFrame {
		return fmt.Errorf("tcp: message of %d bytes exceeds frame limit", len(msg))
	}
	sc, err := ep.connTo(dst)
	if err != nil {
		return err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	binary.BigEndian.PutUint32(sc.hdr[:], uint32(len(msg)))
	//lint:ignore lockdiscipline sc.mu is this connection's write-serialization lock: it exists precisely to be held across the frame write so frames from concurrent senders never interleave; it guards nothing else and cannot participate in a cycle
	if _, err := sc.conn.Write(sc.hdr[:]); err != nil {
		ep.dropConn(dst, sc)
		return fmt.Errorf("tcp: send to %d: %w", dst, err)
	}
	//lint:ignore lockdiscipline same write-serialization lock as above; the frame header and payload must be written atomically with respect to other senders
	if _, err := sc.conn.Write(msg); err != nil {
		ep.dropConn(dst, sc)
		return fmt.Errorf("tcp: send to %d: %w", dst, err)
	}
	ep.net.stats.Sent.Add(1)
	return nil
}

func (ep *endpoint) connTo(dst types.NID) (*sendConn, error) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, types.ErrClosed
	}
	if sc, ok := ep.conns[dst]; ok {
		ep.mu.Unlock()
		return sc, nil
	}
	ep.mu.Unlock()

	// Retry briefly: in a distributed launch peers come up staggered, and
	// the connectionless Portals API gives callers no handle to retry on. A
	// peer that detaches meanwhile is looked up no more.
	var c net.Conn
	for deadline := time.Now().Add(10 * time.Second); ; {
		addr, ok := ep.net.lookup(dst)
		if !ok {
			return nil, fmt.Errorf("tcp: %w: nid %d", types.ErrProcessNotFound, dst)
		}
		var err error
		if c, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) || ep.isClosed() {
			return nil, fmt.Errorf("tcp: dial %d: %w", dst, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err := writeHello(c, ep.nid); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcp: hello to %d: %w", dst, err)
	}
	sc := &sendConn{conn: c}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		c.Close()
		return nil, types.ErrClosed
	}
	if existing, ok := ep.conns[dst]; ok {
		ep.mu.Unlock()
		c.Close() // lost the dial race; reuse the winner
		return existing, nil
	}
	ep.conns[dst] = sc
	ep.mu.Unlock()
	return sc, nil
}

func (ep *endpoint) dropConn(dst types.NID, sc *sendConn) {
	ep.net.stats.Redials.Add(1)
	sc.conn.Close()
	ep.mu.Lock()
	if ep.conns[dst] == sc {
		delete(ep.conns, dst)
	}
	ep.mu.Unlock()
}

// Close unregisters the node, stops the listener and closes every
// connection, then the Handoff: the sockets go first, so that a handler
// blocked writing to one returns and the Handoff's Close, which waits for
// it, does too.
func (ep *endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	conns := make([]*sendConn, 0, len(ep.conns))
	for _, sc := range ep.conns {
		conns = append(conns, sc)
	}
	ep.conns = map[types.NID]*sendConn{}
	in := make([]net.Conn, 0, len(ep.inbound))
	for c := range ep.inbound {
		in = append(in, c)
	}
	ep.mu.Unlock()

	ep.net.mu.Lock()
	if ep.net.eps[ep.nid] == ep {
		delete(ep.net.eps, ep.nid)
		delete(ep.net.addrs, ep.nid)
	}
	ep.net.mu.Unlock()
	ep.ln.Close()
	for _, sc := range conns {
		sc.conn.Close()
	}
	for _, c := range in {
		c.Close() // unblocks readLoops so wg.Wait below terminates
	}
	ep.out.Close() // nothing is queued or handed up from here on
	ep.wg.Wait()
	return nil
}

func writeHello(c net.Conn, nid types.NID) error {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:], 0x50334843) // "P3HC"
	binary.BigEndian.PutUint32(buf[4:], uint32(nid))
	_, err := c.Write(buf[:])
	return err
}

var errBadHello = errors.New("tcp: bad hello magic")

func readHello(c net.Conn) (types.NID, error) {
	var buf [8]byte
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		return 0, err
	}
	if binary.BigEndian.Uint32(buf[0:]) != 0x50334843 {
		return 0, errBadHello
	}
	return types.NID(binary.BigEndian.Uint32(buf[4:])), nil
}
