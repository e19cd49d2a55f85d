package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame bounds a single TCP frame; larger frames indicate corruption or
// attack and kill the connection.
const maxFrame = 1 << 26

// TCPNode is a Conn over real TCP sockets with 4-byte length-prefixed
// framing. Replicas listen and dial each other using a static address book;
// clients dial replicas and receive replies over their outbound connection.
type TCPNode struct {
	self  Endpoint
	h     Handler
	ln    net.Listener
	addrs map[uint32]string // replica ID -> address

	mu sync.Mutex
	// conns is the connection Send uses per peer: the one registered last
	// (see route for what happens to the one it replaces).
	conns map[Endpoint]*tcpPeer
	// dials holds the dial in progress per peer, so concurrent Sends to an
	// unconnected peer share one connection instead of racing to make one
	// each.
	dials map[Endpoint]*dialCall
	// live is every open socket, routed or not, with its peer once the
	// handshake named it (nil before); Close closes them all so every read
	// loop wg counts returns.
	live   map[net.Conn]*tcpPeer
	closed bool
	wg     sync.WaitGroup

	frames atomic.Uint64
	writes atomic.Uint64
}

// retireGrace is how long a superseded connection is still read, so frames
// in flight on it when its replacement appeared are delivered.
const retireGrace = time.Second

// dialCall is one dial in progress; done closes when p and err are set.
type dialCall struct {
	done chan struct{}
	p    *tcpPeer
	err  error
}

// ListenTCP starts a listening node (used by replicas). addrs maps every
// replica ID to its dialable address; handler receives inbound messages.
func ListenTCP(self Endpoint, listenAddr string, addrs map[uint32]string, h Handler) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	n := newTCPNode(self, addrs, h)
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// DialTCP creates a non-listening node (used by clients).
func DialTCP(self Endpoint, addrs map[uint32]string, h Handler) *TCPNode {
	return newTCPNode(self, addrs, h)
}

func newTCPNode(self Endpoint, addrs map[uint32]string, h Handler) *TCPNode {
	book := make(map[uint32]string, len(addrs))
	for id, a := range addrs {
		book[id] = a
	}
	return &TCPNode{
		self: self, h: h, addrs: book,
		conns: make(map[Endpoint]*tcpPeer),
		dials: make(map[Endpoint]*dialCall),
		live:  make(map[net.Conn]*tcpPeer),
	}
}

// Addr returns the listener address, or "" for non-listening nodes.
func (n *TCPNode) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// FramesSent returns how many frames the node has written since the last
// ResetStats.
func (n *TCPNode) FramesSent() uint64 { return n.frames.Load() }

// WritesTotal returns how many socket writes carried those frames: one per
// Send call and peer, however many frames the call passed, so
// FramesSent/WritesTotal is the mean length of the runs callers hand over.
func (n *TCPNode) WritesTotal() uint64 { return n.writes.Load() }

// ResetStats zeroes the FramesSent and WritesTotal counters.
func (n *TCPNode) ResetStats() {
	n.frames.Store(0)
	n.writes.Store(0)
}

// track records an open socket and the goroutine about to read it, unless
// the node is already closed (then it closes c and reports false). Taking
// the wg count under mu orders it before Close's Wait.
func (n *TCPNode) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return false
	}
	n.live[c] = nil
	n.wg.Add(1)
	return true
}

// route makes p the connection Send uses for peer and retires every older
// connection to that peer made in the same direction. A node dials only
// when it has no route, so a second connection from the same dialler means
// the dialler gave up on its first — after a restart, or after a failure
// the other side cannot see, such as a peer that vanished without a RST.
// Both ends apply this rule to the same connection. A retired connection is
// not closed at once, because it may hold frames in flight: its read loop
// gets retireGrace to drain them and then ends it. A connection made in the
// other direction is left alone: two nodes that dialled each other at the
// same moment may each route the other's, and closing either would take
// the far side's route away. A peer thus holds at most one connection per
// direction for longer than the grace.
func (n *TCPNode) route(peer Endpoint, p *tcpPeer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p.peer = peer
	for _, q := range n.live {
		if q != nil && q.peer == peer && q.outbound == p.outbound {
			q.c.SetReadDeadline(time.Now().Add(retireGrace))
		}
	}
	n.live[p.c] = p
	n.conns[peer] = p
}

// drop closes a connection and forgets it; its peer's route goes with it
// only if p still is that route.
func (n *TCPNode) drop(p *tcpPeer) {
	p.c.Close()
	n.mu.Lock()
	delete(n.live, p.c)
	if n.conns[p.peer] == p {
		delete(n.conns, p.peer)
	}
	n.mu.Unlock()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Tracked before the handshake arrives: Close must be able to end a
		// connection whose peer never sends one.
		if n.track(c) {
			go n.serveConn(c)
		}
	}
}

// serveConn reads the peer's handshake then pumps frames to the handler.
func (n *TCPNode) serveConn(c net.Conn) {
	defer n.wg.Done()
	p := &tcpPeer{c: c}
	r := bufio.NewReaderSize(c, readBufSize)
	peer, err := readHandshake(r)
	if err != nil {
		n.drop(p) // never routed: this closes and untracks it
		return
	}
	n.route(peer, p)
	n.readLoop(r, p)
}

// readBufSize is the read buffer of a connection: large enough that what a
// peer wrote in one Send — a dispatch run's frames — arrives in one read(2).
const readBufSize = 1 << 16

// readLoop hands every inbound frame to the handler in one buffer it
// reuses, which is why a Handler must not keep data.
func (n *TCPNode) readLoop(r *bufio.Reader, p *tcpPeer) {
	defer n.drop(p)
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(r, buf); err != nil {
			return
		}
		n.h(p.peer, buf)
		if PoisonInbound.Load() {
			for i := range buf {
				buf[i] = 0xFF
			}
		}
		if cap(buf) > maxKeep {
			buf = nil
		}
	}
}

// PoisonInbound is a test hook: while set, every read loop overwrites the
// frame buffer with 0xFF as soon as the handler returns, so a handler that
// kept data — which the next frame would overwrite silently — fails loudly
// at once.
var PoisonInbound atomic.Bool

// dial establishes an outbound connection to a replica in the address book.
func (n *TCPNode) dial(to Endpoint) (*tcpPeer, error) {
	if to.Kind != KindReplica {
		return nil, fmt.Errorf("%w: cannot dial %v (no address)", ErrUnknownEndpoint, to)
	}
	addr, ok := n.addrs[to.ID]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownEndpoint, to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %v at %s: %w", to, addr, err)
	}
	if err := writeHandshake(c, n.self); err != nil {
		c.Close()
		return nil, err
	}
	if !n.track(c) {
		return nil, ErrClosed
	}
	p := &tcpPeer{c: c, outbound: true}
	n.route(to, p)
	// Replies and pushed messages arrive over this same connection.
	go func() {
		defer n.wg.Done()
		n.readLoop(bufio.NewReaderSize(c, readBufSize), p)
	}()
	return p, nil
}

// peerFor returns the connection to send to an endpoint over, dialling it
// if there is none; callers that find a dial in progress wait for it.
func (n *TCPNode) peerFor(to Endpoint) (*tcpPeer, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if p, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return p, nil
	}
	call, waiting := n.dials[to]
	if !waiting {
		call = &dialCall{done: make(chan struct{})}
		n.dials[to] = call
	}
	n.mu.Unlock()
	if waiting {
		<-call.done
		return call.p, call.err
	}
	call.p, call.err = n.dial(to)
	n.mu.Lock()
	delete(n.dials, to)
	n.mu.Unlock()
	close(call.done)
	return call.p, call.err
}

// Send implements Conn. All frames have been handed to the socket in one
// write when Send returns, so the caller may reuse them at once; a frame
// over the limit rejects the whole call before anything is written.
func (n *TCPNode) Send(to Endpoint, frames ...[]byte) error {
	if len(frames) == 0 {
		return nil
	}
	for _, f := range frames {
		if len(f) > maxFrame {
			return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(f))
		}
	}
	p, err := n.peerFor(to)
	if err != nil {
		return err
	}
	if err := p.send(frames); err != nil {
		n.drop(p)
		return err
	}
	n.frames.Add(uint64(len(frames)))
	n.writes.Add(1)
	return nil
}

// BroadcastReplicas implements Conn.
func (n *TCPNode) BroadcastReplicas(frames ...[]byte) error {
	var firstErr error
	for id := range n.addrs {
		if n.self.Kind == KindReplica && n.self.ID == id {
			continue
		}
		if err := n.Send(ReplicaEndpoint(id), frames...); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Conn.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	open := make([]net.Conn, 0, len(n.live))
	for c := range n.live {
		open = append(open, c)
	}
	n.mu.Unlock()
	if n.ln != nil {
		n.ln.Close()
	}
	for _, c := range open {
		c.Close()
	}
	n.wg.Wait()
	return nil
}

// tcpPeer is one connection to a peer.
type tcpPeer struct {
	c        net.Conn
	peer     Endpoint // set by route, under TCPNode.mu
	outbound bool     // dialled by this node, not accepted

	mu  sync.Mutex // serialises writes
	buf []byte     // the frames being written, reused
}

// maxKeep bounds the buffer a connection keeps between writes and between
// reads, so one large frame (a state transfer) does not stay pinned for its
// lifetime.
const maxKeep = 1 << 16

// send writes the frames, each behind its length header, in a single socket
// write.
func (p *tcpPeer) send(frames [][]byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = p.buf[:0]
	for _, f := range frames {
		p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(len(f)))
		p.buf = append(p.buf, f...)
	}
	_, err := p.c.Write(p.buf)
	if cap(p.buf) > maxKeep {
		p.buf = nil
	}
	return err
}

// readFrame reads the next frame into buf, growing it when the frame does
// not fit.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4) // in place: a local array would escape through io.Reader
	if err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size > maxFrame {
		return nil, fmt.Errorf("transport: inbound frame of %d bytes exceeds limit", size)
	}
	_, _ = r.Discard(4) // cannot fail: Peek just buffered them
	if int(size) > cap(buf) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeHandshake(c net.Conn, self Endpoint) error {
	var hdr [5]byte
	hdr[0] = byte(self.Kind)
	binary.LittleEndian.PutUint32(hdr[1:], self.ID)
	_, err := c.Write(hdr[:])
	return err
}

func readHandshake(r *bufio.Reader) (Endpoint, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Endpoint{}, err
	}
	return Endpoint{Kind: EndpointKind(hdr[0]), ID: binary.LittleEndian.Uint32(hdr[1:])}, nil
}
