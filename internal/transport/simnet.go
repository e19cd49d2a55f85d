package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Faults configures probabilistic link faults on a SimNet. Probabilities
// are in [0,1]. The zero value is a perfect network.
type Faults struct {
	// DropProb drops a message entirely.
	DropProb float64
	// DupProb delivers a message twice.
	DupProb float64
	// ReorderProb delays a message by a random extra jitter, letting later
	// messages overtake it.
	ReorderProb float64
	// Delay is the base one-way latency applied to every message.
	Delay time.Duration
	// Jitter is the maximum extra latency for reordered messages.
	Jitter time.Duration
}

// Observer sees every message accepted for delivery, before faults are
// applied. Used by confidentiality tests to assert that no plaintext ever
// crosses the wire. It must not retain or mutate data.
type Observer func(from, to Endpoint, data []byte)

// FaultEvent records one fault decision taken on a directed link. The
// chaos harness uses the stream of these both as metrics input and to pin
// replay equality: identical seeds must produce identical decision
// sequences per link.
type FaultEvent struct {
	From, To Endpoint
	Drop     bool
	Dup      bool
	Delay    time.Duration
}

// FaultObserver sees every fault decision taken on a faulty link. It is
// invoked inline on the sender's goroutine and must be cheap.
type FaultObserver func(ev FaultEvent)

// linkState carries a directed link's fault configuration and its own
// seeded RNG stream. Giving each link an independent stream (derived
// deterministically from the master seed and the endpoint pair) means the
// decision sequence on one link does not depend on how concurrent traffic
// on other links interleaves — the property the replay-equality tests pin.
type linkState struct {
	mu        sync.Mutex
	rng       *rand.Rand
	faults    Faults
	hasFaults bool
}

// SimNet is an in-process message network connecting replicas and clients.
// Delivery to each endpoint is sequential (one dispatcher goroutine per
// endpoint); cross-endpoint ordering is unspecified, and fault injection
// can drop, duplicate, delay and reorder individual messages — globally or
// per directed link.
type SimNet struct {
	mu        sync.RWMutex
	nodes     map[Endpoint]*simConn
	replicas  map[uint32]*simConn
	faults    Faults
	seed      int64
	links     map[[2]Endpoint]*linkState
	observers []Observer
	faultObs  FaultObserver
	blocked   map[[2]Endpoint]bool
	closed    bool
}

// NewSimNet creates an empty simulated network. The seed drives all fault
// randomness, making fault schedules reproducible.
func NewSimNet(seed int64) *SimNet {
	return &SimNet{
		nodes:    make(map[Endpoint]*simConn),
		replicas: make(map[uint32]*simConn),
		seed:     seed,
		links:    make(map[[2]Endpoint]*linkState),
		blocked:  make(map[[2]Endpoint]bool),
	}
}

// SetFaults installs the fault configuration for all links without a
// per-link override.
func (n *SimNet) SetFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// SetLinkFaults installs a fault configuration for the directed link
// from→to, overriding the global configuration on that link (including
// with a zero Faults, which makes the link perfect).
func (n *SimNet) SetLinkFaults(from, to Endpoint, f Faults) {
	ls := n.linkFor(from, to)
	ls.mu.Lock()
	ls.faults = f
	ls.hasFaults = true
	ls.mu.Unlock()
}

// ClearLinkFaults removes the per-link override on from→to; the link
// falls back to the global fault configuration.
func (n *SimNet) ClearLinkFaults(from, to Endpoint) {
	ls := n.linkFor(from, to)
	ls.mu.Lock()
	ls.faults = Faults{}
	ls.hasFaults = false
	ls.mu.Unlock()
}

// ClearAllLinkFaults removes every per-link override.
func (n *SimNet) ClearAllLinkFaults() {
	n.mu.RLock()
	states := make([]*linkState, 0, len(n.links))
	for _, ls := range n.links {
		states = append(states, ls)
	}
	n.mu.RUnlock()
	for _, ls := range states {
		ls.mu.Lock()
		ls.faults = Faults{}
		ls.hasFaults = false
		ls.mu.Unlock()
	}
}

// SetFaultObserver installs the (single) fault-decision observer. Pass nil
// to remove it.
func (n *SimNet) SetFaultObserver(o FaultObserver) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultObs = o
}

// linkSeed derives a per-link RNG seed from the master seed and the
// directed endpoint pair with a splitmix64-style mix, so every link gets
// an independent but reproducible stream.
func linkSeed(seed int64, from, to Endpoint) int64 {
	z := uint64(seed)
	for _, e := range [2]Endpoint{from, to} {
		z += uint64(e.ID) | uint64(e.Kind)<<32 | 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// linkFor returns (lazily creating) the state of the directed link
// from→to.
func (n *SimNet) linkFor(from, to Endpoint) *linkState {
	k := [2]Endpoint{from, to}
	n.mu.RLock()
	ls := n.links[k]
	n.mu.RUnlock()
	if ls != nil {
		return ls
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ls = n.links[k]; ls == nil {
		ls = &linkState{rng: rand.New(rand.NewSource(linkSeed(n.seed, from, to)))}
		n.links[k] = ls
	}
	return ls
}

// AddObserver registers an observer for all traffic.
func (n *SimNet) AddObserver(o Observer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.observers = append(n.observers, o)
}

// Block cuts the link between a and b in both directions until Unblock.
func (n *SimNet) Block(a, b Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]Endpoint{a, b}] = true
	n.blocked[[2]Endpoint{b, a}] = true
}

// Unblock heals the link between a and b.
func (n *SimNet) Unblock(a, b Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]Endpoint{a, b})
	delete(n.blocked, [2]Endpoint{b, a})
}

// BlockOneWay cuts only the from→to direction of a link, modelling an
// asymmetric partition (from's messages vanish; to can still reach from).
func (n *SimNet) BlockOneWay(from, to Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]Endpoint{from, to}] = true
}

// UnblockOneWay heals only the from→to direction.
func (n *SimNet) UnblockOneWay(from, to Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]Endpoint{from, to})
}

// HealAll removes every directional block installed on the network.
func (n *SimNet) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k := range n.blocked {
		delete(n.blocked, k)
	}
}

// Isolate blocks all links to and from e (a crashed or partitioned node).
func (n *SimNet) Isolate(e Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.nodes {
		if other != e {
			n.blocked[[2]Endpoint{e, other}] = true
			n.blocked[[2]Endpoint{other, e}] = true
		}
	}
}

// Join attaches an endpoint with its inbound handler and returns its Conn.
func (n *SimNet) Join(self Endpoint, h Handler) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	c := &simConn{
		net:   n,
		self:  self,
		h:     h,
		inbox: make(chan inboundMsg, 4096),
		done:  make(chan struct{}),
	}
	n.nodes[self] = c
	if self.Kind == KindReplica {
		n.replicas[self.ID] = c
	}
	go c.dispatch()
	return c, nil
}

// Close shuts down the network and all attached endpoints.
func (n *SimNet) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, c := range n.nodes {
		c.closeLocked()
	}
}

type inboundMsg struct {
	from Endpoint
	data []byte
}

type simConn struct {
	net   *SimNet
	self  Endpoint
	h     Handler
	inbox chan inboundMsg

	closeOnce sync.Once
	done      chan struct{}
}

func (c *simConn) dispatch() {
	for {
		select {
		case <-c.done:
			return
		case m := <-c.inbox:
			c.h(m.from, m.data)
		}
	}
}

// Send implements Conn. Each frame goes through deliver on its own, in
// argument order, so the link's fault stream draws exactly as it would for
// the same frames sent one call each — a seeded chaos plan replays the same
// whether or not its sender hands frames over in runs.
func (c *simConn) Send(to Endpoint, frames ...[]byte) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	for _, f := range frames {
		if err := c.net.deliver(c.self, to, f); err != nil {
			return err
		}
	}
	return nil
}

// Reachable reports whether a message sent to the endpoint right now
// would be delivered rather than silently dropped by a partition. The
// health probe prefers this over a fire-and-forget send: on a simulated
// network a blocked link swallows messages without an error (exactly like
// a real partition), so send success proves nothing about connectivity.
func (c *simConn) Reachable(to Endpoint) bool {
	select {
	case <-c.done:
		return false
	default:
	}
	c.net.mu.RLock()
	defer c.net.mu.RUnlock()
	if c.net.closed {
		return false
	}
	if _, ok := c.net.nodes[to]; !ok {
		return false
	}
	return !c.net.blocked[[2]Endpoint{c.self, to}]
}

// BroadcastReplicas implements Conn.
func (c *simConn) BroadcastReplicas(frames ...[]byte) error {
	c.net.mu.RLock()
	ids := make([]uint32, 0, len(c.net.replicas))
	for id := range c.net.replicas {
		if !(c.self.Kind == KindReplica && c.self.ID == id) {
			ids = append(ids, id)
		}
	}
	c.net.mu.RUnlock()
	for _, id := range ids {
		if err := c.Send(ReplicaEndpoint(id), frames...); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Conn.
func (c *simConn) Close() error {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	c.closeLocked()
	delete(c.net.nodes, c.self)
	if c.self.Kind == KindReplica {
		delete(c.net.replicas, c.self.ID)
	}
	return nil
}

func (c *simConn) closeLocked() {
	c.closeOnce.Do(func() { close(c.done) })
}

// deliver applies observers and faults, then enqueues the message at the
// destination. Data is copied once on acceptance so senders may reuse
// buffers.
func (n *SimNet) deliver(from, to Endpoint, data []byte) error {
	n.mu.RLock()
	dst, ok := n.nodes[to]
	blocked := n.blocked[[2]Endpoint{from, to}]
	faults := n.faults
	observers := n.observers
	faultObs := n.faultObs
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	for _, o := range observers {
		o(from, to, data)
	}
	if !ok {
		return ErrUnknownEndpoint
	}
	if blocked {
		return nil // silently dropped, like a partition
	}

	// Fault decisions draw from the link's own seeded stream under the
	// link's own lock: concurrent traffic on other links cannot perturb
	// this link's decision sequence, and the draw is race-free.
	ls := n.linkFor(from, to)
	ls.mu.Lock()
	if ls.hasFaults {
		faults = ls.faults
	}
	drop := faults.DropProb > 0 && ls.rng.Float64() < faults.DropProb
	dup := faults.DupProb > 0 && ls.rng.Float64() < faults.DupProb
	extra := time.Duration(0)
	if faults.ReorderProb > 0 && ls.rng.Float64() < faults.ReorderProb && faults.Jitter > 0 {
		extra = time.Duration(ls.rng.Int63n(int64(faults.Jitter)))
	}
	ls.mu.Unlock()

	if faultObs != nil && faults != (Faults{}) {
		faultObs(FaultEvent{From: from, To: to, Drop: drop, Dup: dup, Delay: faults.Delay + extra})
	}
	if drop {
		return nil
	}
	msg := inboundMsg{from: from, data: append([]byte(nil), data...)}
	copies := 1
	if dup {
		copies = 2
	}
	delay := faults.Delay + extra
	for i := 0; i < copies; i++ {
		if delay > 0 {
			time.AfterFunc(delay, func() { dst.enqueue(msg) })
		} else {
			dst.enqueue(msg)
		}
	}
	return nil
}

func (c *simConn) enqueue(m inboundMsg) {
	select {
	case <-c.done:
	case c.inbox <- m:
	}
}
