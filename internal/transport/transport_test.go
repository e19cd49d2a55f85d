package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain runs the package with the read loops' frame-buffer poison on:
// every TCP test then doubles as the guard for Handler's ownership rule — a
// handler that kept data reads 0xFF the moment it returns.
func TestMain(m *testing.M) {
	PoisonInbound.Store(true)
	os.Exit(m.Run())
}

// collector is a thread-safe message sink used as a Handler in tests.
type collector struct {
	mu   sync.Mutex
	msgs []string
	ch   chan string
}

func newCollector() *collector {
	return &collector{ch: make(chan string, 1024)}
}

func (c *collector) handle(from Endpoint, data []byte) {
	s := fmt.Sprintf("%v:%s", from, data)
	c.mu.Lock()
	c.msgs = append(c.msgs, s)
	c.mu.Unlock()
	c.ch <- s
}

func (c *collector) wait(t *testing.T, want string) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case got := <-c.ch:
			if got == want {
				return
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q; have %v", want, c.snapshot())
		}
	}
}

func (c *collector) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func TestSimNetPointToPoint(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	c0 := newCollector()
	c1 := newCollector()
	conn0, err := net.Join(ReplicaEndpoint(0), c0.handle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(ReplicaEndpoint(1), c1.handle); err != nil {
		t.Fatal(err)
	}
	if err := conn0.Send(ReplicaEndpoint(1), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c1.wait(t, "replica-0:hello")
	if c0.count() != 0 {
		t.Fatal("sender received its own point-to-point message")
	}
}

func TestSimNetBroadcastExcludesSelf(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	cols := make([]*collector, 4)
	conns := make([]Conn, 4)
	for i := 0; i < 4; i++ {
		cols[i] = newCollector()
		c, err := net.Join(ReplicaEndpoint(uint32(i)), cols[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	if err := conns[2].BroadcastReplicas([]byte("b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		cols[i].wait(t, "replica-2:b")
	}
	time.Sleep(10 * time.Millisecond)
	if cols[2].count() != 0 {
		t.Fatal("broadcast delivered to sender")
	}
}

func TestSimNetUnknownEndpoint(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(ReplicaEndpoint(9), []byte("x")); err == nil {
		t.Fatal("send to unknown endpoint succeeded")
	}
}

func TestSimNetSenderBufferReuse(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	col := newCollector()
	if _, err := net.Join(ReplicaEndpoint(1), col.handle); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("aaaa")
	if err := conn.Send(ReplicaEndpoint(1), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "bbbb") // mutate after send
	col.wait(t, "replica-0:aaaa")
}

func TestSimNetBlockAndUnblock(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	col := newCollector()
	if _, err := net.Join(ReplicaEndpoint(1), col.handle); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.Block(ReplicaEndpoint(0), ReplicaEndpoint(1))
	if err := conn.Send(ReplicaEndpoint(1), []byte("lost")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("blocked link delivered a message")
	}
	net.Unblock(ReplicaEndpoint(0), ReplicaEndpoint(1))
	if err := conn.Send(ReplicaEndpoint(1), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "replica-0:ok")
}

func TestSimNetIsolate(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	col := newCollector()
	if _, err := net.Join(ReplicaEndpoint(1), col.handle); err != nil {
		t.Fatal(err)
	}
	conn0, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := net.Join(ReplicaEndpoint(2), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.Isolate(ReplicaEndpoint(0))
	if err := conn0.Send(ReplicaEndpoint(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := conn2.Send(ReplicaEndpoint(1), []byte("y")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "replica-2:y")
	for _, m := range col.snapshot() {
		if m == "replica-0:x" {
			t.Fatal("isolated node's message delivered")
		}
	}
}

func TestSimNetDropFaults(t *testing.T) {
	net := NewSimNet(42)
	defer net.Close()
	var received atomic.Int64
	if _, err := net.Join(ReplicaEndpoint(1), func(Endpoint, []byte) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(Faults{DropProb: 0.5})
	const total = 400
	for i := 0; i < total; i++ {
		if err := conn.Send(ReplicaEndpoint(1), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	got := received.Load()
	if got < total/4 || got > total*3/4 {
		t.Fatalf("with 50%% drop, delivered %d/%d — outside sanity band", got, total)
	}
}

func TestSimNetDuplicates(t *testing.T) {
	net := NewSimNet(7)
	defer net.Close()
	var received atomic.Int64
	if _, err := net.Join(ReplicaEndpoint(1), func(Endpoint, []byte) { received.Add(1) }); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(Faults{DupProb: 1.0})
	for i := 0; i < 10; i++ {
		if err := conn.Send(ReplicaEndpoint(1), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := received.Load(); got != 20 {
		t.Fatalf("with DupProb=1, delivered %d, want 20", got)
	}
}

func TestSimNetObserverSeesTraffic(t *testing.T) {
	net := NewSimNet(1)
	defer net.Close()
	var seen atomic.Int64
	net.AddObserver(func(from, to Endpoint, data []byte) {
		if bytes.Contains(data, []byte("secret")) {
			seen.Add(1)
		}
	})
	if _, err := net.Join(ReplicaEndpoint(1), func(Endpoint, []byte) {}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(ReplicaEndpoint(1), []byte("a secret message")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if seen.Load() != 1 {
		t.Fatal("observer did not see the message")
	}
}

func TestSimNetCloseRejectsSends(t *testing.T) {
	net := NewSimNet(1)
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if err := conn.Send(ReplicaEndpoint(0), []byte("x")); err == nil {
		t.Fatal("send on closed network succeeded")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	colServer := newCollector()
	server, err := ListenTCP(ReplicaEndpoint(0), "127.0.0.1:0", nil, colServer.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	addrs := map[uint32]string{0: server.Addr()}
	colClient := newCollector()
	client := DialTCP(ClientEndpoint(5), addrs, colClient.handle)
	defer client.Close()

	if err := client.Send(ReplicaEndpoint(0), []byte("request")); err != nil {
		t.Fatal(err)
	}
	colServer.wait(t, "client-5:request")

	// The server replies over the client's inbound connection.
	if err := server.Send(ClientEndpoint(5), []byte("reply")); err != nil {
		t.Fatal(err)
	}
	colClient.wait(t, "replica-0:reply")
}

func TestTCPReplicaMesh(t *testing.T) {
	const n = 3
	cols := make([]*collector, n)
	nodes := make([]*TCPNode, n)
	addrs := make(map[uint32]string, n)
	for i := 0; i < n; i++ {
		cols[i] = newCollector()
		node, err := ListenTCP(ReplicaEndpoint(uint32(i)), "127.0.0.1:0", nil, cols[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[uint32(i)] = node.Addr()
	}
	for i := 0; i < n; i++ {
		nodes[i].addrs = addrs
	}
	if err := nodes[0].BroadcastReplicas([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	cols[1].wait(t, "replica-0:hi")
	cols[2].wait(t, "replica-0:hi")
	if cols[0].count() != 0 {
		t.Fatal("broadcast reached the sender")
	}
}

func TestTCPLargeFrame(t *testing.T) {
	col := newCollector()
	server, err := ListenTCP(ReplicaEndpoint(0), "127.0.0.1:0", nil, func(from Endpoint, data []byte) {
		col.handle(from, []byte(fmt.Sprintf("%d", len(data))))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := DialTCP(ClientEndpoint(1), map[uint32]string{0: server.Addr()}, func(Endpoint, []byte) {})
	defer client.Close()
	big := make([]byte, 1<<20)
	if err := client.Send(ReplicaEndpoint(0), big); err != nil {
		t.Fatal(err)
	}
	col.wait(t, fmt.Sprintf("client-1:%d", 1<<20))
}

func TestTCPSendToUnknown(t *testing.T) {
	client := DialTCP(ClientEndpoint(1), nil, func(Endpoint, []byte) {})
	defer client.Close()
	if err := client.Send(ReplicaEndpoint(3), []byte("x")); err == nil {
		t.Fatal("send without address book entry succeeded")
	}
	if err := client.Send(ClientEndpoint(2), []byte("x")); err == nil {
		t.Fatal("client-to-client send succeeded")
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	server, err := ListenTCP(ReplicaEndpoint(0), "127.0.0.1:0", nil, func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := server.Send(ReplicaEndpoint(1), []byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestEndpointString(t *testing.T) {
	if got := ReplicaEndpoint(3).String(); got != "replica-3" {
		t.Fatalf("String = %q", got)
	}
	if got := ClientEndpoint(9).String(); got != "client-9" {
		t.Fatalf("String = %q", got)
	}
}

// TestSimNetLinkFaultsOverrideGlobal pins that a per-link override beats
// the global configuration, including a zero override that makes one link
// perfect while the rest of the network drops everything.
func TestSimNetLinkFaultsOverrideGlobal(t *testing.T) {
	net := NewSimNet(11)
	defer net.Close()
	var got1, got2 atomic.Int64
	if _, err := net.Join(ReplicaEndpoint(1), func(Endpoint, []byte) { got1.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join(ReplicaEndpoint(2), func(Endpoint, []byte) { got2.Add(1) }); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(Faults{DropProb: 1.0})
	net.SetLinkFaults(ReplicaEndpoint(0), ReplicaEndpoint(1), Faults{})
	for i := 0; i < 20; i++ {
		if err := conn.Send(ReplicaEndpoint(1), []byte("m")); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(ReplicaEndpoint(2), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := got1.Load(); got != 20 {
		t.Fatalf("overridden link delivered %d/20", got)
	}
	if got := got2.Load(); got != 0 {
		t.Fatalf("global-drop link delivered %d/0", got)
	}
	// Clearing the override puts the link back under the global config.
	net.ClearLinkFaults(ReplicaEndpoint(0), ReplicaEndpoint(1))
	for i := 0; i < 20; i++ {
		if err := conn.Send(ReplicaEndpoint(1), []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := got1.Load(); got != 20 {
		t.Fatalf("cleared link delivered %d new messages, want 0", got-20)
	}
}

// TestSimNetBlockOneWay pins asymmetric partitions: 0→1 cut, 1→0 alive.
func TestSimNetBlockOneWay(t *testing.T) {
	net := NewSimNet(3)
	defer net.Close()
	var at0, at1 atomic.Int64
	conn0, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) { at0.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	conn1, err := net.Join(ReplicaEndpoint(1), func(Endpoint, []byte) { at1.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	net.BlockOneWay(ReplicaEndpoint(0), ReplicaEndpoint(1))
	if err := conn0.Send(ReplicaEndpoint(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := conn1.Send(ReplicaEndpoint(0), []byte("y")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if at1.Load() != 0 {
		t.Fatal("blocked direction delivered")
	}
	if at0.Load() != 1 {
		t.Fatal("open direction did not deliver")
	}
	net.UnblockOneWay(ReplicaEndpoint(0), ReplicaEndpoint(1))
	if err := conn0.Send(ReplicaEndpoint(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if at1.Load() != 1 {
		t.Fatal("healed direction did not deliver")
	}
}

// faultTrace drives a fixed message schedule over two independent links
// and records the per-link fault-decision sequence.
func faultTrace(t *testing.T, seed int64) map[string][]string {
	t.Helper()
	net := NewSimNet(seed)
	defer net.Close()
	for id := uint32(1); id <= 2; id++ {
		if _, err := net.Join(ReplicaEndpoint(id), func(Endpoint, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	trace := make(map[string][]string)
	var mu sync.Mutex
	net.SetFaultObserver(func(ev FaultEvent) {
		mu.Lock()
		k := ev.From.String() + ">" + ev.To.String()
		trace[k] = append(trace[k], fmt.Sprintf("drop=%v dup=%v delay=%v", ev.Drop, ev.Dup, ev.Delay))
		mu.Unlock()
	})
	net.SetFaults(Faults{DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.5, Jitter: time.Millisecond})
	for i := 0; i < 50; i++ {
		if err := conn.Send(ReplicaEndpoint(1), []byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(ReplicaEndpoint(2), []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	return trace
}

// TestSimNetReplayEquality pins determinism: the same seed must yield the
// same per-link fault-decision sequence, and a different seed must not.
func TestSimNetReplayEquality(t *testing.T) {
	a := faultTrace(t, 99)
	b := faultTrace(t, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault sequences:\n%v\nvs\n%v", a, b)
	}
	c := faultTrace(t, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestTCPConcurrentDialClose is the regression test for the racing-dial
// leak: several goroutines on each of two nodes Send to the other at once,
// so dials race each other and the accepts from the far side, then the
// nodes are closed one after the other. Every connection made along the
// way must be known to Close — an orphaned one keeps a read loop waiting
// on a socket whose other end belongs to the node not yet closed, and
// Close never returns.
func TestTCPConcurrentDialClose(t *testing.T) {
	const senders = 4
	for iter := 0; iter < 200; iter++ {
		nodes := make([]*TCPNode, 2)
		addrs := make(map[uint32]string, 2)
		for i := range nodes {
			node, err := ListenTCP(ReplicaEndpoint(uint32(i)), "127.0.0.1:0", nil, func(Endpoint, []byte) {})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
			addrs[uint32(i)] = node.Addr()
		}
		for _, node := range nodes {
			node.addrs = addrs
		}
		var wg sync.WaitGroup
		for i, node := range nodes {
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(node *TCPNode, to Endpoint) {
					defer wg.Done()
					if err := node.Send(to, []byte("hello")); err != nil {
						t.Errorf("iteration %d: send to %v: %v", iter, to, err)
					}
				}(node, ReplicaEndpoint(uint32(1-i)))
			}
		}
		wg.Wait()
		closed := make(chan struct{})
		go func() {
			nodes[0].Close()
			nodes[1].Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(3 * time.Second):
			t.Fatalf("iteration %d: closing the two nodes one after the other hung: a connection escaped Close", iter)
		}
		if t.Failed() {
			return
		}
	}
}

// TestTCPSingleFlightDial: concurrent Sends to one unconnected peer share a
// single connection, and every frame arrives.
func TestTCPSingleFlightDial(t *testing.T) {
	var received atomic.Int64
	server, err := ListenTCP(ReplicaEndpoint(0), "127.0.0.1:0", nil, func(Endpoint, []byte) { received.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := DialTCP(ClientEndpoint(1), map[uint32]string{0: server.Addr()}, func(Endpoint, []byte) {})
	defer client.Close()
	const senders = 16
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := client.Send(ReplicaEndpoint(0), []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for received.Load() < senders && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := received.Load(); got != senders {
		t.Fatalf("received %d of %d frames", got, senders)
	}
	client.mu.Lock()
	open := len(client.live)
	client.mu.Unlock()
	if open != 1 {
		t.Fatalf("%d concurrent sends to an unconnected peer opened %d connections, want 1", senders, open)
	}
}

// TestTCPSenderBufferReuse is the TCP twin of TestSimNetSenderBufferReuse:
// the caller may reuse data as soon as Send returns.
func TestTCPSenderBufferReuse(t *testing.T) {
	col := newCollector()
	server, err := ListenTCP(ReplicaEndpoint(1), "127.0.0.1:0", nil, col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := DialTCP(ReplicaEndpoint(0), map[uint32]string{1: server.Addr()}, func(Endpoint, []byte) {})
	defer client.Close()
	buf := []byte("aaaa")
	if err := client.Send(ReplicaEndpoint(1), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "bbbb") // mutate after send
	col.wait(t, "replica-0:aaaa")
}

// rawPeer opens a bare socket to a node and introduces itself as self, the
// way a node's dial does, without a TCPNode behind it: a peer the test
// fully controls, down to never reading and never closing.
func rawPeer(t *testing.T, addr string, self Endpoint) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := writeHandshake(c, self); err != nil {
		t.Fatal(err)
	}
	return c
}

func (n *TCPNode) liveConns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.live)
}

// TestTCPReconnectRetiresSilentPeer: a peer that vanishes without closing
// its socket and then connects again must not leave the old connection
// behind for the life of the node. The old one is retired, not cut: a
// frame still in flight on it is delivered, Send uses the new one at once,
// and within the grace the node is back to one open socket.
func TestTCPReconnectRetiresSilentPeer(t *testing.T) {
	col := newCollector()
	server, err := ListenTCP(ReplicaEndpoint(0), "127.0.0.1:0", nil, col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	peer := ClientEndpoint(7)
	first := rawPeer(t, server.Addr(), peer)
	if _, err := first.Write(frameOf("before")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "client-7:before")

	second := rawPeer(t, server.Addr(), peer) // the first stays open and silent
	if _, err := second.Write(frameOf("reconnected")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "client-7:reconnected") // the new route is installed
	if _, err := first.Write(frameOf("in flight")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "client-7:in flight")
	if err := server.Send(peer, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(frameOf("reply")))
	second.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(second, got); err != nil || !bytes.Equal(got, frameOf("reply")) {
		t.Fatalf("new connection read %q (err %v), want the reply frame", got, err)
	}

	deadline := time.Now().Add(retireGrace + 2*time.Second)
	for server.liveConns() != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if open := server.liveConns(); open != 1 {
		t.Fatalf("%d sockets open after the peer reconnected, want 1", open)
	}
	// The survivor is the new one and still works both ways.
	if _, err := second.Write(frameOf("after")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "client-7:after")
}

// TestTCPCrossedDialsKeepBoth: a connection made in the other direction is
// not retired — each side may be routing the other's — so two nodes that
// dialled each other keep both, and no frame is lost past the grace.
func TestTCPCrossedDialsKeepBoth(t *testing.T) {
	cols := []*collector{newCollector(), newCollector()}
	nodes := make([]*TCPNode, 2)
	addrs := make(map[uint32]string, 2)
	for i := range nodes {
		node, err := ListenTCP(ReplicaEndpoint(uint32(i)), "127.0.0.1:0", nil, cols[i].handle)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[uint32(i)] = node.Addr()
	}
	for _, node := range nodes {
		node.addrs = addrs
	}
	// dial bypasses the route lookup, so both directions exist for certain.
	for i, node := range nodes {
		if _, err := node.dial(ReplicaEndpoint(uint32(1 - i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for (nodes[0].liveConns() != 2 || nodes[1].liveConns() != 2) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(retireGrace + 200*time.Millisecond)
	for i, node := range nodes {
		if open := node.liveConns(); open != 2 {
			t.Fatalf("node %d holds %d sockets after the grace, want both directions", i, open)
		}
		if err := node.Send(ReplicaEndpoint(uint32(1-i)), []byte("still here")); err != nil {
			t.Fatal(err)
		}
	}
	cols[0].wait(t, "replica-1:still here")
	cols[1].wait(t, "replica-0:still here")
}

func frameOf(s string) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(s))), s...)
}

// TestTCPFramesSent: the node's counter sees every frame, also from
// concurrent senders, and ResetStats zeroes it.
func TestTCPFramesSent(t *testing.T) {
	var received atomic.Int64
	server, err := ListenTCP(ReplicaEndpoint(0), "127.0.0.1:0", nil, func(Endpoint, []byte) { received.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := DialTCP(ClientEndpoint(1), map[uint32]string{0: server.Addr()}, func(Endpoint, []byte) {})
	defer client.Close()
	const senders, each = 4, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := client.Send(ReplicaEndpoint(0), []byte("frame")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < senders*each && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := received.Load(); got != senders*each {
		t.Fatalf("received %d of %d frames", got, senders*each)
	}
	if got := client.FramesSent(); got != senders*each {
		t.Fatalf("FramesSent = %d, want %d", got, senders*each)
	}
	client.ResetStats()
	if got := client.FramesSent(); got != 0 {
		t.Fatalf("FramesSent after reset = %d", got)
	}
}

// TestTCPPoisonExposesRetainedFrame: with the test hook on, a handler that
// keeps data (against the Handler contract) finds it overwritten as soon as
// it returned — not one frame later with plausible bytes of that frame. The
// handler looks at what it kept when the next, shorter frame arrives: same
// goroutine as the read loop, so the look is ordered after the poison.
func TestTCPPoisonExposesRetainedFrame(t *testing.T) {
	var kept []byte
	tail := make(chan []byte, 1)
	server, err := ListenTCP(ReplicaEndpoint(1), "127.0.0.1:0", nil, func(_ Endpoint, data []byte) {
		if kept == nil {
			kept = data
			return
		}
		tail <- append([]byte(nil), kept[len(data):]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := DialTCP(ReplicaEndpoint(0), map[uint32]string{1: server.Addr()}, func(Endpoint, []byte) {})
	defer client.Close()
	first := []byte("a frame the handler keeps")
	if err := client.Send(ReplicaEndpoint(1), first, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-tail:
		if want := bytes.Repeat([]byte{0xFF}, len(first)-1); !bytes.Equal(got, want) {
			t.Fatalf("retained frame still reads %q after the handler returned", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second frame never arrived")
	}
}

// TestTCPSendManyOneWrite: k frames passed to one Send reach the peer's
// handler as k messages in argument order and leave in one socket write;
// one oversized frame rejects the whole call before a byte is written; and
// a call that grew the write buffer past maxKeep does not leave it pinned.
func TestTCPSendManyOneWrite(t *testing.T) {
	col := newCollector()
	server, err := ListenTCP(ReplicaEndpoint(1), "127.0.0.1:0", nil, col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := DialTCP(ReplicaEndpoint(0), map[uint32]string{1: server.Addr()}, func(Endpoint, []byte) {})
	defer client.Close()
	to := ReplicaEndpoint(1)

	if err := client.Send(to, []byte("a"), []byte("bb"), nil, []byte("ccc")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "replica-0:ccc")
	if got, want := col.snapshot(), []string{"replica-0:a", "replica-0:bb", "replica-0:", "replica-0:ccc"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("received %v, want %v", got, want)
	}
	if f, w := client.FramesSent(), client.WritesTotal(); f != 4 || w != 1 {
		t.Fatalf("4 frames in one Send counted as %d frames in %d writes", f, w)
	}

	if err := client.Send(to, []byte("ok"), make([]byte, maxFrame+1)); err == nil {
		t.Fatal("Send accepted a frame over the limit")
	}
	if f, w := client.FramesSent(), client.WritesTotal(); f != 4 || w != 1 {
		t.Fatalf("rejected call moved the counters to %d frames in %d writes", f, w)
	}
	// Nothing of the rejected call was written: the next frame the peer
	// sees is the next one sent.
	if err := client.Send(to, []byte("after")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "replica-0:after")
	if got := col.count(); got != 5 {
		t.Fatalf("peer received %d frames, want 5: part of the rejected call went out", got)
	}

	big := bytes.Repeat([]byte("z"), maxKeep/2)
	if err := client.Send(to, big, big, big); err != nil {
		t.Fatal(err)
	}
	col.wait(t, "replica-0:"+string(big))
	client.mu.Lock()
	p := client.conns[to]
	client.mu.Unlock()
	p.mu.Lock()
	kept := cap(p.buf)
	p.mu.Unlock()
	if kept != 0 {
		t.Fatalf("connection kept a %d-byte write buffer after a call over maxKeep", kept)
	}
}

// deliveryLog joins a sender and one receiver on a faulty SimNet seeded with
// seed, lets send drive the sender, and returns every fault decision and
// every delivery the receiver saw, in order.
func deliveryLog(t *testing.T, seed int64, send func(c Conn, to Endpoint) error) (decisions, delivered []string) {
	t.Helper()
	net := NewSimNet(seed)
	defer net.Close()
	to := ReplicaEndpoint(1)
	done := make(chan struct{})
	if _, err := net.Join(to, func(_ Endpoint, data []byte) {
		if string(data) == "end" {
			close(done)
			return
		}
		delivered = append(delivered, string(data))
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Join(ReplicaEndpoint(0), func(Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaultObserver(func(ev FaultEvent) {
		decisions = append(decisions, fmt.Sprintf("drop=%v dup=%v delay=%v", ev.Drop, ev.Dup, ev.Delay))
	})
	// Reordering is drawn (the decisions must match) but moves nothing: a
	// jitter of one nanosecond rounds to no delay, so deliveries stay in
	// send order and the two logs compare exactly on any machine.
	net.SetFaults(Faults{DropProb: 0.3, DupProb: 0.3, ReorderProb: 0.5, Jitter: 1})
	for i := 0; i < 40; i++ {
		if err := send(conn, to); err != nil {
			t.Fatal(err)
		}
	}
	// The inbox is FIFO: a marker sent over the healed link arrives last.
	net.SetFaults(Faults{})
	if err := conn.Send(to, []byte("end")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("end marker never arrived")
	}
	return decisions, delivered
}

// TestSimNetSendManyEqualsSends is the chaos-replay guarantee of the
// multi-frame Send: under one seed, with drop, duplicate and reorder faults
// on, Send(to, a, b, c) draws the link's fault stream and delivers exactly
// as three Sends do, so a seeded plan replays the same whether or not its
// sender hands frames over in runs.
func TestSimNetSendManyEqualsSends(t *testing.T) {
	a, b, c := []byte("a"), []byte("b"), []byte("c")
	manyDec, manyDel := deliveryLog(t, 7, func(conn Conn, to Endpoint) error {
		return conn.Send(to, a, b, c)
	})
	eachDec, eachDel := deliveryLog(t, 7, func(conn Conn, to Endpoint) error {
		for _, f := range [][]byte{a, b, c} {
			if err := conn.Send(to, f); err != nil {
				return err
			}
		}
		return nil
	})
	if len(manyDec) != 120 {
		t.Fatalf("%d fault decisions for 120 frames", len(manyDec))
	}
	if !reflect.DeepEqual(manyDec, eachDec) {
		t.Fatalf("fault decisions differ:\n%v\nvs\n%v", manyDec, eachDec)
	}
	if !reflect.DeepEqual(manyDel, eachDel) {
		t.Fatalf("deliveries differ:\n%v\nvs\n%v", manyDel, eachDel)
	}
	if all := strings.Join(manyDec, " "); !strings.Contains(all, "drop=true") || !strings.Contains(all, "dup=true") {
		t.Fatalf("no drop or no duplicate among %d decisions: the faults did not bite", len(manyDec))
	}
}
