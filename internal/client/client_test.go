package client

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/transport"
)

// fakeReplicaGroup emulates n replicas answering client requests directly
// over the simnet, without running any agreement — enough to unit-test the
// client's quorum, retransmission, and authentication logic in isolation.
type fakeReplicaGroup struct {
	t      *testing.T
	n, f   int
	secret []byte
	net    *transport.SimNet

	mu sync.Mutex
	// respond computes a reply payload per replica; nil suppresses the
	// reply (to exercise retransmission and partial quorums).
	respond func(replica uint32, req *messages.Request) []byte
	// seen counts requests per replica.
	seen map[uint32]int
}

func newFakeGroup(t *testing.T, respond func(uint32, *messages.Request) []byte) *fakeReplicaGroup {
	t.Helper()
	g := &fakeReplicaGroup{
		t: t, n: 4, f: 1,
		secret:  []byte("client-test-secret"),
		net:     transport.NewSimNet(1),
		respond: respond,
		seen:    make(map[uint32]int),
	}
	for i := 0; i < g.n; i++ {
		id := uint32(i)
		macs := crypto.NewMACStore(g.secret, crypto.Identity{ReplicaID: id, Role: crypto.RoleReplica})
		// The handler needs the conn to reply; bind it after Join.
		var conn transport.Conn
		handler := func(from transport.Endpoint, data []byte) {
			m, err := messages.Unmarshal(data)
			if err != nil {
				return
			}
			req, ok := m.(*messages.Request)
			if !ok {
				return
			}
			g.mu.Lock()
			g.seen[id]++
			fn := g.respond
			g.mu.Unlock()
			if fn == nil {
				return
			}
			result := fn(id, req)
			if result == nil {
				return
			}
			rep := &messages.Reply{
				ClientID:  req.ClientID,
				Timestamp: req.Timestamp,
				Replica:   id,
				Result:    result,
			}
			rep.MAC = macs.MAC(rep.AuthenticatedBytes(),
				crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient})
			_ = conn.Send(from, messages.Marshal(rep))
		}
		c, err := g.net.Join(transport.ReplicaEndpoint(id), handler)
		if err != nil {
			t.Fatal(err)
		}
		conn = c
	}
	t.Cleanup(g.net.Close)
	return g
}

func (g *fakeReplicaGroup) requests(replica uint32) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seen[replica]
}

func (g *fakeReplicaGroup) client(t *testing.T, timeout time.Duration) *Client {
	t.Helper()
	cl, err := New(Config{
		ID: 100, N: g.n, F: g.f,
		MACs: crypto.NewMACStore(g.secret, crypto.Identity{ReplicaID: 100, Role: crypto.RoleClient}),
		AuthReceivers: func() []crypto.Identity {
			out := make([]crypto.Identity, g.n)
			for i := range out {
				out[i] = crypto.Identity{ReplicaID: uint32(i), Role: crypto.RoleReplica}
			}
			return out
		}(),
		ReplyRole:          crypto.RoleReplica,
		RetransmitInterval: 100 * time.Millisecond,
		Timeout:            timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := g.net.Join(transport.ClientEndpoint(100), cl.Handler())
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(conn)
	t.Cleanup(cl.Close)
	return cl
}

func TestClientCollectsQuorum(t *testing.T) {
	g := newFakeGroup(t, func(uint32, *messages.Request) []byte { return []byte("result") })
	cl := g.client(t, 2*time.Second)
	res, err := cl.Invoke([]byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("result")) {
		t.Fatalf("result = %q", res)
	}
}

func TestClientNeedsFPlusOneMatching(t *testing.T) {
	// Only one replica answers: f+1 = 2 matching replies never arrive.
	g := newFakeGroup(t, func(id uint32, _ *messages.Request) []byte {
		if id == 0 {
			return []byte("lonely")
		}
		return nil
	})
	cl := g.client(t, 400*time.Millisecond)
	if _, err := cl.Invoke([]byte("op")); err == nil {
		t.Fatal("single reply satisfied the quorum")
	}
}

func TestClientToleratesDivergentMinority(t *testing.T) {
	// One Byzantine replica replies garbage; the other three agree. The
	// client must return the majority result.
	g := newFakeGroup(t, func(id uint32, _ *messages.Request) []byte {
		if id == 3 {
			return []byte("evil")
		}
		return []byte("good")
	})
	cl := g.client(t, 2*time.Second)
	res, err := cl.Invoke([]byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("good")) {
		t.Fatalf("client returned minority result %q", res)
	}
}

func TestClientRejectsBadReplyMAC(t *testing.T) {
	// Replies computed with the wrong MAC secret must be ignored.
	wrong := crypto.NewMACStore([]byte("wrong"), crypto.Identity{ReplicaID: 0, Role: crypto.RoleReplica})
	g := newFakeGroup(t, nil)
	g.mu.Lock()
	g.respond = nil
	g.mu.Unlock()
	// Custom responder producing bad MACs for all replicas.
	var mu sync.Mutex
	badMACs := 0
	g.mu.Lock()
	g.respond = func(id uint32, req *messages.Request) []byte {
		mu.Lock()
		badMACs++
		mu.Unlock()
		return []byte("x")
	}
	g.mu.Unlock()
	_ = wrong
	// Instead of plumbing bad MACs through the fake group, verify directly
	// via onReply: a reply with a corrupted MAC is dropped.
	cl := g.client(t, 300*time.Millisecond)
	rep := &messages.Reply{ClientID: 100, Timestamp: 1, Replica: 0, Result: []byte("x")}
	rep.MAC = [crypto.MACSize]byte{1, 2, 3} // garbage
	cl.onReply(rep)
	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending != 0 {
		t.Fatal("forged reply created pending state")
	}
}

func TestClientRetransmits(t *testing.T) {
	// Replicas stay silent for the first two deliveries, then answer:
	// the client's retransmission must eventually succeed.
	var mu sync.Mutex
	drops := make(map[uint32]int)
	g := newFakeGroup(t, nil)
	g.mu.Lock()
	g.respond = func(id uint32, _ *messages.Request) []byte {
		mu.Lock()
		defer mu.Unlock()
		drops[id]++
		if drops[id] <= 2 {
			return nil
		}
		return []byte("late")
	}
	g.mu.Unlock()
	cl := g.client(t, 5*time.Second)
	start := time.Now()
	res, err := cl.Invoke([]byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("late")) {
		t.Fatalf("result = %q", res)
	}
	if time.Since(start) < 150*time.Millisecond {
		t.Fatal("success came before any retransmission was possible")
	}
	// A "late" reply implies its replica had already seen 3 deliveries, so
	// at least one replica must be at >= 3. (Asserting on one specific
	// replica would race: Invoke returns on a reply quorum while the last
	// retransmission round may still be in flight to the others.)
	maxSeen := 0
	for id := uint32(0); id < 4; id++ {
		if n := g.requests(id); n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen < 3 {
		t.Fatalf("max requests seen by any replica = %d, want >= 3 (retransmissions)", maxSeen)
	}
}

func TestClientConcurrentInvokes(t *testing.T) {
	g := newFakeGroup(t, func(_ uint32, req *messages.Request) []byte {
		return append([]byte("r"), req.Payload...)
	})
	cl := g.client(t, 3*time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := []byte{byte(i)}
			res, err := cl.Invoke(op)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(res, append([]byte("r"), op...)) {
				t.Errorf("cross-talk between concurrent invokes: %q", res)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	g := newFakeGroup(t, nil) // nobody answers
	cl := g.client(t, 10*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Invoke([]byte("op"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Invoke succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Invoke did not return after Close")
	}
	if _, err := cl.Invoke([]byte("op2")); err == nil {
		t.Fatal("Invoke on closed client succeeded")
	}
}

func TestClientConfidentialRequiresAttest(t *testing.T) {
	g := newFakeGroup(t, nil)
	cl, err := New(Config{
		ID: 100, N: g.n, F: g.f,
		MACs:          crypto.NewMACStore(g.secret, crypto.Identity{ReplicaID: 100, Role: crypto.RoleClient}),
		AuthReceivers: []crypto.Identity{{ReplicaID: 0, Role: crypto.RoleReplica}},
		ReplyRole:     crypto.RoleReplica,
		Confidential:  true,
		Registry:      crypto.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := g.net.Join(transport.ClientEndpoint(101), cl.Handler())
	if err != nil {
		t.Fatal(err)
	}
	cl.Start(conn)
	defer cl.Close()
	if _, err := cl.Invoke([]byte("op")); err != ErrNotAttested {
		t.Fatalf("Invoke before Attest = %v, want ErrNotAttested", err)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	macs := crypto.NewMACStore([]byte("s"), crypto.Identity{ReplicaID: 1, Role: crypto.RoleClient})
	if _, err := New(Config{MACs: macs}); err == nil {
		t.Fatal("config without receivers accepted")
	}
	if _, err := New(Config{
		MACs:          macs,
		AuthReceivers: []crypto.Identity{{ReplicaID: 0, Role: crypto.RoleReplica}},
		Confidential:  true,
	}); err == nil {
		t.Fatal("confidential config without registry accepted")
	}
}
