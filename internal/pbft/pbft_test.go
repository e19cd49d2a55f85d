package pbft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/client"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/transport"
)

// cluster is a 4-replica PBFT test harness over a simulated network.
type cluster struct {
	t        *testing.T
	n, f     int
	net      *transport.SimNet
	reg      *crypto.Registry
	secret   []byte
	replicas []*Replica
	apps     []*app.KVS
	clients  []*client.Client
}

// newCluster starts n PBFT replicas with KVS applications. mod can tweak
// each replica's Config before start.
func newCluster(t *testing.T, n, f int, mod func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t: t, n: n, f: f,
		net:    transport.NewSimNet(1),
		reg:    crypto.NewRegistry(),
		secret: []byte("pbft-test-secret"),
	}
	keys := make([]*crypto.KeyPair, n)
	for i := 0; i < n; i++ {
		keys[i] = crypto.MustGenerateKeyPair()
		c.reg.Register(ReplicaIdentity(uint32(i)), keys[i].Public)
	}
	for i := 0; i < n; i++ {
		kvs := app.NewKVS()
		c.apps = append(c.apps, kvs)
		cfg := Config{
			N: n, F: f, ID: uint32(i),
			Key:      keys[i],
			Registry: c.reg,
			MACs:     crypto.NewMACStore(c.secret, ReplicaIdentity(uint32(i))),
			App:      kvs,
			// Test-friendly defaults: small batches, fast timers.
			BatchSize:      1,
			BatchTimeout:   2 * time.Millisecond,
			RequestTimeout: 250 * time.Millisecond,
		}
		if mod != nil {
			mod(&cfg)
		}
		r, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := c.net.Join(transport.ReplicaEndpoint(uint32(i)), r.Handler())
		if err != nil {
			t.Fatal(err)
		}
		r.Start(conn)
		c.replicas = append(c.replicas, r)
	}
	t.Cleanup(c.stop)
	return c
}

func (c *cluster) stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

// client creates and attaches a new client with the given ID.
func (c *cluster) client(id uint32) *client.Client {
	return c.clientT(id, 8*time.Second)
}

// clientT creates a client with a custom per-invoke timeout.
func (c *cluster) clientT(id uint32, timeout time.Duration) *client.Client {
	c.t.Helper()
	cl, err := client.New(client.Config{
		ID: id, N: c.n, F: c.f,
		MACs:               crypto.NewMACStore(c.secret, crypto.Identity{ReplicaID: id, Role: crypto.RoleClient}),
		AuthReceivers:      BaselineAuthReceivers(c.n),
		ReplyRole:          crypto.RoleReplica,
		RetransmitInterval: 300 * time.Millisecond,
		Timeout:            timeout,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	conn, err := c.net.Join(transport.ClientEndpoint(id), cl.Handler())
	if err != nil {
		c.t.Fatal(err)
	}
	cl.Start(conn)
	c.clients = append(c.clients, cl)
	return cl
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBasicReplication(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	cl := c.client(100)
	res, err := cl.Invoke(app.EncodePut("greeting", []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("OK")) {
		t.Fatalf("put result = %q", res)
	}
	res, err = cl.Invoke(app.EncodeGet("greeting"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("hello")) {
		t.Fatalf("get result = %q", res)
	}
	// All replicas converge to identical state.
	waitFor(t, 3*time.Second, "replica convergence", func() bool {
		d := c.apps[0].Digest()
		for _, a := range c.apps[1:] {
			if a.Digest() != d {
				return false
			}
		}
		return true
	})
}

func TestSequentialOperations(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	cl := c.client(100)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%d", i%5)
		if _, err := cl.Invoke(app.EncodePut(key, []byte(fmt.Sprintf("v%d", i)))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	res, err := cl.Invoke(app.EncodeGet("k4"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("v29")) {
		t.Fatalf("final read = %q, want v29", res)
	}
	waitFor(t, 2*time.Second, "primary executes 31 ops", func() bool {
		return c.replicas[0].ExecutedOps() >= 31
	})
}

func TestBatchedMode(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *Config) {
		cfg.BatchSize = 10
		cfg.BatchTimeout = 5 * time.Millisecond
	})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cl := c.client(uint32(200 + i))
		wg.Add(1)
		go func(cl *client.Client, id int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("c%d-%d", id, j), []byte("v"))); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", id, j, err)
					return
				}
			}
		}(cl, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "all replicas executed 80 ops", func() bool {
		for _, r := range c.replicas {
			if r.ExecutedOps() < 80 {
				return false
			}
		}
		return true
	})
}

func TestCheckpointAdvancesWatermark(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *Config) {
		cfg.CheckpointInterval = 8
		cfg.WatermarkWindow = 16
	})
	cl := c.client(100)
	for i := 0; i < 20; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, "stable checkpoint >= 16 on all replicas", func() bool {
		for _, r := range c.replicas {
			if r.StableCheckpoint() < 16 {
				return false
			}
		}
		return true
	})
}

func TestViewChangeOnPrimaryFailure(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *Config) {
		cfg.RequestTimeout = 150 * time.Millisecond
	})
	cl := c.client(100)
	// Establish normal operation in view 0.
	if _, err := cl.Invoke(app.EncodePut("a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	// Kill the primary.
	c.net.Isolate(transport.ReplicaEndpoint(0))
	// The next request must still complete after a view change.
	res, err := cl.Invoke(app.EncodePut("b", []byte("2")))
	if err != nil {
		t.Fatalf("request did not survive primary failure: %v", err)
	}
	if !bytes.Equal(res, []byte("OK")) {
		t.Fatalf("result = %q", res)
	}
	for _, r := range c.replicas[1:] {
		if r.View() == 0 {
			t.Fatalf("replica %d still in view 0 after primary failure", r.cfg.ID)
		}
	}
	// And the system keeps working in the new view.
	if _, err := cl.Invoke(app.EncodePut("c", []byte("3"))); err != nil {
		t.Fatal(err)
	}
}

func TestViewChangePreservesCommittedState(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *Config) {
		cfg.RequestTimeout = 150 * time.Millisecond
	})
	cl := c.client(100)
	for i := 0; i < 5; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("pre%d", i), []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Isolate(transport.ReplicaEndpoint(0))
	if _, err := cl.Invoke(app.EncodePut("post", []byte("y"))); err != nil {
		t.Fatal(err)
	}
	// Reads of pre-view-change writes must still succeed (safety across
	// view changes).
	res, err := cl.Invoke(app.EncodeGet("pre3"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("x")) {
		t.Fatalf("lost committed write across view change: %q", res)
	}
}

// TestNewPrimaryProposesRequestSeenAsBackup: a request the backups saw once,
// while the primary was already unreachable, executes after the view change
// without any retransmission: the new primary proposes what it held as a
// backup.
func TestNewPrimaryProposesRequestSeenAsBackup(t *testing.T) {
	const timeout = 200 * time.Millisecond
	c := newCluster(t, 4, 1, func(cfg *Config) { cfg.RequestTimeout = timeout })
	c.net.Isolate(transport.ReplicaEndpoint(0))
	conn, err := c.net.Join(transport.ClientEndpoint(100), func(transport.Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	macs := crypto.NewMACStore(c.secret, crypto.Identity{ReplicaID: 100, Role: crypto.RoleClient})
	raw := (&clientRequest{clientID: 100, timestamp: 1, payload: app.EncodePut("k", []byte("v"))}).marshal(macs, c.n)
	for id := 1; id < c.n; id++ {
		if err := conn.Send(transport.ReplicaEndpoint(uint32(id)), raw); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*timeout, "the request executes in a later view", func() bool {
		executed := 0
		for _, r := range c.replicas[1:] {
			if r.ExecutedOps() > 0 {
				executed++
			}
		}
		return executed > c.f
	})
}

func TestLaggingReplicaCatchesUpViaStateTransfer(t *testing.T) {
	c := newCluster(t, 4, 1, func(cfg *Config) {
		cfg.CheckpointInterval = 5
		cfg.WatermarkWindow = 10
	})
	cl := c.client(100)
	// Cut replica 3 off; the other three keep the protocol live.
	c.net.Isolate(transport.ReplicaEndpoint(3))
	for i := 0; i < 12; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Heal and keep going: replica 3 must catch up via checkpoints/state
	// transfer.
	for i := 0; i < c.n; i++ {
		c.net.Unblock(transport.ReplicaEndpoint(3), transport.ReplicaEndpoint(uint32(i)))
	}
	c.net.Unblock(transport.ReplicaEndpoint(3), transport.ClientEndpoint(100))
	for i := 12; i < 25; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Event-driven convergence: keep a trickle of read-only ops flowing
	// until the laggard's state matches, instead of stopping traffic and
	// waiting on a fixed deadline. The old passive wait was load-flaky
	// (~1/5 under -count=5): commits past the final stable checkpoint
	// could fly by while replica 3's state transfer was still in flight,
	// and with traffic stopped nothing ever retransmitted the tail. Each
	// trickled Get advances the sequence number, so every
	// CheckpointInterval rounds produce a fresh stable certificate that
	// re-triggers state transfer; reads leave the compared KVS state
	// untouched, and the loop exits on the convergence event itself.
	deadline := time.Now().Add(20 * time.Second)
	for c.apps[3].Digest() != c.apps[0].Digest() {
		if time.Now().After(deadline) {
			t.Fatal("replica 3 did not converge via state transfer")
		}
		if _, err := cl.Invoke(app.EncodeGet("k0")); err != nil {
			t.Fatalf("convergence nudge: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDuplicateRequestsExecuteOnce(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	cl := c.client(100)
	if _, err := cl.Invoke(app.EncodePut("ctr", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "replica 1 executes the first op", func() bool {
		return c.replicas[1].ExecutedOps() == 1
	})
	before := c.replicas[1].ExecutedOps()
	// Retransmissions happen inside Invoke automatically; instead force
	// duplicates by sending the same raw request repeatedly via a second
	// network identity. Craft the request exactly as the client would.
	macs := crypto.NewMACStore(c.secret, crypto.Identity{ReplicaID: 100, Role: crypto.RoleClient})
	req := &clientRequest{clientID: 100, timestamp: 1, payload: app.EncodePut("ctr", []byte("1"))}
	raw := req.marshal(macs, c.n)
	conn, err := c.net.Join(transport.ClientEndpoint(999), func(transport.Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for id := 0; id < c.n; id++ {
			if err := conn.Send(transport.ReplicaEndpoint(uint32(id)), raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	time.Sleep(300 * time.Millisecond)
	if got := c.replicas[1].ExecutedOps(); got != before {
		t.Fatalf("duplicates executed: ops %d -> %d", before, got)
	}
}

func TestTamperedRequestRejected(t *testing.T) {
	c := newCluster(t, 4, 1, nil)
	// A request MAC'd with the wrong secret must be dropped by all
	// replicas.
	macs := crypto.NewMACStore([]byte("wrong-secret"), crypto.Identity{ReplicaID: 100, Role: crypto.RoleClient})
	req := &clientRequest{clientID: 100, timestamp: 1, payload: app.EncodePut("x", []byte("1"))}
	raw := req.marshal(macs, c.n)
	conn, err := c.net.Join(transport.ClientEndpoint(100), func(transport.Endpoint, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.n; id++ {
		if err := conn.Send(transport.ReplicaEndpoint(uint32(id)), raw); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	for i, r := range c.replicas {
		if r.ExecutedOps() != 0 {
			t.Fatalf("replica %d executed a forged request", i)
		}
		if r.DroppedMsgs() == 0 {
			t.Fatalf("replica %d did not count the forged request as dropped", i)
		}
	}
}

func TestFaultyNetworkStillLive(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection timing test")
	}
	c := newCluster(t, 4, 1, func(cfg *Config) {
		cfg.RequestTimeout = 200 * time.Millisecond
	})
	c.net.SetFaults(transport.Faults{DropProb: 0.02, ReorderProb: 0.2, Jitter: 2 * time.Millisecond})
	cl := c.clientT(100, 30*time.Second)
	for i := 0; i < 15; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			for j, r := range c.replicas {
				t.Logf("replica %d: view=%d inVC=%v lastExec=%d stable=%d",
					j, r.View(), r.InViewChange(), r.LastExecuted(), r.StableCheckpoint())
			}
			t.Fatalf("op %d under faulty network: %v", i, err)
		}
	}
}

// clientRequest builds raw Request envelopes for adversarial tests.
type clientRequest struct {
	clientID  uint32
	timestamp uint64
	payload   []byte
}

func (cr *clientRequest) marshal(macs *crypto.MACStore, n int) []byte {
	req := &messages.Request{
		ClientID:  cr.clientID,
		Timestamp: cr.timestamp,
		Payload:   cr.payload,
	}
	req.Auth = macs.Authenticate(req.AuthenticatedBytes(), BaselineAuthReceivers(n))
	return messages.Marshal(req)
}
