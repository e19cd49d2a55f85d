package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/client"
	"github.com/splitbft/splitbft/internal/compartment/execution"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// cluster is a SplitBFT test harness over a simulated network: 4 replicas
// (newCluster) or any group shape (newClusterN).
type cluster struct {
	t        *testing.T
	n, f     int
	net      *transport.SimNet
	reg      *crypto.Registry
	secret   []byte
	replicas []*Replica
	kvs      []*app.KVS
	chains   []*app.Blockchain
	clients  []*client.Client
	conf     bool
}

type clusterOpt func(*Config)

func withConfidential(c *Config) { c.Confidential = true }
func withSingleThread(c *Config) { c.SingleThread = true }
func withBlockchain(_ *Config)   {} // marker; handled in newCluster
func withFastTimers(c *Config) {
	c.BatchSize = 1
	c.BatchTimeout = 2 * time.Millisecond
	c.RequestTimeout = 250 * time.Millisecond
}

// newCluster starts a classic 3f+1 = 4 replica group. useBlockchain
// selects the app.
func newCluster(t *testing.T, useBlockchain bool, opts ...clusterOpt) *cluster {
	t.Helper()
	return newClusterN(t, 4, 1, useBlockchain, opts...)
}

// newClusterN starts n SplitBFT replicas tolerating f faults.
func newClusterN(t *testing.T, n, f int, useBlockchain bool, opts ...clusterOpt) *cluster {
	t.Helper()
	c := &cluster{
		t: t, n: n, f: f,
		net:    transport.NewSimNet(1),
		reg:    crypto.NewRegistry(),
		secret: []byte("split-test-secret"),
	}
	for i := 0; i < c.n; i++ {
		var a app.Application
		if useBlockchain {
			bc := app.NewBlockchain(app.DefaultBlockSize, nil)
			c.chains = append(c.chains, bc)
			a = bc
		} else {
			kvs := app.NewKVS()
			c.kvs = append(c.kvs, kvs)
			a = kvs
		}
		cfg := Config{Registry: c.reg, App: a}
		cfg.N, cfg.F, cfg.ID, cfg.MACSecret = c.n, c.f, uint32(i), c.secret
		withFastTimers(&cfg)
		for _, opt := range opts {
			opt(&cfg)
		}
		c.conf = cfg.Confidential
		r, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.replicas = append(c.replicas, r)
	}
	for i, r := range c.replicas {
		conn, err := c.net.Join(transport.ReplicaEndpoint(uint32(i)), r.Handler())
		if err != nil {
			t.Fatal(err)
		}
		r.Start(conn)
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) stopAll() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	c.net.Close()
}

// client creates, attaches, and (in confidential mode) attests a client.
func (c *cluster) client(id uint32) *client.Client {
	c.t.Helper()
	cl, err := client.New(client.Config{
		ID: id, N: c.n, F: c.f,
		MACs:               crypto.NewMACStore(c.secret, crypto.Identity{ReplicaID: id, Role: crypto.RoleClient}),
		AuthReceivers:      RequestAuthReceivers(c.n),
		ReplyRole:          crypto.RoleExecution,
		Confidential:       c.conf,
		Registry:           c.reg,
		ExecMeasurement:    execution.Measurement(),
		RetransmitInterval: 300 * time.Millisecond,
		// Generous: view-change tests share the machine with CPU-heavy
		// benchmark packages under `go test ./...`, and the simulated
		// enclave-transition costs spin-wait.
		Timeout: 30 * time.Second,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	conn, err := c.net.Join(transport.ClientEndpoint(id), cl.Handler())
	if err != nil {
		c.t.Fatal(err)
	}
	cl.Start(conn)
	if err := cl.Attest(); err != nil {
		c.t.Fatalf("attest: %v", err)
	}
	c.clients = append(c.clients, cl)
	return cl
}

// testRequest is client clientID's request at ts, MAC-authenticated to
// every compartment that checks it in an n-replica group keyed from
// macSecret.
func testRequest(macSecret []byte, n int, clientID uint32, ts uint64, op []byte) messages.Request {
	req := messages.Request{ClientID: clientID, Timestamp: ts, Payload: op}
	macs := crypto.NewMACStore(macSecret, crypto.Identity{ReplicaID: clientID, Role: crypto.RoleClient})
	req.Auth = macs.Authenticate(req.AuthenticatedBytes(), RequestAuthReceivers(n))
	return req
}

// findMsg extracts the first message of a type from enclave outputs.
func findMsg[T messages.Message](t *testing.T, out []tee.OutMsg, kind tee.DestKind) (T, bool) {
	t.Helper()
	var zero T
	for i := range out {
		if out[i].Kind != kind {
			continue
		}
		m, err := messages.Unmarshal(out[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if typed, ok := m.(T); ok {
			return typed, true
		}
	}
	return zero, false
}

// wrapMessage frames a wire message as the broker delivers it to an enclave.
func wrapMessage(data []byte) []byte { return frameMessage(data, 1).buf }

// wrapBatch frames a request batch as the broker delivers it to Preparation.
func wrapBatch(b *messages.Batch) []byte { return frameBatch(b).buf }

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

func TestSplitBasicReplication(t *testing.T) {
	c := newCluster(t, false)
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
	waitFor(t, 3*time.Second, "replica convergence", func() bool {
		d := c.kvs[0].Digest()
		for _, a := range c.kvs[1:] {
			if a.Digest() != d {
				return false
			}
		}
		return true
	})
}

func TestSplitConfidentialReplication(t *testing.T) {
	c := newCluster(t, false, withConfidential)
	cl := c.client(100)
	for i := 0; i < 10; i++ {
		res, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("secret-value")))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(res, []byte("OK")) {
			t.Fatalf("op %d result = %q", i, res)
		}
	}
	res, err := cl.Invoke(app.EncodeGet("k3"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("secret-value")) {
		t.Fatalf("get = %q", res)
	}
}

func TestSplitConfidentialityOnTheWire(t *testing.T) {
	// No plaintext of requests, keys or values may ever appear in any
	// network message: only the Execution enclaves hold the session key.
	c := newCluster(t, false, withConfidential)
	secretKey := "classified-key-material"
	secretVal := "top-secret-payload-42"
	var leaks int
	var mu sync.Mutex
	c.net.AddObserver(func(from, to transport.Endpoint, data []byte) {
		if bytes.Contains(data, []byte(secretKey)) || bytes.Contains(data, []byte(secretVal)) {
			mu.Lock()
			leaks++
			mu.Unlock()
		}
	})
	cl := c.client(100)
	if _, err := cl.Invoke(app.EncodePut(secretKey, []byte(secretVal))); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Invoke(app.EncodeGet(secretKey))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte(secretVal)) {
		t.Fatalf("round trip = %q", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if leaks != 0 {
		t.Fatalf("plaintext observed %d times on the wire", leaks)
	}
}

func TestSplitMultipleClients(t *testing.T) {
	c := newCluster(t, false, func(cfg *Config) {
		cfg.BatchSize = 10
		cfg.BatchTimeout = 5 * time.Millisecond
	})
	const clients = 6
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
	waitFor(t, 3*time.Second, "all replicas reply to 60 ops", func() bool {
		for _, r := range c.replicas {
			if r.ExecutedOps() < 60 {
				return false
			}
		}
		return true
	})
}

func TestSplitBlockchain(t *testing.T) {
	c := newCluster(t, true, withConfidential)
	cl := c.client(100)
	// 12 transactions → 2 sealed blocks of 5 with 2 pending.
	for i := 0; i < 12; i++ {
		if _, err := cl.Invoke([]byte(fmt.Sprintf("tx-%d", i))); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, "chains converge at height 2", func() bool {
		for _, bc := range c.chains {
			if bc.Height() != 2 {
				return false
			}
		}
		return true
	})
	for i, bc := range c.chains {
		if err := app.VerifyChain(bc.Headers()); err != nil {
			t.Fatalf("replica %d chain: %v", i, err)
		}
	}
	// Blocks are persisted via the sealed-ocall path, and the sealed bytes
	// must not contain transaction plaintext.
	for i, r := range c.replicas {
		if r.PersistedBlocks() != 2 {
			t.Fatalf("replica %d persisted %d blocks, want 2", i, r.PersistedBlocks())
		}
	}
	for _, blk := range c.replicas[0].broker.blocks {
		if bytes.Contains(blk, []byte("tx-")) {
			t.Fatal("persisted block leaks transaction plaintext")
		}
	}
}

func TestSplitSingleThreadMode(t *testing.T) {
	c := newCluster(t, false, withSingleThread)
	cl := c.client(100)
	for i := 0; i < 10; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestSplitViewChangeOnPrimaryFailure(t *testing.T) {
	c := newCluster(t, false, func(cfg *Config) {
		cfg.RequestTimeout = 150 * time.Millisecond
	})
	cl := c.client(100)
	if _, err := cl.Invoke(app.EncodePut("a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	c.net.Isolate(transport.ReplicaEndpoint(0))
	res, err := cl.Invoke(app.EncodePut("b", []byte("2")))
	if err != nil {
		t.Fatalf("request did not survive primary failure: %v", err)
	}
	if !bytes.Equal(res, []byte("OK")) {
		t.Fatalf("result = %q", res)
	}
	// Committed state survives the view change.
	res, err = cl.Invoke(app.EncodeGet("a"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, []byte("1")) {
		t.Fatalf("lost committed write: %q", res)
	}
}

func TestSplitToleratesOneFaultyEnclavePerType(t *testing.T) {
	// The Figure 1 scenario: one enclave of each compartment type fails,
	// each on a different replica — more total faults than f=1 replicas —
	// and the system must stay safe and live.
	c := newCluster(t, false)
	cl := c.client(100)
	if _, err := cl.Invoke(app.EncodePut("before", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	c.replicas[1].CrashEnclave(crypto.RolePreparation)
	c.replicas[2].CrashEnclave(crypto.RoleConfirmation)
	c.replicas[3].CrashEnclave(crypto.RoleExecution)
	for i := 0; i < 5; i++ {
		res, err := cl.Invoke(app.EncodePut(fmt.Sprintf("after%d", i), []byte("y")))
		if err != nil {
			t.Fatalf("op %d with one faulty enclave per type: %v", i, err)
		}
		if !bytes.Equal(res, []byte("OK")) {
			t.Fatalf("op %d result = %q", i, res)
		}
	}
	// The three healthy-execution replicas converge; replica 3's app
	// is frozen at the time its Execution enclave crashed.
	waitFor(t, 3*time.Second, "healthy replicas converge", func() bool {
		d := c.kvs[0].Digest()
		return c.kvs[1].Digest() == d && c.kvs[2].Digest() == d
	})
}

func TestSplitCheckpointingUnderLoad(t *testing.T) {
	c := newCluster(t, false, func(cfg *Config) {
		cfg.CheckpointInterval = 8
		cfg.WatermarkWindow = 16
	})
	cl := c.client(100)
	// More sequence numbers than the window: progress proves checkpoints
	// advance the watermark (otherwise the window would exhaust and stall).
	for i := 0; i < 40; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestSplitLaggingReplicaCatchesUp(t *testing.T) {
	c := newCluster(t, false, func(cfg *Config) {
		cfg.CheckpointInterval = 5
		cfg.WatermarkWindow = 10
	})
	cl := c.client(100)
	c.net.Isolate(transport.ReplicaEndpoint(3))
	for i := 0; i < 12; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i := 0; i < c.n; i++ {
		c.net.Unblock(transport.ReplicaEndpoint(3), transport.ReplicaEndpoint(uint32(i)))
	}
	c.net.Unblock(transport.ReplicaEndpoint(3), transport.ClientEndpoint(100))
	for i := 12; i < 25; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "replica 3 converges", func() bool {
		return c.kvs[3].Digest() == c.kvs[0].Digest()
	})
}

func TestSplitUnattestedConfidentialClientGetsNoOp(t *testing.T) {
	// A client that never provisioned a session key sends garbage payload;
	// the Execution compartment must answer with the no-op result rather
	// than fail (§4.1).
	c := newCluster(t, false, withConfidential)
	// Attested client first, to prove the cluster works.
	good := c.client(100)
	if _, err := good.Invoke(app.EncodePut("a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	// Unattested client with valid MACs but unencrypted payload.
	bad, err := client.New(client.Config{
		ID: 101, N: c.n, F: c.f,
		MACs:          crypto.NewMACStore(c.secret, crypto.Identity{ReplicaID: 101, Role: crypto.RoleClient}),
		AuthReceivers: RequestAuthReceivers(c.n),
		ReplyRole:     crypto.RoleExecution,
		Timeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.net.Join(transport.ClientEndpoint(101), bad.Handler())
	if err != nil {
		t.Fatal(err)
	}
	bad.Start(conn)
	defer bad.Close()
	res, err := bad.Invoke(app.EncodePut("b", []byte("2")))
	if err != nil {
		t.Fatalf("no-op reply did not arrive: %v", err)
	}
	if !bytes.Equal(res, app.NoOpResult) {
		t.Fatalf("unattested client got %q, want no-op", res)
	}
	// State must be unaffected.
	got, err := good.Invoke(app.EncodeGet("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("NOTFOUND")) {
		t.Fatalf("unattested write took effect: %q", got)
	}
}

// TestLeaseTTLClampedToDetectionPeriod: a lease must never outlive
// view-change detection, whatever the caller asked for — withDefaults
// clamps the TTL to RequestTimeout/4 (and defaults a zero TTL there).
func TestLeaseTTLClampedToDetectionPeriod(t *testing.T) {
	base := Config{RequestTimeout: 400 * time.Millisecond}
	if got := base.withDefaults().LeaseTTL; got != 100*time.Millisecond {
		t.Fatalf("default LeaseTTL = %v, want RequestTimeout/4 = 100ms", got)
	}
	base.LeaseTTL = 2 * time.Second // 5× the detection period: unsafe
	if got := base.withDefaults().LeaseTTL; got != 100*time.Millisecond {
		t.Fatalf("oversized LeaseTTL clamped to %v, want 100ms", got)
	}
	base.LeaseTTL = 20 * time.Millisecond // below the clamp: honored
	if got := base.withDefaults().LeaseTTL; got != 20*time.Millisecond {
		t.Fatalf("small LeaseTTL rewritten to %v, want 20ms", got)
	}
}
