// Package client implements the SplitBFT/PBFT client library: request
// authentication (HMAC vectors), reply-quorum collection (f+1 matching
// replies), retransmission, and — for the confidential SplitBFT mode —
// enclave attestation, session-key provisioning and end-to-end payload
// encryption (paper §4.1).
package client

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// Errors returned by Invoke and Attest.
var (
	ErrTimeout     = errors.New("client: request timed out")
	ErrClosed      = errors.New("client: closed")
	ErrNotAttested = errors.New("client: confidential mode requires Attest first")
)

// Config parameterizes a client.
type Config struct {
	// ID is the client's unique identifier.
	ID uint32
	// N and F describe the replica group.
	N, F int
	// MACs holds the client's pairwise MAC keys.
	MACs *crypto.MACStore
	// AuthReceivers is the request MAC-vector layout (one identity per
	// slot). Baseline: one slot per replica. SplitBFT: Preparation then
	// Execution enclaves.
	AuthReceivers []crypto.Identity
	// ReplyRole is the role whose identity authenticates replies
	// (RoleReplica for the baseline, RoleExecution for SplitBFT).
	ReplyRole crypto.Role
	// Confidential enables end-to-end payload encryption to the Execution
	// enclaves. Requires Attest before Invoke.
	Confidential bool
	// Registry and ExecMeasurement verify attestation quotes in
	// confidential mode.
	Registry        *crypto.Registry
	ExecMeasurement crypto.Digest
	// ReadLeases routes InvokeRead through the leased local read fast path:
	// the read goes to a single replica (spread round-robin across the
	// group), which serves it once it has applied a read-index frontier
	// sampled after the read arrived, and one attested reply resolves it. A
	// refused or lost fast-path read falls back to the full agreement path,
	// so the worst case is one extra round-trip on top of a classic read.
	// Off, InvokeRead is identical to Invoke.
	ReadLeases bool
	// RetransmitInterval is how long to wait for a reply quorum before
	// resending the request to all replicas. Default
	// defaults.RetransmitInterval, aligned with the replica failure
	// detector's request timeout.
	RetransmitInterval time.Duration
	// Timeout bounds one Invoke end-to-end. Default
	// defaults.InvokeTimeout.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.RetransmitInterval == 0 {
		c.RetransmitInterval = defaults.RetransmitInterval
	}
	if c.Timeout == 0 {
		c.Timeout = defaults.InvokeTimeout
	}
	return c
}

// call tracks one in-flight request.
type call struct {
	done    chan []byte // resolved result (plaintext)
	replies map[uint32][]byte
	sealed  bool // whether results must be decrypted before matching
}

// Client is a closed-loop BFT client. It is safe for concurrent Invokes;
// each concurrent Invoke uses a distinct timestamp.
type Client struct {
	cfg  Config
	conn transport.Conn

	ts atomic.Uint64

	// readRR spreads fast-path reads round-robin across replicas; seeded
	// with the client ID so a fleet of clients doesn't converge on one
	// replica.
	readRR atomic.Uint32
	// resends counts write retransmissions (see Resends).
	resends atomic.Uint64

	mu           sync.Mutex
	pending      map[uint64]*call
	pendingReads map[uint64]chan *messages.ReadReply
	closed       bool

	// Confidential-mode session state.
	sessionKey crypto.SessionKey
	sendSess   *crypto.Session
	recvSess   *crypto.Session
	attested   atomic.Bool

	// attestation handshake plumbing
	attestMu sync.Mutex
	quoteCh  chan *messages.AttestQuote
}

// New builds a client from cfg.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.MACs == nil {
		return nil, errors.New("client: MACs required")
	}
	if len(cfg.AuthReceivers) == 0 {
		return nil, errors.New("client: AuthReceivers required")
	}
	if cfg.Confidential && cfg.Registry == nil {
		return nil, errors.New("client: confidential mode requires Registry")
	}
	c := &Client{
		cfg:          cfg,
		pending:      make(map[uint64]*call),
		pendingReads: make(map[uint64]chan *messages.ReadReply),
		quoteCh:      make(chan *messages.AttestQuote, 16),
	}
	c.readRR.Store(cfg.ID)
	// Timestamps seed from the wall clock (as in PBFT) rather than zero:
	// exactly-once execution is keyed by (client, timestamp), so a
	// restarted client process reusing its ID must not collide with its
	// predecessor's timestamps — it would be served stale cached replies
	// instead of executing. Within one process the counter stays strictly
	// monotonic regardless of clock behavior.
	c.ts.Store(uint64(time.Now().UnixNano()))
	return c, nil
}

// Handler returns the transport handler for this client's endpoint.
func (c *Client) Handler() transport.Handler {
	return func(from transport.Endpoint, data []byte) {
		m, err := messages.Unmarshal(data)
		if err != nil {
			return
		}
		switch msg := m.(type) {
		case *messages.Reply:
			c.onReply(msg)
		case *messages.ReadReply:
			c.onReadReply(msg)
		case *messages.AttestQuote:
			select {
			case c.quoteCh <- msg:
			default:
			}
		}
	}
}

// Start attaches the transport connection.
func (c *Client) Start(conn transport.Conn) { c.conn = conn }

// Close fails all pending calls.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for ts, call := range c.pending {
		close(call.done)
		delete(c.pending, ts)
	}
	for ts, ch := range c.pendingReads {
		close(ch)
		delete(c.pendingReads, ts)
	}
}

// Attest runs the attestation + key-provisioning handshake with every
// replica's Execution enclave and installs the service-wide session key
// s_enc (paper §4.1). It must complete before confidential Invokes.
func (c *Client) Attest() error {
	if !c.cfg.Confidential {
		return nil
	}
	c.attestMu.Lock()
	defer c.attestMu.Unlock()
	if c.attested.Load() {
		return nil
	}
	ecdhKey, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return fmt.Errorf("client ECDH key: %w", err)
	}
	var clientPub [32]byte
	copy(clientPub[:], ecdhKey.PublicKey().Bytes())
	var nonce [32]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return fmt.Errorf("client nonce: %w", err)
	}
	sessionKey, err := crypto.NewSessionKey()
	if err != nil {
		return err
	}

	req := &messages.AttestRequest{ClientID: c.cfg.ID, Nonce: nonce, ClientPub: clientPub}
	data := messages.Marshal(req)
	for id := uint32(0); int(id) < c.cfg.N; id++ {
		if err := c.conn.Send(transport.ReplicaEndpoint(id), data); err != nil {
			return err
		}
	}
	// Collect quotes from all n Execution enclaves, wrap s_enc to each.
	provisioned := make(map[uint32]bool)
	deadline := time.After(c.cfg.Timeout)
	for len(provisioned) < c.cfg.N {
		select {
		case <-deadline:
			return fmt.Errorf("%w: attested %d/%d enclaves", ErrTimeout, len(provisioned), c.cfg.N)
		case q := <-c.quoteCh:
			if provisioned[q.Replica] || q.Nonce != nonce {
				continue
			}
			if err := messages.VerifyQuote(c.cfg.Registry, c.cfg.N, q, c.cfg.ExecMeasurement, nonce); err != nil {
				continue // forged or stale quote; keep waiting for a real one
			}
			peer, err := ecdh.X25519().NewPublicKey(q.EnclavePub[:])
			if err != nil {
				continue
			}
			shared, err := ecdhKey.ECDH(peer)
			if err != nil {
				continue
			}
			wrapKey := tee.DeriveSessionKey(shared)
			wrapSess, err := crypto.NewSession(wrapKey, 0)
			if err != nil {
				continue
			}
			prov := &messages.ProvisionKey{
				ClientID:   c.cfg.ID,
				Replica:    q.Replica,
				WrappedKey: wrapSess.Seal(sessionKey[:], crypto.ProvisionAD(c.cfg.ID)),
			}
			if err := c.conn.Send(transport.ReplicaEndpoint(q.Replica), messages.Marshal(prov)); err != nil {
				return err
			}
			provisioned[q.Replica] = true
		}
	}
	c.sessionKey = sessionKey
	if c.sendSess, err = crypto.NewSession(sessionKey, 0); err != nil {
		return err
	}
	// recvSess decrypts replies from any replica (nonces carried in-band).
	if c.recvSess, err = crypto.NewSession(sessionKey, 1); err != nil {
		return err
	}
	c.attested.Store(true)
	return nil
}

// Invoke submits op and blocks until f+1 matching replies arrive or the
// timeout expires. In confidential mode op is encrypted end-to-end and the
// returned result is the decrypted plaintext.
func (c *Client) Invoke(op []byte) ([]byte, error) {
	if c.cfg.Confidential && !c.attested.Load() {
		return nil, ErrNotAttested
	}
	ts := c.ts.Add(1)
	payload := op
	if c.cfg.Confidential {
		payload = c.sendSess.Seal(op, crypto.RequestAD(c.cfg.ID, ts))
	}
	req := &messages.Request{ClientID: c.cfg.ID, Timestamp: ts, Payload: payload}
	auth := c.cfg.MACs.Authenticate(req.AuthenticatedBytes(), c.cfg.AuthReceivers)
	req.Auth = auth
	data := messages.Marshal(req)

	ca := &call{
		done:    make(chan []byte, 1),
		replies: make(map[uint32][]byte),
		sealed:  c.cfg.Confidential,
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pending[ts] = ca
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, ts)
		c.mu.Unlock()
	}()

	// A replica that cannot be reached (crashed, restarting, partitioned
	// away) is a fault the protocol tolerates: a failed send must look
	// like a lost message — the reply quorum and retransmission handle it
	// — not abort the invocation. Only a totally unreachable group is an
	// error.
	send := func() error {
		var firstErr error
		sent := 0
		for id := uint32(0); int(id) < c.cfg.N; id++ {
			if err := c.conn.Send(transport.ReplicaEndpoint(id), data); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			sent++
		}
		if sent == 0 {
			return firstErr
		}
		return nil
	}
	if err := send(); err != nil {
		return nil, err
	}
	// Retransmission backs off exponentially (with jitter) instead of
	// firing at a fixed period: during a view change or partition every
	// stranded client would otherwise resend to all N replicas every
	// interval, and the synchronized storm slows the very recovery it is
	// waiting for. The first resend still happens after one interval (so
	// failure detection is not delayed), later ones spread out, capped at
	// eight intervals so a healed cluster is re-contacted promptly.
	deadline := time.After(c.cfg.Timeout)
	backoff := c.cfg.RetransmitInterval
	maxBackoff := 8 * c.cfg.RetransmitInterval
	retry := time.NewTimer(jitter(backoff))
	defer retry.Stop()
	for {
		select {
		case res, ok := <-ca.done:
			if !ok {
				return nil, ErrClosed
			}
			return res, nil
		case <-retry.C:
			if err := send(); err != nil {
				return nil, err
			}
			c.resends.Add(1)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			retry.Reset(jitter(backoff))
		case <-deadline:
			return nil, fmt.Errorf("%w: op after %v", ErrTimeout, c.cfg.Timeout)
		}
	}
}

// jitter spreads a backoff delay uniformly over [3d/4, 5d/4) so concurrent
// clients' retransmissions desynchronize while the expected period stays d.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d - d/4 + time.Duration(mrand.Int63n(int64(d)/2))
}

// Resends returns how many write retransmissions this client has sent —
// the backoff behavior's observable surface, pinned by chaos tests.
func (c *Client) Resends() uint64 { return c.resends.Load() }

// InvokeRead submits a read-only operation. With ReadLeases off it is
// exactly Invoke. With ReadLeases on it first tries the local-read fast
// path — one ReadRequest to one replica, which confirms it with a
// read-index round to the primary, one attested ReadReply back — and falls
// back to the agreement path whenever the fast path refuses (replica
// leaseless, lease near expiry, app says the op isn't side-effect-free) or
// the reply doesn't arrive within one retransmit interval. The fallback
// makes the fast path purely an optimization: reads are linearizable and
// never served stale, only slower.
func (c *Client) InvokeRead(op []byte) ([]byte, error) {
	if !c.cfg.ReadLeases {
		return c.Invoke(op)
	}
	if c.cfg.Confidential && !c.attested.Load() {
		return nil, ErrNotAttested
	}
	ts := c.ts.Add(1)
	payload := op
	if c.cfg.Confidential {
		payload = c.sendSess.Seal(op, crypto.RequestAD(c.cfg.ID, ts))
	}
	target := (c.readRR.Add(1) - 1) % uint32(c.cfg.N)
	req := &messages.ReadRequest{ClientID: c.cfg.ID, Timestamp: ts, Payload: payload}
	req.MAC = c.cfg.MACs.MAC(req.AuthenticatedBytes(),
		crypto.Identity{ReplicaID: target, Role: c.cfg.ReplyRole})

	ch := make(chan *messages.ReadReply, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.pendingReads[ts] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pendingReads, ts)
		c.mu.Unlock()
	}()

	if err := c.conn.Send(transport.ReplicaEndpoint(target), messages.Marshal(req)); err != nil {
		return c.Invoke(op)
	}
	timer := time.NewTimer(c.cfg.RetransmitInterval)
	defer timer.Stop()
	select {
	case rep, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		if rep.OK {
			result := rep.Result
			if c.cfg.Confidential {
				pt, err := c.recvSess.Open(result, crypto.ReplyAD(rep.ClientID, rep.Timestamp))
				if err != nil {
					return c.Invoke(op)
				}
				result = pt
			}
			return result, nil
		}
		// Explicit refusal: the replica answered but would not serve the
		// read locally. Order it instead.
		return c.Invoke(op)
	case <-timer.C:
		return c.Invoke(op)
	}
}

// onReadReply verifies a fast-path read reply's MAC and hands it to the
// waiting InvokeRead. Refusals are delivered too — an explicit no is the
// signal to fall back immediately instead of burning the full interval.
func (c *Client) onReadReply(rep *messages.ReadReply) {
	if rep.ClientID != c.cfg.ID {
		return
	}
	sender := crypto.Identity{ReplicaID: rep.Replica, Role: c.cfg.ReplyRole}
	if err := c.cfg.MACs.VerifySingle(rep.AuthenticatedBytes(), rep.MAC, sender); err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.pendingReads[rep.Timestamp]
	if !ok {
		return
	}
	select {
	case ch <- rep:
	default:
	}
}

// onReply verifies a reply MAC, decrypts confidential results, and resolves
// the pending call once f+1 replicas agree on the result: at least one of
// them is a correct replica that executed the operation.
func (c *Client) onReply(rep *messages.Reply) {
	if rep.ClientID != c.cfg.ID {
		return
	}
	sender := crypto.Identity{ReplicaID: rep.Replica, Role: c.cfg.ReplyRole}
	if err := c.cfg.MACs.VerifySingle(rep.AuthenticatedBytes(), rep.MAC, sender); err != nil {
		return
	}
	result := rep.Result
	c.mu.Lock()
	defer c.mu.Unlock()
	ca, ok := c.pending[rep.Timestamp]
	if !ok {
		return
	}
	if ca.sealed {
		pt, err := c.recvSess.Open(result, crypto.ReplyAD(rep.ClientID, rep.Timestamp))
		if err != nil {
			return
		}
		result = pt
	}
	if _, dup := ca.replies[rep.Replica]; dup {
		return
	}
	ca.replies[rep.Replica] = result
	matching := 0
	for _, other := range ca.replies {
		if bytes.Equal(other, result) {
			matching++
		}
	}
	if matching > c.cfg.F {
		select {
		case ca.done <- result:
		default:
		}
	}
}
