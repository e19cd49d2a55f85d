package splitbft

import (
	"errors"

	"github.com/splitbft/splitbft/internal/client"
	"github.com/splitbft/splitbft/internal/compartment/execution"
	"github.com/splitbft/splitbft/internal/core"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/transport"
)

// Errors surfaced by Client operations.
var (
	// ErrTimeout is returned when an invocation or attestation exceeds its
	// deadline.
	ErrTimeout = client.ErrTimeout
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = client.ErrClosed
	// ErrNotAttested is returned by confidential invocations before Attest.
	ErrNotAttested = client.ErrNotAttested
)

// Client submits operations to a SplitBFT deployment and waits for f+1
// matching replies. In confidential deployments, Attest must complete
// before Invoke: the handshake verifies an attestation quote from every
// Execution enclave and provisions the end-to-end session key (paper
// §4.1).
//
// A Client is safe for concurrent Invokes.
type Client struct {
	id    uint32
	inner *client.Client
	conn  transport.Conn
}

// NewClient builds a client for a deployment. Reach TCP deployments with
// WithTransportTCP + WithKeySeed (both matching the replicas'); reach
// in-process clusters through Cluster.NewClient. The client is connected
// and ready on return.
func NewClient(id uint32, opts ...Option) (*Client, error) {
	o := buildOptions(opts)
	if o.simnet == nil && len(o.tcpAddrs) == 0 {
		return nil, errors.New("splitbft: NewClient requires WithTransportTCP (or construction through Cluster.NewClient)")
	}
	if len(o.tcpAddrs) > 0 && len(o.keySeed) == 0 {
		return nil, errors.New("splitbft: the TCP transport requires WithKeySeed — it derives the deployment's MAC and enclave keys")
	}
	if err := o.resolveGroup(); err != nil {
		return nil, err
	}
	reg := o.registry
	if reg == nil {
		reg = crypto.NewRegistry()
		if len(o.keySeed) > 0 {
			if err := core.RegisterDeterministicKeys(reg, o.keySeed, o.n); err != nil {
				return nil, err
			}
		}
	}
	inner, err := client.New(client.Config{
		ID: id, N: o.n, F: o.f,
		MACs:               crypto.NewMACStore(o.secret(), crypto.Identity{ReplicaID: id, Role: crypto.RoleClient}),
		AuthReceivers:      core.RequestAuthReceivers(o.n),
		ReplyRole:          crypto.RoleExecution,
		Confidential:       o.confidential,
		Registry:           reg,
		ExecMeasurement:    execution.Measurement(),
		RetransmitInterval: o.retransmit,
		Timeout:            o.invokeTimeout,
		ReadLeases:         o.readLeases,
	})
	if err != nil {
		return nil, err
	}
	c := &Client{id: id, inner: inner}
	if o.simnet != nil {
		conn, err := o.simnet.Join(transport.ClientEndpoint(id), inner.Handler())
		if err != nil {
			return nil, err
		}
		c.conn = conn
	} else {
		addrs := make(map[uint32]string, o.n)
		for i, a := range o.tcpAddrs {
			addrs[uint32(i)] = a
		}
		c.conn = transport.DialTCP(transport.ClientEndpoint(id), addrs, inner.Handler())
	}
	inner.Start(c.conn)
	return c, nil
}

// ID returns the client's identifier.
func (c *Client) ID() uint32 { return c.id }

// Attest runs the attestation and key-provisioning handshake with every
// replica's Execution enclave. It must complete before confidential
// invocations; on non-confidential deployments it is a no-op.
func (c *Client) Attest() error { return c.inner.Attest() }

// Invoke submits one operation and blocks until f+1 matching replies
// arrive or the invoke timeout expires. In confidential deployments the
// payload is encrypted end to end and the result decrypted before return.
func (c *Client) Invoke(op []byte) ([]byte, error) { return c.inner.Invoke(op) }

// InvokeRead submits a read-only operation. On deployments built with
// WithReadLeases it tries the leased local read fast path first — one
// request to one replica, confirmed by that replica's read-index round to
// the primary, one attested reply — and transparently falls back to the
// ordered path whenever the fast path refuses, so the result is
// linearizable either way. Without read leases it is identical to Invoke. The operation must be side-effect-free;
// applications enforce this and refuse mutating ops on the fast path.
func (c *Client) InvokeRead(op []byte) ([]byte, error) { return c.inner.InvokeRead(op) }

// Put stores value under key in the key-value store application.
func (c *Client) Put(key string, value []byte) ([]byte, error) {
	return c.inner.Invoke(EncodePut(key, value))
}

// Get reads key from the key-value store application, using the local
// read fast path on deployments built with WithReadLeases.
func (c *Client) Get(key string) ([]byte, error) {
	return c.inner.InvokeRead(EncodeGet(key))
}

// Delete removes key from the key-value store application.
func (c *Client) Delete(key string) ([]byte, error) {
	return c.inner.Invoke(EncodeDelete(key))
}

// Close fails pending invocations and detaches the transport.
func (c *Client) Close() {
	c.inner.Close()
	if c.conn != nil {
		_ = c.conn.Close()
	}
}
