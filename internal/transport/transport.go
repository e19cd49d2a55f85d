// Package transport provides message delivery between replicas and clients:
// an in-process simulated network with fault injection (drop, delay,
// reorder, duplicate, partition) for tests and benchmarks, and a TCP
// transport with length-prefixed framing for distributed deployments.
//
// The network model matches the paper (§2.1): unreliable, may discard,
// reorder and delay messages, but not indefinitely — so the simnet's fault
// injectors are probabilistic, never permanent unless a partition is
// explicitly installed.
package transport

import (
	"errors"
	"fmt"
)

// EndpointKind distinguishes replica and client endpoints.
type EndpointKind uint8

// Endpoint kinds.
const (
	KindReplica EndpointKind = iota
	KindClient
)

// Endpoint names a network participant.
type Endpoint struct {
	Kind EndpointKind
	ID   uint32
}

// ReplicaEndpoint returns the endpoint for replica id.
func ReplicaEndpoint(id uint32) Endpoint { return Endpoint{Kind: KindReplica, ID: id} }

// ClientEndpoint returns the endpoint for client id.
func ClientEndpoint(id uint32) Endpoint { return Endpoint{Kind: KindClient, ID: id} }

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	if e.Kind == KindReplica {
		return fmt.Sprintf("replica-%d", e.ID)
	}
	return fmt.Sprintf("client-%d", e.ID)
}

// Handler receives inbound messages. Handlers for one endpoint are invoked
// sequentially in delivery order; implementations that need concurrency
// hand off internally.
//
// data belongs to the transport and is valid only until the handler
// returns: the TCP read loop reads the next frame into the same buffer. A
// handler that hands the message to another goroutine copies or decodes it
// first. The three handlers in this repository do: core's broker frames a
// copy into a pooled ecall buffer (and decodes requests with the copying
// Decoder), client decodes with the copying Decoder, and pbft copies the
// frame before queueing it for its verify workers.
type Handler func(from Endpoint, data []byte)

// Conn is one endpoint's attachment to a network.
type Conn interface {
	// Send delivers one or more frames to one endpoint, each to the peer's
	// handler as its own message, in argument order; over TCP all frames of
	// one call leave in a single socket write. The frames are the caller's
	// again when Send returns. There is deliberately no flush and no timer:
	// a caller that has several frames for a peer passes them together, and
	// nothing is ever held back waiting for more. Delivery is best-effort: a
	// nil error means the frames were accepted for delivery, not that they
	// arrived.
	Send(to Endpoint, frames ...[]byte) error
	// BroadcastReplicas is Send to every replica except the sender itself.
	BroadcastReplicas(frames ...[]byte) error
	// Close detaches the endpoint. Further Sends fail.
	Close() error
}

// ErrClosed is returned by operations on a closed Conn or network.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownEndpoint is returned when sending to an endpoint that never
// joined the network.
var ErrUnknownEndpoint = errors.New("transport: unknown endpoint")
