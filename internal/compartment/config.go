// Package compartment holds the trusted code the three SplitBFT
// compartments share (paper §3–§4): the duplicated checkpoint and
// new-view-checkpoint handlers' state, the output constructors, the ecall
// framing, the lease clock and the common part of the sealed-state codec.
// Each compartment is its own package below this one — preparation,
// confirmation and execution — and links this package, never another
// compartment's, so what one enclave trusts is exactly its package's import
// closure.
package compartment

import (
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
)

// Config is what the compartments read of a replica's configuration. The
// environment's configuration (core.Config) embeds it, so these fields are
// set there; everything else a replica is configured with stays outside the
// enclaves.
type Config struct {
	// N is the number of replicas (3F+1, or 2F+1 in trusted consensus); F
	// the fault threshold.
	N, F int
	// ID is this replica's index in [0, N).
	ID uint32

	// MACSecret derives the pairwise client MAC keys for the Preparation
	// and Execution enclaves.
	MACSecret []byte
	// Confidential enables end-to-end encrypted requests/replies. Clients
	// must attest and provision a session key before invoking.
	Confidential bool

	// Agreement parameters; see the pbft package for semantics.
	CheckpointInterval uint64
	WatermarkWindow    uint64

	// ReadLeases enables the lease-anchored local read fast path: the
	// primary's trusted counter enclave issues time-bounded read leases to
	// every replica (piggybacked on proposal traffic and renewed on the
	// failure-detector clock), and a lease-holding Execution compartment
	// serves ReadRequests locally — no agreement round. Works in either
	// consensus mode (it instantiates the counter enclave on its own in
	// classic mode). Leaseless or stale replicas refuse, and clients fall
	// back to the agreement path, so the worst case is classic read cost.
	ReadLeases bool
	// LeaseTTL bounds a read lease's validity from its grant time. It must
	// stay below the failure-detector period (RequestTimeout): leases are
	// the window in which a replica partitioned away from a view change can
	// still believe its lease, so they must expire before the rest of the
	// cluster has detected the failure, elected a new primary, and started
	// committing new writes. The environment therefore clamps LeaseTTL to
	// RequestTimeout/4 — a new primary's write fence (2.5×TTL) then still
	// fits inside one detection period. Renewal runs at TTL/4 and the
	// clock-skew margin is TTL/8. 0 means RequestTimeout/4.
	LeaseTTL time.Duration

	// Clock, when non-nil, replaces real time on the lease-safety paths
	// (grant freshness, holder validity, the new-primary write fence) so
	// chaos tests can inject per-replica clock skew. Nil reads real time.
	Clock *SkewClock
}

// Ecall payload tags: the first byte of every ecall distinguishes wire
// messages from environment-local calls.
const (
	EcallMessage byte = 1 // a messages.Marshal envelope follows
	EcallBatch   byte = 2 // a messages.MarshalBatch body follows (env → Preparation)
	// EcallTick is the environment's query: the tag and a flags byte. Into
	// Preparation it is the lease clock, flags ignored: it only renews
	// leases, never proposes. Execution answers it from current state, the
	// flags (execution.TickPeriod, TickProbe) and the requests a query may
	// name after them — (client, timestamp) pairs, of which it names back
	// the executed ones through an ocall (execution.OcallExecuted). When to
	// ask is the environment's decision. Ticks carry no state the WAL must
	// replay and are never persisted.
	EcallTick byte = 3
)

// Measure is the code measurement of the named compartment. In real SGX it
// would be the MRENCLAVE of that (ideally diversely implemented) enclave
// binary; here a stable digest of the name gives attestation something
// meaningful to check.
func Measure(name string) crypto.Digest { return crypto.HashData([]byte("splitbft/" + name + "/v1")) }
