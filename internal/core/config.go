// Package core implements SplitBFT: PBFT compartmentalized into three
// independently-failing trusted compartments per replica (paper §3–§4).
//
//   - The Preparation compartment receives client batches, assigns sequence
//     numbers (primary), emits PrePrepares/Prepares, and creates/validates
//     NewView messages.
//   - The Confirmation compartment collects prepare certificates
//     (1 PrePrepare + 2f Prepares), emits Commits, and initiates view
//     changes.
//   - The Execution compartment collects commit certificates (2f+1
//     Commits), executes client requests against the application, replies
//     (encrypted) to clients, and originates Checkpoints.
//
// Each compartment runs inside a simulated SGX enclave (internal/tee) with
// its own key pair, log, view variable and watermarks; compartments only
// change state on quorum certificates (principle P5). The untrusted broker
// (environment) handles networking, batching and timers — all of which can
// only hurt liveness, never safety (principle P1).
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
)

// Defaults for Config fields left zero, shared with the client library and
// the public facade through internal/defaults.
const (
	DefaultCheckpointInterval = defaults.CheckpointInterval
	DefaultWatermarkWindow    = defaults.WatermarkWindow
	DefaultBatchSize          = defaults.BatchSize
	DefaultBatchTimeout       = defaults.BatchTimeout
	DefaultRequestTimeout     = defaults.RequestTimeout
)

// Config parameterizes one SplitBFT replica (three enclaves plus broker).
type Config struct {
	// N is the number of replicas (3F+1, or 2F+1 in trusted consensus); F
	// the fault threshold.
	N, F int
	// ID is this replica's index in [0, N).
	ID uint32

	// Registry resolves enclave public keys; NewReplica registers this
	// replica's enclave keys into it (the deployment-time attestation
	// step).
	Registry *crypto.Registry
	// MACSecret derives the pairwise client MAC keys for the Preparation
	// and Execution enclaves.
	MACSecret []byte
	// KeySeed, when set, derives the enclave key pairs deterministically
	// so separate processes can compute each other's public keys with
	// RegisterDeterministicKeys — the multi-process stand-in for the
	// attestation-based key exchange. Leave nil for fresh random keys
	// (single-process deployments and tests).
	KeySeed []byte

	// App is the replicated application, run inside the Execution enclave.
	App app.Application
	// Confidential enables end-to-end encrypted requests/replies. Clients
	// must attest and provision a session key before invoking.
	Confidential bool

	// AgreementAuth selects how normal-case agreement traffic (PrePrepare,
	// Prepare, Commit, Checkpoint) is authenticated between replicas:
	// AuthSig (default) signs every message with the sending compartment's
	// Ed25519 key; AuthMAC authenticates with pairwise HMAC vectors over
	// attested-ECDH keys and shrinks view-change certificates to single
	// enclave-signed claims — the trusted-compartment fast path. All
	// replicas of a deployment must agree on the mode.
	AgreementAuth messages.AuthMode

	// ConsensusMode selects the agreement variant: ConsensusClassic
	// (default) runs three-phase PBFT over N = 3F+1; ConsensusTrusted binds
	// every PrePrepare to the primary's trusted monotonic counter, skips
	// the Prepare phase entirely, and runs over N = 2F+1 with F+1 quorums.
	// All replicas of a deployment must agree on the mode. Trusted
	// consensus requires AgreementAuth = AuthMAC (messages.ValidConsensus)
	// and composes with persistence.
	ConsensusMode messages.ConsensusMode

	// Cost is the enclave cost model (hardware, simulation, or zero).
	Cost tee.CostModel
	// SingleThread serializes all ecalls through one dispatcher goroutine
	// (the paper's single-threaded configuration in Figure 3a). Default is
	// one dispatcher per enclave plus the broker event loop.
	SingleThread bool

	// DataDir enables the sealed durability subsystem: each compartment
	// keeps a write-ahead log of its delivered ecalls plus sealed state
	// snapshots under DataDir/<role>/, and NewReplica recovers compartment
	// state from them before the broker starts. Requires KeySeed — the
	// enclave sealing keys must be re-derivable after a restart, or nothing
	// written before the crash could ever be unsealed. Empty disables
	// persistence (all state is in enclave memory, as in the plain paper
	// configuration).
	DataDir string
	// FsyncInterval is the WAL group-commit period; records appended
	// within one interval share a single fsync. 0 means the store default
	// (2ms); negative fsyncs on every append.
	FsyncInterval time.Duration

	// Agreement parameters; see the pbft package for semantics.
	CheckpointInterval uint64
	WatermarkWindow    uint64
	BatchSize          int
	BatchTimeout       time.Duration
	RequestTimeout     time.Duration

	// Obs attaches the observability layer: the metrics registry collects
	// every stat surface of the replica and the tracer records sampled
	// request-lifecycle spans stamped at the untrusted compartment
	// boundaries. Nil disables observability entirely — every hook
	// degrades to a nil check on the hot path.
	Obs *obs.Observer

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
	// committing new writes. withDefaults therefore clamps LeaseTTL to
	// RequestTimeout/4 — a new primary's write fence (2.5×TTL) then still
	// fits inside one detection period. Renewal runs at TTL/4 and the
	// clock-skew margin is TTL/8. 0 means RequestTimeout/4.
	LeaseTTL time.Duration

	// Clock, when non-nil, replaces real time on the lease-safety paths
	// (grant freshness, holder validity, the new-primary write fence) so
	// chaos tests can inject per-replica clock skew. Nil reads real time.
	Clock *SkewClock
	// DiskFaults, when non-nil, is shared by all three compartments'
	// durability stores as their chaos fault injector (write error, fsync
	// error, slow-disk stall). Nil injects nothing.
	DiskFaults *store.FaultInjector
}

func (c Config) withDefaults() Config {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.WatermarkWindow == 0 {
		c.WatermarkWindow = DefaultWatermarkWindow
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = DefaultBatchTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	// Default and clamp: a lease must never outlive view-change detection
	// (the failure detector suspects after one RequestTimeout), or a
	// partitioned holder would serve stale reads while the new view commits
	// writes. RequestTimeout/4 leaves the new primary's 2.5×TTL write fence
	// inside a single detection period.
	if maxTTL := c.RequestTimeout / 4; c.LeaseTTL == 0 || c.LeaseTTL > maxTTL {
		c.LeaseTTL = maxTTL
	}
	return c
}

func (c Config) validate() error {
	if err := messages.ValidConsensus(c.ConsensusMode, c.AgreementAuth, c.N, c.F); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if int(c.ID) >= c.N {
		return errors.New("core: ID out of range")
	}
	if c.Registry == nil {
		return errors.New("core: Registry is required")
	}
	if len(c.MACSecret) == 0 {
		return errors.New("core: MACSecret is required")
	}
	if c.App == nil {
		return errors.New("core: App is required")
	}
	if c.DataDir != "" && len(c.KeySeed) == 0 {
		return errors.New("core: DataDir (persistence) requires KeySeed — sealed state must be recoverable under re-derived enclave keys")
	}
	return nil
}

// RequestAuthReceivers returns the client MAC-vector layout for SplitBFT:
// first the n Preparation enclaves (which authenticate requests during
// ordering), then the n Execution enclaves (which authenticate before
// executing). Slot i belongs to Preparation enclave i; slot n+i to
// Execution enclave i.
func RequestAuthReceivers(n int) []crypto.Identity {
	out := make([]crypto.Identity, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, crypto.Identity{ReplicaID: uint32(i), Role: crypto.RolePreparation})
	}
	for i := 0; i < n; i++ {
		out = append(out, crypto.Identity{ReplicaID: uint32(i), Role: crypto.RoleExecution})
	}
	return out
}

// Compartment code measurements. In real SGX these would be MRENCLAVE
// values of the three (ideally diversely implemented) enclave binaries;
// here they are stable digests of the compartment names so attestation has
// something meaningful to check.
var (
	measPreparation  = crypto.HashData([]byte("splitbft/preparation/v1"))
	measConfirmation = crypto.HashData([]byte("splitbft/confirmation/v1"))
	measExecution    = crypto.HashData([]byte("splitbft/execution/v1"))
)

// ExecutionMeasurement returns the Execution compartment's measurement;
// clients verify attestation quotes against it before provisioning session
// keys.
func ExecutionMeasurement() crypto.Digest { return measExecution }

// Ecall payload tags: the first byte of every ecall distinguishes wire
// messages from environment-local calls.
const (
	ecallMessage byte = 1 // a messages.Marshal envelope follows
	ecallBatch   byte = 2 // a messages.MarshalBatch body follows (env → Preparation)
	// ecallTick is an empty periodic nudge from the environment's failure
	// detector into the Execution compartment (rejoin probing while a
	// recovered replica may be behind). Ticks carry no state the WAL must
	// replay and are never persisted.
	ecallTick byte = 3
)

// wrapMessage frames a wire message as an ecall payload.
func wrapMessage(data []byte) []byte {
	out := make([]byte, 0, len(data)+1)
	out = append(out, ecallMessage)
	return append(out, data...)
}

// wrapBatch frames a request batch as an ecall payload.
func wrapBatch(b *messages.Batch) []byte {
	body := messages.MarshalBatch(b)
	out := make([]byte, 0, len(body)+1)
	out = append(out, ecallBatch)
	return append(out, body...)
}
