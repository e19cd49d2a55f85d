// Package core is the untrusted environment of a SplitBFT replica (paper
// §3–§5): it launches the three compartment enclaves — packages
// compartment/preparation, compartment/confirmation and
// compartment/execution, each linking only the shared trusted code in
// package compartment — and runs the broker that handles their networking,
// batching, timers and durable storage, all of which can only hurt
// liveness, never safety (principle P1). It reads no compartment's memory:
// what it knows of the compartments it learns from the messages they emit.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
)

// Config parameterizes one SplitBFT replica (three enclaves plus broker).
type Config struct {
	// Config holds what the compartments read: the group shape, client MAC
	// secret, confidentiality, agreement intervals, read leases and the
	// lease clock.
	compartment.Config

	// Registry resolves enclave public keys; NewReplica registers this
	// replica's enclave keys into it (the deployment-time attestation
	// step).
	Registry *crypto.Registry
	// KeySeed, when set, derives the enclave key pairs deterministically
	// so separate processes can compute each other's public keys with
	// RegisterDeterministicKeys — the multi-process stand-in for the
	// attestation-based key exchange. Leave nil for fresh random keys
	// (single-process deployments and tests).
	KeySeed []byte

	// App is the replicated application, run inside the Execution enclave.
	App app.Application

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
	// FsyncInterval selects the WAL flush mode by its sign alone: negative
	// fsyncs on every append; zero or positive flushes only at the broker's
	// pre-output Sync, at snapshots and at shutdown.
	FsyncInterval time.Duration

	// Batching and failure-detection parameters; see the pbft package for
	// semantics.
	BatchSize      int
	BatchTimeout   time.Duration
	RequestTimeout time.Duration

	// Obs attaches the observability layer: the metrics registry collects
	// every stat surface of the replica and the tracer records sampled
	// request-lifecycle spans stamped at the untrusted compartment
	// boundaries. Nil disables observability entirely — every hook
	// degrades to a nil check on the hot path.
	Obs *obs.Observer

	// DiskFaults, when non-nil, is shared by all three compartments'
	// durability stores as their chaos fault injector (write error, fsync
	// error, slow-disk stall). Nil injects nothing.
	DiskFaults *store.FaultInjector
}

func (c Config) withDefaults() Config {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = defaults.CheckpointInterval
	}
	if c.WatermarkWindow == 0 {
		c.WatermarkWindow = defaults.WatermarkWindow
	}
	if c.BatchSize == 0 {
		c.BatchSize = defaults.BatchSize
	}
	if c.BatchTimeout == 0 {
		c.BatchTimeout = defaults.BatchTimeout
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = defaults.RequestTimeout
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
