// Package pbft implements the non-compartmentalized PBFT baseline the paper
// evaluates SplitBFT against (§6): Castro–Liskov PBFT with request
// batching, checkpointing and view changes. Requests and replies are
// authenticated with HMAC vectors, replica-to-replica messages with ED25519
// signatures, matching the paper's Themis-derived configuration.
//
// The replica runs the core protocol on a single goroutine; message
// authentication and networking run on a worker pool, mirroring the paper's
// description of the baseline ("networking and message authentication are
// parallelized, but the core protocol is not").
package pbft

import (
	"errors"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
)

// verifyWorkers is the authentication worker pool size.
const verifyWorkers = 4

// Config parameterizes one PBFT replica.
type Config struct {
	// N is the number of replicas (3F+1); F the fault threshold.
	N, F int
	// ID is this replica's index in [0, N).
	ID uint32

	// Key signs all protocol messages (the replica is one unit of failure).
	Key *crypto.KeyPair
	// Registry resolves peer public keys.
	Registry *crypto.Registry
	// MACs authenticates client requests and replies.
	MACs *crypto.MACStore

	// App is the replicated application.
	App app.Application

	// CheckpointInterval is the number of sequence numbers between
	// checkpoints; WatermarkWindow bounds how far ahead of the low
	// watermark the replica accepts proposals.
	CheckpointInterval uint64
	WatermarkWindow    uint64

	// BatchSize and BatchTimeout control request batching at the primary:
	// a batch is cut when BatchSize requests are buffered or BatchTimeout
	// elapses since the first buffered request. BatchSize 1 disables
	// batching (every request is ordered alone).
	BatchSize    int
	BatchTimeout time.Duration

	// RequestTimeout is how long a replica waits for progress on a pending
	// request before suspecting the primary and starting a view change.
	RequestTimeout time.Duration
}

// withDefaults fills zero fields from the defaults SplitBFT uses, so the
// baseline is measured under the same protocol parameters.
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
	return c
}

func (c Config) validate() error {
	if c.N != 3*c.F+1 || c.F < 0 {
		return errors.New("pbft: N must equal 3F+1")
	}
	if int(c.ID) >= c.N {
		return errors.New("pbft: ID out of range")
	}
	if c.Key == nil || c.Registry == nil || c.MACs == nil {
		return errors.New("pbft: Key, Registry and MACs are required")
	}
	if c.App == nil {
		return errors.New("pbft: App is required")
	}
	return nil
}

// ReplicaIdentity returns the identity replica id signs with in the
// baseline scheme.
func ReplicaIdentity(id uint32) crypto.Identity {
	return crypto.Identity{ReplicaID: id, Role: crypto.RoleReplica}
}

// BaselineAuthReceivers returns the MAC-vector receiver layout baseline
// clients use: one MAC per replica, indexed by replica ID.
func BaselineAuthReceivers(n int) []crypto.Identity {
	out := make([]crypto.Identity, n)
	for i := range out {
		out[i] = ReplicaIdentity(uint32(i))
	}
	return out
}

// quorum returns the 2f+1 certificate size.
func (c Config) quorum() int { return 2*c.F + 1 }

// verifier builds the message verifier for the baseline scheme.
func (c Config) verifier() (*messages.Verifier, error) {
	return messages.NewVerifier(c.N, c.F, c.Registry, messages.BaselineScheme())
}
