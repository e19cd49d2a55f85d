package messages

import (
	"fmt"

	"github.com/splitbft/splitbft/internal/crypto"
)

// ConsensusMode selects the agreement protocol variant.
//
// ConsensusClassic is the paper's three-phase PBFT over n = 3f+1 replicas:
// equivocation by a faulty primary is caught by the all-to-all Prepare
// round, and every certificate needs 2f+1 votes.
//
// ConsensusTrusted is the TEE-BFT variant (MinBFT/CheapBFT lineage): the
// primary's trusted monotonic counter binds every PrePrepare to a unique,
// gap-free counter value, making equivocation impossible to produce rather
// than merely detectable. That removes the Prepare round entirely — a
// counter-valid PrePrepare is already a prepare certificate — and shrinks
// the replica group to n = 2f+1 with f+1 quorums. Soundness rests on the
// hybrid fault model: counter enclaves fail only by crashing, so any two
// f+1 quorums intersect in at least one replica whose enclaves followed
// the protocol.
type ConsensusMode uint8

// Consensus modes.
const (
	ConsensusClassic ConsensusMode = iota
	ConsensusTrusted
)

// String returns the option-string spelling of the mode.
func (m ConsensusMode) String() string {
	switch m {
	case ConsensusClassic:
		return "classic"
	case ConsensusTrusted:
		return "trusted"
	default:
		return fmt.Sprintf("consensus(%d)", uint8(m))
	}
}

// CounterDigest is the digest a PrePrepare's counter attestation binds: the
// hash of the signed header (view, seq, batch digest, proposer). Binding
// the full header means an attestation cannot be replayed for a different
// view, sequence number, batch, or proposer — the transplant/replay checks
// collapse into one digest comparison.
func CounterDigest(pp *PrePrepare) crypto.Digest {
	e := GetEncoder()
	pp.AppendSigning(e)
	d := crypto.HashData(e.Bytes())
	PutEncoder(e)
	return d
}

// ValidConsensus reports whether (n, f) is a valid group shape for mode:
// n = 3f+1 for classic PBFT, n = 2f+1 for trusted-counter consensus.
func ValidConsensus(mode ConsensusMode, n, f int) bool {
	if f < 0 {
		return false
	}
	if mode == ConsensusTrusted {
		return n == 2*f+1
	}
	return n == 3*f+1
}
