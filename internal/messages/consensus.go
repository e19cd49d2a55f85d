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
// the replica group to n = 2f+1 with f+1 quorums. It runs MAC agreement
// only (see ValidConsensus). Soundness rests on the
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

// DefaultAuth returns the agreement auth a consensus mode runs when none is
// chosen: MAC in trusted consensus, its only form, and the paper's
// signatures in classic consensus.
func DefaultAuth(mode ConsensusMode) AuthMode {
	if mode == ConsensusTrusted {
		return AuthMAC
	}
	return AuthSig
}

// MaxFaults returns the largest fault threshold a group of n tolerates in
// mode: (n-1)/2 in trusted consensus, (n-1)/3 in classic.
func MaxFaults(mode ConsensusMode, n int) int {
	if mode == ConsensusTrusted {
		return (n - 1) / 2
	}
	return (n - 1) / 3
}

// ValidConsensus is the one check of a deployment's agreement settings. Three
// corners exist: classic consensus over n = 3f+1 with either auth mode, and
// trusted consensus over n = 2f+1 with MAC agreement — its counter
// attestations are pairwise MAC vectors, never signatures. Every constructor
// reports the error as is, behind its own package prefix.
func ValidConsensus(mode ConsensusMode, auth AuthMode, n, f int) error {
	trusted := mode == ConsensusTrusted
	switch {
	case trusted && auth != AuthMAC:
		return fmt.Errorf("trusted consensus runs MAC agreement only (agreement auth %q)", auth)
	case trusted && (f < 0 || n != 2*f+1):
		return fmt.Errorf("n must equal 2f+1 in trusted consensus mode (n=%d, f=%d)", n, f)
	case !trusted && (f < 0 || n != 3*f+1):
		return fmt.Errorf("n must equal 3f+1 (n=%d, f=%d)", n, f)
	}
	return nil
}
