package messages

import (
	"github.com/splitbft/splitbft/internal/crypto"
)

// AuthMode selects how normal-case agreement traffic (PrePrepare, Prepare,
// Commit, Checkpoint) is authenticated between replicas. Both modes apply
// one rule — a signature where a proof is handed on, a pairwise MAC where it
// is not — and differ in how far they take it.
//
// AuthSig is the paper's protocol: every message carries an Ed25519
// signature from its sending compartment, transferable to third parties —
// certificates are bundles of individually verifiable messages. The
// signature is checked wherever the receiver may have to hand the message on
// (PrePrepare and Prepare into Confirmation, which exports them as prepare
// certificates; Checkpoints, exported as checkpoint certificates) or the
// message crosses machines. It is not checked where neither holds: the
// Commit a Confirmation hands to the Execution compartment of its own
// replica is accepted on a MAC under the two enclaves' attested pairwise key
// (hopMACAccepted, Verifier.verifyAuth), and Execution does not authenticate
// the PrePrepares it uses only as request bodies (Verifier.CheckProposalBody;
// a body executes only when it hashes to the digest of a commit certificate).
//
// AuthMAC is the trusted-compartment fast path: attested agreement
// enclaves establish pairwise symmetric keys (X25519 between enclave keys
// exchanged at registration) and authenticate normal-case traffic with
// HMAC vectors, one authenticator per receiving compartment — trusted-mode
// counter attestations included (see Verifier.VerifyCounter). MACs are not
// transferable, so messages that third parties must be able to check keep
// Ed25519: ViewChange and NewView — and the certificates they carry shrink
// from 2f+1 signature bundles (or a signed attestation) to a single
// enclave signature over the aggregated claim, sound because an attested
// enclave is trusted to have validated the evidence correctly before
// signing. That last step is one compartment vouching for others, which
// AuthSig never does.
type AuthMode uint8

// Agreement authentication modes.
const (
	AuthSig AuthMode = iota
	AuthMAC
)

// String returns the facade-level spelling of the mode.
func (m AuthMode) String() string {
	if m == AuthMAC {
		return "mac"
	}
	return "sig"
}

// AgreementAuthReceivers returns the ordered MAC-vector layout for an
// agreement message type in a SplitBFT deployment of n replicas: exactly
// the compartments that verify the type, in a fixed order both sender and
// receivers compute independently.
//
//   - PrePrepare and Checkpoint are verified by all three compartments of
//     every replica (duplicated input logs, duplicated checkpoint
//     handlers): 3n entries, Preparation block then Confirmation block
//     then Execution block.
//   - Prepare is consumed only by Confirmation compartments: n entries.
//   - Commit is consumed only by Execution compartments: n entries.
//
// Other types return nil: they are not MAC-authenticated.
func AgreementAuthReceivers(t Type, n int) []crypto.Identity {
	return authReceivers(agreementAuthRoles(t), n)
}

// AgreementAuthIndex returns self's slot in the MAC vector of type t, or
// -1 when self is not a receiver of that type.
func AgreementAuthIndex(t Type, n int, self crypto.Identity) int {
	return authIndex(agreementAuthRoles(t), n, self)
}

// CounterAuthReceivers returns the layout of a MAC-mode trusted-counter
// attestation (PrePrepare.CtrSig): the compartments that verify one, by
// the same block rule — Preparation block then Confirmation block, 2n
// entries. Execution never checks the attestation; it acts on Commits.
func CounterAuthReceivers(n int) []crypto.Identity {
	return authReceivers(counterAuthRoles, n)
}

var counterAuthRoles = []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation}

// authReceivers lays receiver role blocks out as a MAC vector: one block
// of n replicas per role, in role order.
func authReceivers(roles []crypto.Role, n int) []crypto.Identity {
	if roles == nil {
		return nil
	}
	out := make([]crypto.Identity, 0, len(roles)*n)
	for _, role := range roles {
		for i := 0; i < n; i++ {
			out = append(out, crypto.Identity{ReplicaID: uint32(i), Role: role})
		}
	}
	return out
}

// authIndex is the inverse of authReceivers for one identity: its slot, or
// -1 when self is in no block.
func authIndex(roles []crypto.Role, n int, self crypto.Identity) int {
	for bi, role := range roles {
		if role == self.Role && int(self.ReplicaID) < n {
			return bi*n + int(self.ReplicaID)
		}
	}
	return -1
}

// agreementAuthRoles lists the receiver role blocks of a MAC-authenticated
// type, in vector order.
func agreementAuthRoles(t Type) []crypto.Role {
	switch t {
	case TPrePrepare, TCheckpoint:
		return []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution}
	case TPrepare:
		return []crypto.Role{crypto.RoleConfirmation}
	case TCommit:
		return []crypto.Role{crypto.RoleExecution}
	case TLeaseAck, TReadIndex:
		// Holder Execution → granting primary's Preparation.
		return []crypto.Role{crypto.RolePreparation}
	case TReadIndexReply:
		// Primary Preparation → holder Execution.
		return []crypto.Role{crypto.RoleExecution}
	default:
		return nil
	}
}

// hopMACAccepted reports whether, in sig mode, a receiver may accept type t
// from a compartment of its own replica on the pairwise hop MAC instead of
// the signature (Verifier.verifyAuth). The rule is "a signature where a proof
// is handed on, a pairwise MAC where it is not", judged at the receiver: only
// types whose receiver consumes the message and never exports it qualify.
//
// A Commit does: Execution executes under 2f+1 of them and no certificate,
// ViewChange or state transfer ever carries one. A PrePrepare or Prepare into
// Confirmation does not, although the hop is just as local: Confirmation
// exports both inside prepare certificates, and a correct Confirmation that
// has sent its Commit must be able to prove the certificate behind it to the
// next primary. Were it to count its co-located Preparation's Prepare on a
// MAC, a faulty Preparation (valid MAC, garbage signature) could make it
// commit on a certificate it can never hand on — and with one faulty
// Confirmation elsewhere hiding its own, a view change would lose a committed
// slot: f faults per compartment type, safety gone. The sender cannot be
// trusted to attach the slot only where it is harmless, so the receiver
// decides by type.
func hopMACAccepted(t Type) bool { return t == TCommit }

// Domain-separation tags for certificate vouch signatures. They must not
// collide with the message-type bytes that prefix every SigningBytes
// payload, so a vouch can never be replayed as a protocol message (or vice
// versa).
const (
	sigTagPrepareCertVouch    = 0xF1
	sigTagCheckpointCertVouch = 0xF2
)

// PrepareCertClaim returns the bytes an enclave signs to vouch for a
// locally validated prepare certificate: "a prepare certificate for
// (view, seq, digest) exists". In MAC mode this single signature replaces
// the 2f+1 individually signed messages of the sig-mode certificate.
func PrepareCertClaim(view, seq uint64, digest crypto.Digest) []byte {
	e := NewEncoder(64)
	e.U8(sigTagPrepareCertVouch)
	e.U64(view)
	e.U64(seq)
	e.Digest(digest)
	return e.Bytes()
}

// CheckpointCertClaim returns the bytes an enclave signs to vouch for a
// locally validated stable-checkpoint certificate.
func CheckpointCertClaim(seq uint64, stateDigest crypto.Digest) []byte {
	e := NewEncoder(64)
	e.U8(sigTagCheckpointCertVouch)
	e.U64(seq)
	e.Digest(stateDigest)
	return e.Bytes()
}

// maxAuthMACs bounds decoded authenticator vectors (3n entries at the
// widest layout; 4096 allows deployments beyond a thousand replicas).
const maxAuthMACs = 4096

// Auth appends an authenticator vector: count then the fixed-size MACs.
func (e *Encoder) Auth(a crypto.Authenticator) {
	e.U32(uint32(len(a.MACs)))
	for _, m := range a.MACs {
		e.MAC(m)
	}
}

// Auth reads an authenticator vector written by Encoder.Auth.
func (d *Decoder) Auth() crypto.Authenticator {
	n := d.Count(maxAuthMACs)
	if n == 0 {
		return crypto.Authenticator{}
	}
	a := crypto.Authenticator{MACs: make([][crypto.MACSize]byte, n)}
	for i := 0; i < n; i++ {
		a.MACs[i] = d.MAC()
	}
	return a
}
