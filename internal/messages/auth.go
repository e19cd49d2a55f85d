package messages

import (
	"github.com/splitbft/splitbft/internal/crypto"
)

// AuthMode selects how far a deployment takes the one rule every message
// obeys — a signature where a proof is handed on, a pairwise MAC where it is
// not. What a receiver accepts as proof of origin is decided per message type
// (authRules), by what the receiver may still have to do with the message, and
// comes in three forms:
//
//   - Transferable (PrePrepare, Prepare, Checkpoint, ViewChange, NewView): the
//     receiver may have to hand the message on — Confirmation exports
//     PrePrepares and Prepares as prepare certificates, every compartment
//     exports Checkpoints as checkpoint certificates, ViewChanges travel
//     inside NewViews. This is the form the mode selects. AuthSig, the
//     paper's protocol: the sending compartment's Ed25519 signature, and
//     certificates are bundles of individually verifiable messages. AuthMAC,
//     the trusted-compartment fast path: attested agreement enclaves hold
//     pairwise symmetric keys (X25519 between the enclave keys exchanged at
//     registration) and normal-case traffic carries an HMAC vector, one slot
//     per receiving compartment — trusted-mode counter attestations included
//     (Verifier.VerifyCounter). MACs are not transferable, so ViewChange and
//     NewView keep Ed25519, and the certificates they carry shrink from 2f+1
//     signature bundles to one enclave signature over the aggregated claim —
//     sound because an attested enclave is trusted to have validated the
//     evidence before signing. That is one compartment vouching for others,
//     which AuthSig never does.
//   - Hop (Commit): broadcast, but consumed by Execution and never exported.
//     MAC mode: the vector, as above. Sig mode: the signature, except on the
//     copy a Confirmation hands to the Execution compartment of its own
//     replica, which is accepted on one MAC under the two enclaves' pairwise
//     key (Verifier.HopAuth). Execution likewise does not authenticate the
//     PrePrepares it uses only as request bodies (Verifier.CheckProposalBody;
//     a body executes only when it hashes to the digest of a commit
//     certificate).
//   - Pair (ReadIndex, ReadIndexReply, LeaseAck): point-to-point, consumed by
//     the one enclave it is addressed to and never handed on, so it needs
//     origin authentication to that enclave and nothing else. In both modes
//     it carries exactly one MAC under the pairwise key of sender and
//     addressee (Verifier.PairAuth) and no signature; nothing else is
//     accepted.
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

// ProofForm is what a receiver accepts as proof that a message came from the
// compartment it names (see AuthMode).
type ProofForm uint8

// Proof forms. The zero value marks a type this layer does not authenticate
// (client traffic, attestation, state transfer, counter-signed lease grants).
const (
	ProofTransferable ProofForm = iota + 1
	ProofHop
	ProofPair
)

// authRule is one row of the type × receiver → accepted proof form table.
// roles lists the compartment roles that receive the type: in vector order
// for the MAC-mode layout of a transferable or hop type (n slots per role),
// the single addressee role of a pair type, nil for the types that are signed
// in both modes.
type authRule struct {
	form  ProofForm
	roles []crypto.Role
}

// authRules is the table. Verifier.verifyAuth (what a receiver accepts) and
// compartment.State.Authenticate (what a sender attaches) are its two readers.
//
// Why Commit is the only hop type although a PrePrepare or Prepare into
// Confirmation crosses a hop just as local: Confirmation exports both inside
// prepare certificates, and a correct Confirmation that has sent its Commit
// must be able to prove the certificate behind it to the next primary. Were
// it to count its co-located Preparation's Prepare on a MAC, a faulty
// Preparation (valid MAC, garbage signature) could make it commit on a
// certificate it can never hand on — and with one faulty Confirmation
// elsewhere hiding its own, a view change would lose a committed slot: f
// faults per compartment type, safety gone. The sender cannot be trusted to
// attach a MAC only where it is harmless, so the receiver decides by type.
//
// Why the read-index round is pair and not a MAC-mode style vector: a vector
// holds a valid slot for every compartment of the receiving role, so a
// ReadIndexReply made for one holder would verify at every other Execution —
// the untrusted environment could answer holder B's query with the older
// frontier the primary reported to holder A.
var authRules = [...]authRule{
	TPrePrepare:     {ProofTransferable, []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution}},
	TPrepare:        {ProofTransferable, []crypto.Role{crypto.RoleConfirmation}},
	TCheckpoint:     {ProofTransferable, []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution}},
	TViewChange:     {ProofTransferable, nil},
	TNewView:        {ProofTransferable, nil},
	TCommit:         {ProofHop, []crypto.Role{crypto.RoleExecution}},
	TLeaseAck:       {ProofPair, []crypto.Role{crypto.RolePreparation}}, // holder Execution → granting primary
	TReadIndex:      {ProofPair, []crypto.Role{crypto.RolePreparation}}, // holder Execution → primary
	TReadIndexReply: {ProofPair, []crypto.Role{crypto.RoleExecution}},   // primary Preparation → holder
}

func authRuleOf(t Type) authRule {
	if int(t) < len(authRules) {
		return authRules[t]
	}
	return authRule{}
}

// ProofFormOf returns the proof form of a message type, zero for a type this
// layer does not authenticate.
func ProofFormOf(t Type) ProofForm { return authRuleOf(t).form }

// Addressed is a pair-form message: it names the one replica whose
// compartment — of the role authRules lists for its type — consumes it.
type Addressed interface {
	Signable
	// Addressee returns that replica in a deployment of n.
	Addressee(n int) uint32
}

// PairAddressee returns the enclave a pair-form message is addressed to.
func PairAddressee(m Addressed, n int) crypto.Identity {
	return crypto.Identity{ReplicaID: m.Addressee(n), Role: authRuleOf(m.MsgType()).roles[0]}
}

// vectorRoles lists the receiver role blocks of a type's MAC-mode vector, nil
// for a type that has none.
func vectorRoles(t Type) []crypto.Role {
	if r := authRuleOf(t); r.form != ProofPair {
		return r.roles
	}
	return nil
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
// Other types return nil: they carry no MAC vector.
func AgreementAuthReceivers(t Type, n int) []crypto.Identity {
	return authReceivers(vectorRoles(t), n)
}

// AgreementAuthIndex returns self's slot in the MAC vector of type t, or
// -1 when self is not a receiver of that type.
func AgreementAuthIndex(t Type, n int, self crypto.Identity) int {
	return authIndex(vectorRoles(t), n, self)
}

// CounterAuthReceivers returns the layout of a trusted-counter attestation
// (PrePrepare.CtrSig): the compartments that verify one, by
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
func (d *Decoder) Auth() crypto.Authenticator { return d.auth(maxAuthMACs) }

// PairAuth reads the authenticator of a pair-form message: the same wire
// layout, but a frame announcing more than the one slot such a message can
// use is rejected before anything is allocated for it.
func (d *Decoder) PairAuth() crypto.Authenticator { return d.auth(1) }

func (d *Decoder) auth(maxMACs int) crypto.Authenticator {
	n := d.Count(maxMACs)
	if n == 0 {
		return crypto.Authenticator{}
	}
	a := crypto.Authenticator{MACs: make([][crypto.MACSize]byte, n)}
	for i := 0; i < n; i++ {
		a.MACs[i] = d.MAC()
	}
	return a
}
