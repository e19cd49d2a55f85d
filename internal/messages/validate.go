package messages

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
)

// ErrInvalid wraps all semantic validation failures (bad signatures, wrong
// senders, malformed certificates).
var ErrInvalid = errors.New("messages: invalid")

// SignerScheme maps each protocol message kind to the role whose key signs
// it. SplitBFT assigns different compartments to different messages; the
// PBFT baseline signs everything with the single replica key.
type SignerScheme struct {
	PrePrepare crypto.Role
	Prepare    crypto.Role
	Commit     crypto.Role
	Checkpoint crypto.Role
	ViewChange crypto.Role
	NewView    crypto.Role
}

// SplitScheme is the SplitBFT signer assignment (§3.2): Preparation signs
// PrePrepare/Prepare/NewView, Confirmation signs Commit/ViewChange, and
// Execution signs Checkpoints.
func SplitScheme() SignerScheme {
	return SignerScheme{
		PrePrepare: crypto.RolePreparation,
		Prepare:    crypto.RolePreparation,
		Commit:     crypto.RoleConfirmation,
		Checkpoint: crypto.RoleExecution,
		ViewChange: crypto.RoleConfirmation,
		NewView:    crypto.RolePreparation,
	}
}

// BaselineScheme is the plain-PBFT signer assignment: one key per replica.
func BaselineScheme() SignerScheme {
	return SignerScheme{
		PrePrepare: crypto.RoleReplica,
		Prepare:    crypto.RoleReplica,
		Commit:     crypto.RoleReplica,
		Checkpoint: crypto.RoleReplica,
		ViewChange: crypto.RoleReplica,
		NewView:    crypto.RoleReplica,
	}
}

// Verifier validates protocol messages and quorum certificates for a system
// of N replicas under a signer scheme.
type Verifier struct {
	N      int
	F      int
	Reg    *crypto.Registry
	Scheme SignerScheme
	// Cache, when non-nil, memoizes successful signature verifications so
	// retransmits and view-change replays skip redundant Ed25519 work. It
	// never changes verification outcomes (only successes are cached).
	Cache *VerifyCache

	// Mode selects how normal-case agreement traffic is authenticated
	// (AuthSig default). MACs holds the verifying compartment's pairwise
	// attested keys and Self its identity: in AuthMAC the vector slot it
	// checks is derived from both, in AuthSig they authenticate the hop
	// between compartments of one replica, and in either mode pair-form
	// messages (see verifyAuth). A Verifier without MACs (the PBFT baseline,
	// tests) checks signatures only and accepts no pair-form message.
	Mode AuthMode
	MACs *crypto.MACStore
	Self crypto.Identity

	// Consensus selects the agreement variant (ConsensusClassic default).
	// In ConsensusTrusted, N must be 2F+1, Mode is AuthMAC, Quorum shrinks
	// to F+1, and a counter-attested PrePrepare stands in for the Prepare
	// bundle.
	Consensus ConsensusMode

	// Crypto-op accounting for the auth ablation: how many Ed25519
	// verifications actually ran (cache hits excluded), the wall time they
	// took, and how many agreement-MAC verifications ran. Atomic — stats
	// readers run beside the protocol thread.
	sigOps   atomic.Uint64
	sigNanos atomic.Int64
	macOps   atomic.Uint64
	ctrOps   atomic.Uint64
	leaseOps atomic.Uint64
}

// VerifierStats is a snapshot of a Verifier's crypto-op counters.
type VerifierStats struct {
	// SigVerifies counts executed Ed25519 verifications (cache hits are
	// free and excluded); SigTime is the wall time they consumed.
	SigVerifies uint64
	SigTime     time.Duration
	// MACVerifies counts agreement-MAC (HMAC) verifications.
	MACVerifies uint64
	// CounterVerifies counts trusted-counter attestation checks (trusted
	// consensus mode): how often the counter stood in for a Prepare quorum.
	// The crypto work behind them shows in MACVerifies.
	CounterVerifies uint64
	// LeaseVerifies counts read-lease attestation checks (read-lease fast
	// path). Like CounterVerifies it includes cache-served re-checks: the
	// number attributes how often a lease grant was validated, not raw
	// Ed25519 work.
	LeaseVerifies uint64
}

// Stats returns the verifier's crypto-op counters.
func (v *Verifier) Stats() VerifierStats {
	return VerifierStats{
		SigVerifies:     v.sigOps.Load(),
		SigTime:         time.Duration(v.sigNanos.Load()),
		MACVerifies:     v.macOps.Load(),
		CounterVerifies: v.ctrOps.Load(),
		LeaseVerifies:   v.leaseOps.Load(),
	}
}

// ResetStats zeroes the crypto-op counters (between benchmark phases).
func (v *Verifier) ResetStats() {
	v.sigOps.Store(0)
	v.sigNanos.Store(0)
	v.macOps.Store(0)
	v.ctrOps.Store(0)
	v.leaseOps.Store(0)
}

// VerifySig checks sig over msg under the key registered for signer,
// consulting the verification cache when one is installed. All signature
// checks in this package funnel through here.
func (v *Verifier) VerifySig(signer crypto.Identity, msg, sig []byte) error {
	if v.Cache == nil {
		return v.timedVerifyFrom(signer, msg, sig)
	}
	k := verifyKey{signer: signer, sum: crypto.HashConcat(msg, sig)}
	if v.Cache.lookup(k) {
		return nil
	}
	if err := v.timedVerifyFrom(signer, msg, sig); err != nil {
		return err
	}
	v.Cache.store(k)
	return nil
}

// timedVerifyFrom runs one Ed25519 verification, accounting for it.
func (v *Verifier) timedVerifyFrom(signer crypto.Identity, msg, sig []byte) error {
	begin := time.Now()
	err := v.Reg.VerifyFrom(signer, msg, sig)
	v.sigOps.Add(1)
	v.sigNanos.Add(int64(time.Since(begin)))
	return err
}

// verifyAuth checks the authenticity of one agreement message — the single
// funnel for every mode and hop, and the receiver-side reader of authRules:
//
//   - Pair form, either mode: exactly one slot, the MAC under the pairwise key
//     this compartment shares with the sending enclave (PairAuth). It proves
//     origin exactly as a signature would — only the two enclaves hold the
//     key, the environment between them never does — and binds the addressee
//     by key: a slot made for another compartment, or by another sender, is
//     keyed differently. Nothing else is accepted and there is no signature to
//     fall back to; a slot keyed before a peer re-registered (restart) fails,
//     and the sender's next message is keyed afresh.
//   - MAC mode otherwise: the vector slot addressed to this compartment.
//   - Sig mode, hop form, co-located signer: the copy of a Commit that a
//     Confirmation hands over inside the machine carries one such pair MAC
//     (HopAuth), accepted in place of the signature; the receiver still
//     counts one vote of that one compartment and no quorum threshold moves.
//   - Sig mode otherwise — a remote signer whatever Auth it presents, a
//     transferable type, or a local slot that is absent, garbled or keyed
//     before a restart: the Ed25519 signature.
func (v *Verifier) verifyAuth(m Signable, signer crypto.Identity, sig []byte, auth crypto.Authenticator) error {
	e := GetEncoder()
	defer PutEncoder(e)
	m.AppendSigning(e)
	signing, t := e.Bytes(), m.MsgType()
	form := ProofFormOf(t)
	if form != ProofPair && v.Mode != AuthMAC {
		if form == ProofHop && v.coLocated(signer) && len(auth.MACs) == 1 {
			v.macOps.Add(1)
			if v.MACs.VerifySingle(signing, auth.MACs[0], signer) == nil {
				return nil
			}
		}
		return v.VerifySig(signer, signing, sig)
	}
	if v.MACs == nil {
		return fmt.Errorf("%w: %s without a pairwise key store", ErrInvalid, t)
	}
	idx := 0
	if form == ProofPair {
		if len(auth.MACs) != 1 {
			return fmt.Errorf("%w: %s carries %d authenticator slots, want one", ErrInvalid, t, len(auth.MACs))
		}
	} else if idx = AgreementAuthIndex(t, v.N, v.Self); idx < 0 {
		return fmt.Errorf("%w: %v/%v is not a %s receiver", ErrInvalid, v.Self.ReplicaID, v.Self.Role, t)
	}
	v.macOps.Add(1)
	return v.MACs.VerifyIndexed(signing, auth, idx, signer)
}

// coLocated reports whether signer is a different compartment of this
// verifier's own replica, reachable over the in-machine hop.
func (v *Verifier) coLocated(signer crypto.Identity) bool {
	return v.MACs != nil && signer.ReplicaID == v.Self.ReplicaID && signer.Role != v.Self.Role
}

// PairAuth returns the one-slot authenticator this verifier's compartment
// attaches to m for the enclave to: a MAC under the attested pairwise key of
// the two, which only to can check and only the two can make.
func (v *Verifier) PairAuth(m Signable, to crypto.Identity) crypto.Authenticator {
	e := GetEncoder()
	defer PutEncoder(e)
	m.AppendSigning(e)
	return crypto.Authenticator{MACs: [][crypto.MACSize]byte{v.MACs.MAC(e.Bytes(), to)}}
}

// HopAuth returns the authenticator the copy of a hop-form message carries
// when its sender (this verifier's compartment) hands it to compartment to of
// the same replica. In MAC mode that is the wire vector unchanged — it
// already holds the co-located receiver's slot. In sig mode it is the pair
// MAC for that compartment, which verifyAuth accepts in place of the
// signature the copy still carries.
func (v *Verifier) HopAuth(m Signable, wire crypto.Authenticator, to crypto.Role) crypto.Authenticator {
	if v.Mode == AuthMAC || v.MACs == nil {
		return wire
	}
	return v.PairAuth(m, crypto.Identity{ReplicaID: v.Self.ReplicaID, Role: to})
}

// NewVerifier builds a classic-consensus, sig-mode Verifier. N must be 3F+1
// with F >= 0.
func NewVerifier(n, f int, reg *crypto.Registry, scheme SignerScheme) (*Verifier, error) {
	return NewVerifierMode(n, f, reg, scheme, ConsensusClassic, AuthSig)
}

// NewVerifierMode builds a Verifier for one of the agreement corners
// ValidConsensus admits.
func NewVerifierMode(n, f int, reg *crypto.Registry, scheme SignerScheme, mode ConsensusMode, auth AuthMode) (*Verifier, error) {
	if err := ValidConsensus(mode, auth, n, f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return &Verifier{N: n, F: f, Reg: reg, Scheme: scheme, Consensus: mode, Mode: auth}, nil
}

// Primary returns the primary replica for a view.
func (v *Verifier) Primary(view uint64) uint32 {
	return uint32(view % uint64(v.N))
}

// Quorum returns the certificate size: 2f+1 in classic consensus, f+1 in
// trusted consensus (any two quorums still intersect in one replica whose
// enclaves are, per the hybrid fault model, at worst crashed).
func (v *Verifier) Quorum() int {
	if v.Consensus == ConsensusTrusted {
		return v.F + 1
	}
	return 2*v.F + 1
}

func (v *Verifier) validReplica(id uint32) error {
	if int(id) >= v.N {
		return fmt.Errorf("%w: replica id %d out of range (n=%d)", ErrInvalid, id, v.N)
	}
	return nil
}

// VerifyPrePrepare checks the PrePrepare's authenticity (signature or MAC
// slot, per mode), that the proposer is the primary of its view, and that
// an included batch matches the digest. Empty-batch PrePrepares (as found
// in certificates or null requests) skip the batch check when the digest
// is also zero or when stripped for certs.
func (v *Verifier) VerifyPrePrepare(pp *PrePrepare, requireBatch bool) error {
	return v.checkPrePrepare(pp, requireBatch, true)
}

// VerifyReissuedPrePrepare validates a PrePrepare embedded in a NewView.
// In sig mode it carries the new primary's signature like a live one; in
// MAC mode it carries no authenticator of its own — the Ed25519 signature
// on the enclosing NewView (same signing compartment, verified by the
// caller) covers it — so only the structural checks run.
func (v *Verifier) VerifyReissuedPrePrepare(pp *PrePrepare) error {
	return v.checkPrePrepare(pp, false, v.Mode != AuthMAC)
}

// CheckProposalBody runs VerifyPrePrepare's structural half on a PrePrepare
// used only as a request-body carrier (the Execution compartment's copy):
// the proposer is the primary of its view and the batch is present and
// hashes to the header digest. Authenticity is not checked — the holder must
// bind the body to an authenticated digest before acting on it.
func (v *Verifier) CheckProposalBody(pp *PrePrepare) error {
	return v.checkPrePrepare(pp, true, false)
}

func (v *Verifier) checkPrePrepare(pp *PrePrepare, requireBatch, needAuth bool) error {
	if err := v.validReplica(pp.Replica); err != nil {
		return err
	}
	if pp.Replica != v.Primary(pp.View) {
		return fmt.Errorf("%w: PrePrepare view %d from %d, primary is %d",
			ErrInvalid, pp.View, pp.Replica, v.Primary(pp.View))
	}
	if needAuth {
		signer := crypto.Identity{ReplicaID: pp.Replica, Role: v.Scheme.PrePrepare}
		if err := v.verifyAuth(pp, signer, pp.Sig, pp.Auth); err != nil {
			return fmt.Errorf("%w: PrePrepare(v=%d,n=%d): %v", ErrInvalid, pp.View, pp.Seq, err)
		}
	}
	hasBatch := len(pp.Batch.Requests) > 0
	if hasBatch {
		if got := pp.Batch.Digest(); got != pp.Digest {
			return fmt.Errorf("%w: PrePrepare batch digest %v != header digest %v",
				ErrInvalid, got, pp.Digest)
		}
	} else if requireBatch && !pp.Digest.IsZero() {
		return fmt.Errorf("%w: PrePrepare(v=%d,n=%d) missing batch body", ErrInvalid, pp.View, pp.Seq)
	}
	return nil
}

// VerifyCounter checks the trusted-counter attestation a PrePrepare
// carries: the counter enclave of the proposing replica must have
// authenticated (Replica, CtrVal, CounterDigest(pp)) with the HMAC
// addressed to this compartment. CtrSig is the vector laid out per
// CounterAuthReceivers, each entry under the attested pairwise key of
// counter and receiver, and must have exactly the layout's size: a
// truncated or padded one is rejected whole, not indexed into. Because the
// bound digest hashes the full signed header, a forged attestation fails
// the check itself, a transplanted one (lifted from another proposer) fails
// the key lookup and digest binding, and a replayed one (reused for a
// different view, sequence, or batch) fails the digest binding.
//
// An attestation convinces only its addressee: a receiver holding the
// pairwise key could forge one to itself and to nobody else, and slots
// garbled in transit stall exactly the compartments they address — the
// same non-transferability PrePrepare/Commit Auth vectors already have.
// Where the proof must be handed on (a ViewChange), VerifyPrepareCert
// takes the certificate vouch instead.
func (v *Verifier) VerifyCounter(pp *PrePrepare) error {
	if len(pp.CtrSig) == 0 {
		return fmt.Errorf("%w: PrePrepare(v=%d,n=%d) carries no counter attestation", ErrInvalid, pp.View, pp.Seq)
	}
	v.ctrOps.Add(1)
	if err := v.verifyCounterMAC(pp); err != nil {
		return fmt.Errorf("%w: PrePrepare(v=%d,n=%d) counter attestation: %v", ErrInvalid, pp.View, pp.Seq, err)
	}
	return nil
}

func (v *Verifier) verifyCounterMAC(pp *PrePrepare) error {
	if v.MACs == nil {
		return errors.New("no pairwise key store")
	}
	idx := authIndex(counterAuthRoles, v.N, v.Self)
	if idx < 0 {
		return fmt.Errorf("%v/%v verifies no counter attestations", v.Self.ReplicaID, v.Self.Role)
	}
	if want := len(counterAuthRoles) * v.N * crypto.MACSize; len(pp.CtrSig) != want {
		return fmt.Errorf("attestation vector is %d bytes, layout needs %d", len(pp.CtrSig), want)
	}
	var mac [crypto.MACSize]byte
	copy(mac[:], pp.CtrSig[idx*crypto.MACSize:])
	v.macOps.Add(1)
	signer := crypto.Identity{ReplicaID: pp.Replica, Role: crypto.RoleCounter}
	return v.MACs.VerifySingle(crypto.CounterSigningBytes(pp.Replica, pp.CtrVal, CounterDigest(pp)), mac, signer)
}

// VerifyCounterAt checks a live PrePrepare against the gap-free assignment
// law of the current view: with the view's counter base ctrBase pinned at
// sequence base seqBase (both zero in view 0, re-pinned by every NewView),
// the proposal at Seq must carry exactly CtrVal = ctrBase + (Seq-seqBase).
// Any gap, repeat, or fork in the leader's counter usage breaks the
// equation for some correct replica, which is what makes equivocation
// impossible to land rather than merely detectable.
func (v *Verifier) VerifyCounterAt(pp *PrePrepare, ctrBase, seqBase uint64) error {
	if pp.Seq <= seqBase {
		return fmt.Errorf("%w: PrePrepare(v=%d,n=%d) at or below counter base seq %d",
			ErrInvalid, pp.View, pp.Seq, seqBase)
	}
	if want := ctrBase + (pp.Seq - seqBase); pp.CtrVal != want {
		return fmt.Errorf("%w: PrePrepare(v=%d,n=%d) counter value %d breaks gap-free assignment (want %d)",
			ErrInvalid, pp.View, pp.Seq, pp.CtrVal, want)
	}
	return v.VerifyCounter(pp)
}

// VerifyLease checks a read-lease grant: the granter must be the primary
// of the lease's view and the signature must verify under the granter's
// counter-enclave key (RoleCounter) over the canonical lease layout. The
// time-validity and read-index admission checks are the lease holder's
// job — this validates only provenance, so a grant forged by the untrusted
// environment or transplanted from another view/holder is rejected here.
func (v *Verifier) VerifyLease(g *LeaseGrant) error {
	if err := v.validReplica(g.Granter); err != nil {
		return err
	}
	if err := v.validReplica(g.Holder); err != nil {
		return err
	}
	if g.Granter != v.Primary(g.View) {
		return fmt.Errorf("%w: LeaseGrant for view %d from %d, primary is %d",
			ErrInvalid, g.View, g.Granter, v.Primary(g.View))
	}
	v.leaseOps.Add(1)
	signer := crypto.Identity{ReplicaID: g.Granter, Role: crypto.RoleCounter}
	msg := crypto.LeaseSigningBytes(g.Granter, g.Holder, g.View, g.Expiry, g.Probe)
	if err := v.VerifySig(signer, msg, g.Sig); err != nil {
		return fmt.Errorf("%w: LeaseGrant(v=%d,holder=%d): %v", ErrInvalid, g.View, g.Holder, err)
	}
	return nil
}

// VerifyLeaseAck checks a lease acknowledgement: the holder must be a
// valid replica and the message carry the pair MAC of its Execution
// compartment for this Preparation. Freshness — whether the echoed expiry
// still lies in the future and exceeds the holder's previous acks — is the
// granter's job.
func (v *Verifier) VerifyLeaseAck(a *LeaseAck) error {
	if err := v.validReplica(a.Holder); err != nil {
		return err
	}
	signer := crypto.Identity{ReplicaID: a.Holder, Role: crypto.RoleExecution}
	if err := v.verifyAuth(a, signer, nil, a.Auth); err != nil {
		return fmt.Errorf("%w: LeaseAck(v=%d,holder=%d): %v", ErrInvalid, a.View, a.Holder, err)
	}
	return nil
}

// VerifyReadIndex checks a read-index query: the holder must be a valid
// replica and the message carry the pair MAC of its Execution compartment for
// this Preparation.
func (v *Verifier) VerifyReadIndex(r *ReadIndex) error {
	if err := v.validReplica(r.Holder); err != nil {
		return err
	}
	signer := crypto.Identity{ReplicaID: r.Holder, Role: crypto.RoleExecution}
	if err := v.verifyAuth(r, signer, nil, r.Auth); err != nil {
		return fmt.Errorf("%w: ReadIndex(v=%d,holder=%d): %v", ErrInvalid, r.View, r.Holder, err)
	}
	return nil
}

// VerifyReadIndexReply checks a read-index answer: the sender must be the
// primary of the reply's view and the message carry the pair MAC of its
// Preparation compartment — the same compartment that assigns sequence
// numbers, so the frontier carries the proposer's own authority — for this
// Execution. Whether it answers this holder's outstanding query (Holder, View,
// Epoch) is the holder's job.
func (v *Verifier) VerifyReadIndexReply(r *ReadIndexReply) error {
	if err := v.validReplica(r.Replica); err != nil {
		return err
	}
	if r.Replica != v.Primary(r.View) {
		return fmt.Errorf("%w: ReadIndexReply for view %d from %d, primary is %d",
			ErrInvalid, r.View, r.Replica, v.Primary(r.View))
	}
	signer := crypto.Identity{ReplicaID: r.Replica, Role: crypto.RolePreparation}
	if err := v.verifyAuth(r, signer, nil, r.Auth); err != nil {
		return fmt.Errorf("%w: ReadIndexReply(v=%d,epoch=%d): %v", ErrInvalid, r.View, r.Epoch, err)
	}
	return nil
}

// VerifyPrepare checks a Prepare signature and sender validity. Prepares
// must come from backups, not the view's primary.
func (v *Verifier) VerifyPrepare(p *Prepare) error {
	if err := v.validReplica(p.Replica); err != nil {
		return err
	}
	if p.Replica == v.Primary(p.View) {
		return fmt.Errorf("%w: Prepare from primary %d of view %d", ErrInvalid, p.Replica, p.View)
	}
	signer := crypto.Identity{ReplicaID: p.Replica, Role: v.Scheme.Prepare}
	if err := v.verifyAuth(p, signer, p.Sig, p.Auth); err != nil {
		return fmt.Errorf("%w: Prepare(v=%d,n=%d,r=%d): %v", ErrInvalid, p.View, p.Seq, p.Replica, err)
	}
	return nil
}

// VerifyCommit checks a Commit signature and sender validity.
func (v *Verifier) VerifyCommit(c *Commit) error {
	if err := v.validReplica(c.Replica); err != nil {
		return err
	}
	signer := crypto.Identity{ReplicaID: c.Replica, Role: v.Scheme.Commit}
	if err := v.verifyAuth(c, signer, c.Sig, c.Auth); err != nil {
		return fmt.Errorf("%w: Commit(v=%d,n=%d,r=%d): %v", ErrInvalid, c.View, c.Seq, c.Replica, err)
	}
	return nil
}

// VerifyCheckpoint checks a Checkpoint signature.
func (v *Verifier) VerifyCheckpoint(c *Checkpoint) error {
	if err := v.validReplica(c.Replica); err != nil {
		return err
	}
	signer := crypto.Identity{ReplicaID: c.Replica, Role: v.Scheme.Checkpoint}
	if err := v.verifyAuth(c, signer, c.Sig, c.Auth); err != nil {
		return fmt.Errorf("%w: Checkpoint(n=%d,r=%d): %v", ErrInvalid, c.Seq, c.Replica, err)
	}
	return nil
}

// VerifyPrepareCert checks a full prepare certificate. MAC mode (either
// consensus mode): the attesting Confirmation enclave's signature over the
// aggregated claim — what that enclave accepted (the Prepare quorum in
// classic, the counter attestation in trusted) was MAC'd to it alone and
// is not transferable, so the single vouch is the whole proof. Sig mode: a
// valid PrePrepare plus 2f valid matching Prepares from distinct backups.
func (v *Verifier) VerifyPrepareCert(pc *PrepareCert) error {
	if v.Mode == AuthMAC {
		if err := v.validReplica(pc.PrePrepare.Replica); err != nil {
			return fmt.Errorf("prepare cert: %w", err)
		}
		if pc.PrePrepare.Replica != v.Primary(pc.View()) {
			return fmt.Errorf("%w: prepare cert for view %d names proposer %d, primary is %d",
				ErrInvalid, pc.View(), pc.PrePrepare.Replica, v.Primary(pc.View()))
		}
		if err := v.validReplica(pc.Attestor); err != nil {
			return fmt.Errorf("prepare cert attestor: %w", err)
		}
		attestor := crypto.Identity{ReplicaID: pc.Attestor, Role: v.Scheme.ViewChange}
		claim := PrepareCertClaim(pc.View(), pc.Seq(), pc.Digest())
		if err := v.VerifySig(attestor, claim, pc.Vouch); err != nil {
			return fmt.Errorf("%w: prepare cert vouch (v=%d,n=%d): %v", ErrInvalid, pc.View(), pc.Seq(), err)
		}
		return nil
	}
	if err := v.VerifyPrePrepare(&pc.PrePrepare, false); err != nil {
		return fmt.Errorf("prepare cert: %w", err)
	}
	if len(pc.Prepares) < 2*v.F {
		return fmt.Errorf("%w: prepare cert has %d prepares, need %d", ErrInvalid, len(pc.Prepares), 2*v.F)
	}
	seen := make(map[uint32]bool, len(pc.Prepares))
	for i := range pc.Prepares {
		p := &pc.Prepares[i]
		if p.View != pc.PrePrepare.View || p.Seq != pc.PrePrepare.Seq || p.Digest != pc.PrePrepare.Digest {
			return fmt.Errorf("%w: prepare cert contains non-matching Prepare(v=%d,n=%d)",
				ErrInvalid, p.View, p.Seq)
		}
		if seen[p.Replica] {
			return fmt.Errorf("%w: prepare cert has duplicate Prepare from %d", ErrInvalid, p.Replica)
		}
		seen[p.Replica] = true
		if err := v.VerifyPrepare(p); err != nil {
			return fmt.Errorf("prepare cert: %w", err)
		}
	}
	return nil
}

// VerifyCheckpointCert checks a stable checkpoint certificate: in sig
// mode, 2f+1 valid matching Checkpoints from distinct replicas; in MAC
// mode, the attesting enclave's signature over the aggregated claim. The
// zero certificate (the genesis checkpoint at sequence 0) is always valid.
func (v *Verifier) VerifyCheckpointCert(cc *CheckpointCert) error {
	if cc.Seq == 0 && len(cc.Proof) == 0 && len(cc.Vouch) == 0 {
		return nil // genesis
	}
	if v.Mode == AuthMAC {
		if err := v.validReplica(cc.Attestor); err != nil {
			return fmt.Errorf("checkpoint cert attestor: %w", err)
		}
		role := crypto.Role(cc.AttestorRole)
		switch role {
		case crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution:
		default:
			return fmt.Errorf("%w: checkpoint cert attestor role %v is not a compartment", ErrInvalid, role)
		}
		attestor := crypto.Identity{ReplicaID: cc.Attestor, Role: role}
		claim := CheckpointCertClaim(cc.Seq, cc.StateDigest)
		if err := v.VerifySig(attestor, claim, cc.Vouch); err != nil {
			return fmt.Errorf("%w: checkpoint cert vouch (n=%d): %v", ErrInvalid, cc.Seq, err)
		}
		return nil
	}
	if len(cc.Proof) < v.Quorum() {
		return fmt.Errorf("%w: checkpoint cert has %d proofs, need %d", ErrInvalid, len(cc.Proof), v.Quorum())
	}
	seen := make(map[uint32]bool, len(cc.Proof))
	for i := range cc.Proof {
		c := &cc.Proof[i]
		if c.Seq != cc.Seq || c.StateDigest != cc.StateDigest {
			return fmt.Errorf("%w: checkpoint cert contains non-matching Checkpoint(n=%d)", ErrInvalid, c.Seq)
		}
		if seen[c.Replica] {
			return fmt.Errorf("%w: checkpoint cert has duplicate Checkpoint from %d", ErrInvalid, c.Replica)
		}
		seen[c.Replica] = true
		if err := v.VerifyCheckpoint(c); err != nil {
			return fmt.Errorf("checkpoint cert: %w", err)
		}
	}
	return nil
}

// VerifyViewChange checks a ViewChange signature and its embedded
// certificates. Every prepared certificate must be above the stable
// checkpoint and from a view below the requested one.
func (v *Verifier) VerifyViewChange(vc *ViewChange) error {
	if err := v.validReplica(vc.Replica); err != nil {
		return err
	}
	signer := crypto.Identity{ReplicaID: vc.Replica, Role: v.Scheme.ViewChange}
	if err := v.VerifySig(signer, vc.SigningBytes(), vc.Sig); err != nil {
		return fmt.Errorf("%w: ViewChange(v=%d,r=%d): %v", ErrInvalid, vc.NewViewNum, vc.Replica, err)
	}
	if err := v.VerifyCheckpointCert(&vc.Stable); err != nil {
		return fmt.Errorf("ViewChange stable cert: %w", err)
	}
	for i := range vc.Prepared {
		pc := &vc.Prepared[i]
		if pc.Seq() <= vc.Stable.Seq {
			return fmt.Errorf("%w: ViewChange prepare cert at seq %d below stable %d",
				ErrInvalid, pc.Seq(), vc.Stable.Seq)
		}
		if pc.View() >= vc.NewViewNum {
			return fmt.Errorf("%w: ViewChange prepare cert from view %d >= new view %d",
				ErrInvalid, pc.View(), vc.NewViewNum)
		}
		if v.Consensus == ConsensusTrusted && pc.PrePrepare.CtrVal > vc.HighCtr {
			return fmt.Errorf("%w: ViewChange claims counter position %d below its own cert at %d (stale claim)",
				ErrInvalid, vc.HighCtr, pc.PrePrepare.CtrVal)
		}
		if err := v.VerifyPrepareCert(pc); err != nil {
			return fmt.Errorf("ViewChange: %w", err)
		}
	}
	return nil
}

// NewViewSigner signs the re-issued PrePrepares and the NewView itself; it
// is provided by the new primary's Preparation compartment (or replica).
type NewViewSigner func(signingBytes []byte) []byte

// ComputeNewViewPrePrepares derives the PrePrepares a new primary must
// re-issue from a set of ViewChanges, per the PBFT view-change rules: for
// every sequence number between the highest stable checkpoint (min-s) and
// the highest prepared sequence (max-s), re-propose the digest from the
// prepare certificate with the highest view, or a null request if no
// certificate covers that slot.
//
// The returned slice is sorted by sequence number. sign may be nil, in which
// case the PrePrepares carry no signature (used during validation, where
// only digests are compared).
func ComputeNewViewPrePrepares(view uint64, primary uint32, vcs []ViewChange, sign NewViewSigner) (stable CheckpointCert, pps []PrePrepare) {
	// min-s: the highest stable checkpoint among the view changes.
	for i := range vcs {
		if vcs[i].Stable.Seq >= stable.Seq {
			stable = vcs[i].Stable
		}
	}
	// max-s: the highest sequence in any prepare certificate.
	maxS := stable.Seq
	best := make(map[uint64]*PrepareCert)
	for i := range vcs {
		for j := range vcs[i].Prepared {
			pc := &vcs[i].Prepared[j]
			if pc.Seq() <= stable.Seq {
				continue
			}
			if pc.Seq() > maxS {
				maxS = pc.Seq()
			}
			cur, ok := best[pc.Seq()]
			if !ok || pc.View() > cur.View() {
				best[pc.Seq()] = pc
			}
		}
	}
	for seq := stable.Seq + 1; seq <= maxS; seq++ {
		pp := PrePrepare{View: view, Seq: seq, Replica: primary}
		if pc, ok := best[seq]; ok {
			pp.Digest = pc.Digest()
		} // else: null request, zero digest
		if sign != nil {
			pp.Sig = sign(pp.SigningBytes())
		}
		pps = append(pps, pp)
	}
	return stable, pps
}

// VerifyNewView checks a NewView message: the signature, that the sender is
// the primary of the new view, that it carries 2f+1 valid ViewChanges for
// that view from distinct replicas, and that the re-issued PrePrepares and
// stable checkpoint match an independent recomputation from the ViewChanges.
func (v *Verifier) VerifyNewView(nv *NewView) error {
	if err := v.validReplica(nv.Replica); err != nil {
		return err
	}
	if nv.Replica != v.Primary(nv.View) {
		return fmt.Errorf("%w: NewView(v=%d) from %d, primary is %d",
			ErrInvalid, nv.View, nv.Replica, v.Primary(nv.View))
	}
	signer := crypto.Identity{ReplicaID: nv.Replica, Role: v.Scheme.NewView}
	if err := v.VerifySig(signer, nv.SigningBytes(), nv.Sig); err != nil {
		return fmt.Errorf("%w: NewView(v=%d): %v", ErrInvalid, nv.View, err)
	}
	if len(nv.ViewChanges) < v.Quorum() {
		return fmt.Errorf("%w: NewView has %d ViewChanges, need %d",
			ErrInvalid, len(nv.ViewChanges), v.Quorum())
	}
	seen := make(map[uint32]bool, len(nv.ViewChanges))
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.NewViewNum != nv.View {
			return fmt.Errorf("%w: NewView(v=%d) contains ViewChange for view %d",
				ErrInvalid, nv.View, vc.NewViewNum)
		}
		if seen[vc.Replica] {
			return fmt.Errorf("%w: NewView has duplicate ViewChange from %d", ErrInvalid, vc.Replica)
		}
		seen[vc.Replica] = true
		if err := v.VerifyViewChange(vc); err != nil {
			return fmt.Errorf("NewView: %w", err)
		}
	}
	wantStable, wantPPs := ComputeNewViewPrePrepares(nv.View, nv.Replica, nv.ViewChanges, nil)
	if nv.Stable.Seq != wantStable.Seq || nv.Stable.StateDigest != wantStable.StateDigest {
		return fmt.Errorf("%w: NewView stable checkpoint (n=%d) does not match recomputation (n=%d)",
			ErrInvalid, nv.Stable.Seq, wantStable.Seq)
	}
	if len(nv.PrePrepares) != len(wantPPs) {
		return fmt.Errorf("%w: NewView re-issues %d PrePrepares, recomputation yields %d",
			ErrInvalid, len(nv.PrePrepares), len(wantPPs))
	}
	for i := range wantPPs {
		got, want := &nv.PrePrepares[i], &wantPPs[i]
		if got.View != want.View || got.Seq != want.Seq || got.Digest != want.Digest || got.Replica != want.Replica {
			return fmt.Errorf("%w: NewView PrePrepare[%d] (n=%d,d=%v) mismatches recomputation (n=%d,d=%v)",
				ErrInvalid, i, got.Seq, got.Digest, want.Seq, want.Digest)
		}
		if err := v.VerifyReissuedPrePrepare(got); err != nil {
			return fmt.Errorf("NewView: %w", err)
		}
		if v.Consensus == ConsensusTrusted {
			// The new primary must consume fresh counter values
			// CtrBase+1..CtrBase+k across the re-issued slots in sequence
			// order — the base the whole view's affine law then hangs off.
			// Its counter enclave cannot re-sign old values, so a valid
			// attestation here also proves the value was never used before.
			if err := v.VerifyCounterAt(got, nv.CtrBase, wantStable.Seq); err != nil {
				return fmt.Errorf("NewView: %w", err)
			}
		}
	}
	return nil
}

// VerifyQuote checks an attestation quote from one of n replicas: its
// signature against the registered identity key, the expected enclave
// measurement and the handshake nonce.
func VerifyQuote(reg *crypto.Registry, n int, q *AttestQuote, wantMeasurement crypto.Digest, wantNonce [32]byte) error {
	if int(q.Replica) >= n {
		return fmt.Errorf("%w: replica id %d out of range (n=%d)", ErrInvalid, q.Replica, n)
	}
	signer := crypto.Identity{ReplicaID: q.Replica, Role: crypto.Role(q.Role)}
	if err := reg.VerifyFrom(signer, q.SigningBytes(), q.Sig); err != nil {
		return fmt.Errorf("%w: quote: %v", ErrInvalid, err)
	}
	if q.Measurement != wantMeasurement {
		return fmt.Errorf("%w: quote measurement %v != expected %v", ErrInvalid, q.Measurement, wantMeasurement)
	}
	if q.Nonce != wantNonce {
		return fmt.Errorf("%w: quote nonce mismatch (replay?)", ErrInvalid)
	}
	return nil
}
