package messages

import (
	"errors"
	"strings"
	"testing"

	"github.com/splitbft/splitbft/internal/crypto"
)

// trustedMACSecret keys the secret-derived pairwise stores that stand in
// for the attested-ECDH keys in the fixtures (the derivation source is
// irrelevant to the verification logic).
var trustedMACSecret = []byte("counter-test")

// authModes is what every trusted-counter test below runs under: the
// agreement auth modes trusted consensus admits, which is MAC alone.
var authModes = []AuthMode{AuthMAC}

// newTrustedFixture builds a fully keyed 2f+1 trusted-consensus group:
// per-replica compartment keys plus the counter enclaves' keys, with fx.ver
// checking as replica 2's Confirmation compartment. The tests below play
// the byzantine leader against it — forging, gapping, replaying and
// transplanting counter attestations — and expect the Verifier to reject
// every variant.
func newTrustedFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{t: t, n: 3, f: 1, reg: crypto.NewRegistry(), keys: make(map[crypto.Identity]*crypto.KeyPair)}
	roles := []crypto.Role{
		crypto.RoleReplica, crypto.RolePreparation, crypto.RoleConfirmation,
		crypto.RoleExecution, crypto.RoleCounter,
	}
	for r := 0; r < fx.n; r++ {
		for _, role := range roles {
			id := crypto.Identity{ReplicaID: uint32(r), Role: role}
			kp := crypto.MustGenerateKeyPair()
			fx.keys[id] = kp
			fx.reg.Register(id, kp.Public)
		}
	}
	fx.ver = fx.trustedVerifier(crypto.Identity{ReplicaID: 2, Role: crypto.RoleConfirmation})
	return fx
}

// trustedVerifier builds the fixture's verifier as seen from compartment
// self, which selects the attestation slot it checks.
func (fx *fixture) trustedVerifier(self crypto.Identity) *Verifier {
	fx.t.Helper()
	ver, err := NewVerifierMode(fx.n, fx.f, fx.reg, SplitScheme(), ConsensusTrusted, AuthMAC)
	if err != nil {
		fx.t.Fatal(err)
	}
	ver.Self = self
	ver.MACs = crypto.NewMACStore(trustedMACSecret, self)
	return ver
}

// attestAs binds value to pp the way a counter enclave does — the
// per-receiver HMAC vector over the counter-digest of the proposal — but
// under signer's pairwise keys, which only for the proposer's own
// RoleCounter identity yields a genuine attestation.
func (fx *fixture) attestAs(signer crypto.Identity, pp *PrePrepare, value uint64) {
	pp.CtrVal = value
	msg := crypto.CounterSigningBytes(signer.ReplicaID, value, CounterDigest(pp))
	macs := crypto.NewMACStore(trustedMACSecret, signer)
	pp.CtrSig = nil
	for _, r := range CounterAuthReceivers(fx.n) {
		mac := macs.MAC(msg, r)
		pp.CtrSig = append(pp.CtrSig, mac[:]...)
	}
}

// attest is attestAs for the proposer's own counter enclave.
func (fx *fixture) attest(pp *PrePrepare, value uint64) {
	fx.attestAs(crypto.Identity{ReplicaID: pp.Replica, Role: crypto.RoleCounter}, pp, value)
}

// TestValidConsensusGroupSizes: the three agreement corners, and each way
// out of them — a wrong group shape for the mode, a negative threshold, or
// trusted consensus under signatures.
func TestValidConsensusGroupSizes(t *testing.T) {
	cases := []struct {
		mode ConsensusMode
		auth AuthMode
		n, f int
		ok   bool
	}{
		{ConsensusClassic, AuthSig, 4, 1, true},
		{ConsensusClassic, AuthMAC, 4, 1, true},
		{ConsensusClassic, AuthSig, 3, 1, false},
		{ConsensusClassic, AuthMAC, 3, 1, false},
		{ConsensusClassic, AuthSig, 7, 2, true},
		{ConsensusTrusted, AuthMAC, 3, 1, true},
		{ConsensusTrusted, AuthMAC, 4, 1, false},
		{ConsensusTrusted, AuthMAC, 5, 2, true},
		{ConsensusTrusted, AuthMAC, 3, -1, false},
		{ConsensusTrusted, AuthSig, 3, 1, false},
		{ConsensusTrusted, AuthSig, 5, 2, false},
	}
	for _, c := range cases {
		if err := ValidConsensus(c.mode, c.auth, c.n, c.f); (err == nil) != c.ok {
			t.Errorf("ValidConsensus(%v, %v, n=%d, f=%d) = %v, want ok=%v", c.mode, c.auth, c.n, c.f, err, c.ok)
		}
	}
	if _, err := NewVerifierMode(4, 1, crypto.NewRegistry(), SplitScheme(), ConsensusTrusted, AuthMAC); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trusted verifier accepted a 3f+1 group: %v", err)
	}
	if _, err := NewVerifierMode(3, 1, crypto.NewRegistry(), SplitScheme(), ConsensusTrusted, AuthSig); !errors.Is(err, ErrInvalid) {
		t.Fatalf("trusted verifier accepted sig agreement: %v", err)
	}
}

// TestTrustedCounterAttestationChecks walks the byzantine-leader attack
// surface of the counter binding: each tampered proposal must fail
// VerifyCounterAt while the honest one passes.
func TestTrustedCounterAttestationChecks(t *testing.T) {
	for _, mode := range authModes {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newTrustedFixture(t)

			good := fx.prePrepare(0, 1, testBatch(1))
			fx.attest(good, 1)
			if err := fx.ver.VerifyCounterAt(good, 0, 0); err != nil {
				t.Fatalf("honest counter-bound PrePrepare rejected: %v", err)
			}
			if got := fx.ver.Stats().CounterVerifies; got != 1 {
				t.Fatalf("CounterVerifies = %d after one check, want 1", got)
			}

			// Missing attestation: a classic-mode proposal leaking into a
			// trusted group must not commit.
			bare := fx.prePrepare(0, 1, testBatch(1))
			if err := fx.ver.VerifyCounterAt(bare, 0, 0); err == nil {
				t.Fatal("PrePrepare without counter attestation accepted")
			}

			// Forged: right value, right shape, but authenticated outside
			// the counter enclave — here with the pairwise keys of the leader's
			// Preparation compartment.
			forged := fx.prePrepare(0, 1, testBatch(1))
			fx.attestAs(crypto.Identity{ReplicaID: 0, Role: crypto.RolePreparation}, forged, 1)
			if err := fx.ver.VerifyCounterAt(forged, 0, 0); err == nil {
				t.Fatal("forged counter attestation accepted")
			}

			// Gapped: the leader skips a counter value. The affine
			// assignment law CtrVal = base + (Seq - seqBase) breaks and the
			// proposal is rejected even though the attestation itself is
			// genuine.
			gapped := fx.prePrepare(0, 1, testBatch(1))
			fx.attest(gapped, 2)
			if err := fx.ver.VerifyCounterAt(gapped, 0, 0); err == nil {
				t.Fatal("gapped counter value accepted")
			}
			// ...and the mirror image: reusing an old value for a later slot.
			reused := fx.prePrepare(0, 2, testBatch(2))
			fx.attest(reused, 1)
			if err := fx.ver.VerifyCounterAt(reused, 0, 0); err == nil {
				t.Fatal("replayed (reused) counter value accepted")
			}

			// Replayed attestation: a genuine attestation lifted from one
			// proposal onto a different batch at the same slot — the
			// equivocation attack the counter exists to kill — or onto
			// another sequence number or view. The digest binding breaks
			// the check every time.
			pa := fx.prePrepare(0, 1, testBatch(1))
			fx.attest(pa, 1)
			otherBatch := fx.prePrepare(0, 1, testBatch(2))
			otherSeq := fx.prePrepare(0, 2, testBatch(1))
			otherView := fx.prePrepare(3, 1, testBatch(1)) // view 3: primary 0 again
			for name, pb := range map[string]*PrePrepare{"batch": otherBatch, "seq": otherSeq, "view": otherView} {
				pb.CtrVal, pb.CtrSig = pa.CtrVal, pa.CtrSig
				if err := fx.ver.VerifyCounter(pb); err == nil {
					t.Fatalf("counter attestation replayed onto a different %s accepted", name)
				}
			}

			// Transplanted: a genuine attestation from ANOTHER replica's
			// counter enclave. The verifier looks the key up under the
			// proposer's identity, so replica 1's counter never validates a
			// proposal claiming to be replica 0's.
			tp := fx.prePrepare(0, 1, testBatch(1))
			fx.attestAs(crypto.Identity{ReplicaID: 1, Role: crypto.RoleCounter}, tp, 1)
			if err := fx.ver.VerifyCounterAt(tp, 0, 0); err == nil {
				t.Fatal("counter attestation transplanted from another replica accepted")
			}
		})
	}
}

// TestMACCounterAttestationVector covers what a MAC vector can get wrong
// beyond the attacks above: its shape and the per-receiver slots.
func TestMACCounterAttestationVector(t *testing.T) {
	fx := newTrustedFixture(t)
	good := fx.prePrepare(0, 1, testBatch(1))
	fx.attest(good, 1)
	full := good.CtrSig
	if want := 2 * fx.n * crypto.MACSize; len(full) != want {
		t.Fatalf("attestation vector is %d bytes, want %d", len(full), want)
	}

	// Truncated, padded, or one byte short: rejected whole, never indexed
	// into — even when the verifier's own slot is still inside.
	for _, vec := range [][]byte{
		full[:crypto.MACSize],
		full[:len(full)-1],
		full[:len(full)-crypto.MACSize],
		append(append([]byte{}, full...), make([]byte, crypto.MACSize)...),
	} {
		bad := *good
		bad.CtrSig = vec
		if err := fx.ver.VerifyCounterAt(&bad, 0, 0); !errors.Is(err, ErrInvalid) {
			t.Fatalf("mis-sized attestation vector (%d bytes) accepted: %v", len(vec), err)
		}
	}

	// One flipped bit in the slot addressed to the verifier.
	self := authIndex(counterAuthRoles, fx.n, fx.ver.Self)
	flipped := *good
	flipped.CtrSig = append([]byte{}, full...)
	flipped.CtrSig[self*crypto.MACSize] ^= 1
	if err := fx.ver.VerifyCounterAt(&flipped, 0, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("forged MAC slot accepted: %v", err)
	}

	// Another receiver's (genuine) MAC moved into the verifier's slot.
	swapped := *good
	swapped.CtrSig = append([]byte{}, full...)
	copy(swapped.CtrSig[self*crypto.MACSize:(self+1)*crypto.MACSize], full[:crypto.MACSize])
	if err := fx.ver.VerifyCounterAt(&swapped, 0, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("wrong-pair MAC accepted: %v", err)
	}

	// Valid for Preparation, corrupt for Confirmation: the environment
	// garbles one slot in transit. Only the addressed compartment stalls —
	// its peers, checking their own slots, still accept.
	prep2 := fx.trustedVerifier(crypto.Identity{ReplicaID: 2, Role: crypto.RolePreparation})
	conf1 := fx.trustedVerifier(crypto.Identity{ReplicaID: 1, Role: crypto.RoleConfirmation})
	for name, v := range map[string]*Verifier{"preparation 2": prep2, "confirmation 1": conf1} {
		if err := v.VerifyCounterAt(&flipped, 0, 0); err != nil {
			t.Fatalf("%s rejected an attestation whose own slot is intact: %v", name, err)
		}
	}
	if got := prep2.Stats(); got.CounterVerifies != 1 || got.MACVerifies != 1 || got.SigVerifies != 0 {
		t.Fatalf("MAC attestation check counted as %+v, want one counter check, one MAC, no signature", got)
	}

	// Execution is not an addressee: it never verifies attestations.
	exec := fx.trustedVerifier(crypto.Identity{ReplicaID: 2, Role: crypto.RoleExecution})
	if err := exec.VerifyCounterAt(good, 0, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Execution verifier accepted a counter attestation: %v", err)
	}
}

// trustedPrepareCert builds what a trusted-mode replica exports as its
// prepared proof: no Prepares, the bare header (CtrVal kept, attestation
// dropped) vouched for by replica 2's Confirmation enclave.
func (fx *fixture) trustedPrepareCert(view, seq, ctr uint64, batch Batch) PrepareCert {
	pp := fx.prePrepare(view, seq, batch)
	fx.attest(pp, ctr)
	pc := PrepareCert{PrePrepare: *pp.StripAuth(), Attestor: 2}
	pc.Vouch = fx.sign(2, fx.ver.Scheme.ViewChange, PrepareCertClaim(view, seq, pp.Digest))
	return pc
}

func TestTrustedPrepareCertVerify(t *testing.T) {
	for _, mode := range authModes {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newTrustedFixture(t)
			pc := fx.trustedPrepareCert(0, 1, 1, testBatch(1))
			if err := fx.ver.VerifyPrepareCert(&pc); err != nil {
				t.Fatalf("trusted prepare cert rejected: %v", err)
			}
			if len(pc.Prepares) != 0 {
				t.Fatalf("trusted prepare cert carries %d Prepares, want none", len(pc.Prepares))
			}
			if len(pc.PrePrepare.CtrSig) != 0 || pc.PrePrepare.CtrVal != 1 {
				t.Fatalf("cert header: CtrVal=%d with %d attestation bytes, want the value and no attestation",
					pc.PrePrepare.CtrVal, len(pc.PrePrepare.CtrSig))
			}

			// A cert whose proposer is not the view's primary must fail even
			// with genuine evidence from that replica's own enclaves.
			rogue := fx.trustedPrepareCert(0, 1, 1, testBatch(1))
			rogue.PrePrepare.Replica = 1
			if err := fx.ver.VerifyPrepareCert(&rogue); err == nil {
				t.Fatal("trusted prepare cert from non-primary accepted")
			}

			// Stripped of its vouch the cert proves nothing, and a leftover
			// attestation vector is no substitute for it.
			naked := fx.trustedPrepareCert(0, 1, 1, testBatch(1))
			naked.Vouch = nil
			if err := fx.ver.VerifyPrepareCert(&naked); err == nil {
				t.Fatal("trusted prepare cert without proof accepted")
			}
			pp := fx.prePrepare(0, 1, testBatch(1))
			fx.attest(pp, 1)
			unvouched := PrepareCert{PrePrepare: *pp.StripBatch(), Attestor: 2}
			if err := fx.ver.VerifyPrepareCert(&unvouched); err == nil {
				t.Fatal("cert carrying only a (non-transferable) attestation vector accepted")
			}
			// A vouch binds (view, seq, digest): it does not carry over to another
			// batch.
			moved := fx.trustedPrepareCert(0, 1, 1, testBatch(1))
			other := testBatch(2)
			moved.PrePrepare.Digest = other.Digest()
			if err := fx.ver.VerifyPrepareCert(&moved); err == nil {
				t.Fatal("vouch replayed onto a different batch accepted")
			}
		})
	}
}

// TestViewChangeStaleCounterClaim: a ViewChange must advertise a counter
// position at least as high as its own best certificate — understating it
// would let a colluding next leader re-assign already-used counter values
// to fresh proposals.
func TestViewChangeStaleCounterClaim(t *testing.T) {
	for _, mode := range authModes {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newTrustedFixture(t)
			pc := fx.trustedPrepareCert(0, 3, 3, testBatch(3))

			honest := ViewChange{NewViewNum: 1, Stable: CheckpointCert{}, Prepared: []PrepareCert{pc}, Replica: 2, HighCtr: 3}
			honest.Sig = fx.sign(2, fx.ver.Scheme.ViewChange, honest.SigningBytes())
			if err := fx.ver.VerifyViewChange(&honest); err != nil {
				t.Fatalf("honest ViewChange rejected: %v", err)
			}

			stale := ViewChange{NewViewNum: 1, Stable: CheckpointCert{}, Prepared: []PrepareCert{pc}, Replica: 2, HighCtr: 2}
			stale.Sig = fx.sign(2, fx.ver.Scheme.ViewChange, stale.SigningBytes())
			err := fx.ver.VerifyViewChange(&stale)
			if err == nil {
				t.Fatal("ViewChange with stale counter claim accepted")
			}
			if !strings.Contains(err.Error(), "stale claim") {
				t.Fatalf("unexpected rejection reason: %v", err)
			}
		})
	}
}

// TestTrustedNewViewCounterBase: the re-issued proposals in a NewView must
// consume FRESH counter values starting at the advertised CtrBase — a new
// leader reusing the old view's values (or skipping ahead) is rejected by
// every correct replica, so it can neither rewrite nor skip slots. The
// ViewChanges carry vouched certificates and the re-issues carry MAC-vector
// attestations from the new primary's counter.
func TestTrustedNewViewCounterBase(t *testing.T) {
	for _, mode := range authModes {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newTrustedFixture(t)
			pc := fx.trustedPrepareCert(0, 1, 1, testBatch(1))

			mkVC := func(replica uint32) ViewChange {
				vc := ViewChange{NewViewNum: 1, Stable: CheckpointCert{}, Prepared: []PrepareCert{pc}, Replica: replica, HighCtr: 1}
				vc.Sig = fx.sign(replica, fx.ver.Scheme.ViewChange, vc.SigningBytes())
				return vc
			}
			vcs := []ViewChange{mkVC(1), mkVC(2)} // f+1 = 2 ViewChanges

			// The new primary (replica 1) re-issues seq 1. Its own counter
			// has already produced `base` values, so the re-issue consumes
			// base+1. Re-issues carry no authenticator of their own (the NewView
			// signature covers them).
			build := func(base uint64, reissueCtr uint64) *NewView {
				stable, pps := ComputeNewViewPrePrepares(1, 1, vcs, nil)
				for i := range pps {
					fx.attest(&pps[i], reissueCtr+uint64(i))
				}
				nv := &NewView{View: 1, Replica: 1, ViewChanges: vcs, Stable: stable, PrePrepares: pps, CtrBase: base}
				nv.Sig = fx.sign(1, fx.ver.Scheme.NewView, nv.SigningBytes())
				return nv
			}

			if err := fx.ver.VerifyNewView(build(7, 8)); err != nil {
				t.Fatalf("honest NewView rejected: %v", err)
			}
			if err := fx.ver.VerifyNewView(build(7, 3)); err == nil {
				t.Fatal("NewView re-issue with counter value below its base accepted")
			}
			if err := fx.ver.VerifyNewView(build(7, 9)); err == nil {
				t.Fatal("NewView re-issue skipping a counter value accepted")
			}
			// A re-issue attested by the OLD primary's counter: right
			// value, wrong enclave.
			nv := build(7, 8)
			fx.attestAs(crypto.Identity{ReplicaID: 0, Role: crypto.RoleCounter}, &nv.PrePrepares[0], 8)
			nv.Sig = fx.sign(1, fx.ver.Scheme.NewView, nv.SigningBytes())
			if err := fx.ver.VerifyNewView(nv); err == nil {
				t.Fatal("NewView re-issue attested by another replica's counter accepted")
			}
		})
	}
}
