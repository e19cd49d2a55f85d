package messages

import (
	"errors"
	"testing"

	"github.com/splitbft/splitbft/internal/crypto"
)

// hopVerifier builds the sig-mode verifier of one compartment of fx's
// system, holding that compartment's pairwise store (secret-derived: the
// derivation source is irrelevant to the rule under test).
func hopVerifier(fx *fixture, self crypto.Identity) *Verifier {
	fx.t.Helper()
	v, err := NewVerifier(fx.n, fx.f, fx.reg, SplitScheme())
	if err != nil {
		fx.t.Fatal(err)
	}
	v.Self = self
	v.MACs = crypto.NewMACStore([]byte("hop-test"), self)
	return v
}

// TestLocalHopCommit pins the co-located hop rule on the one message it
// applies to: Execution accepts its own replica's Confirmation on the
// pairwise MAC and pays no Ed25519; anything short of that exact slot falls
// back to the signature, and a bad signature then rejects.
func TestLocalHopCommit(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	conf2 := hopVerifier(fx, crypto.Identity{ReplicaID: 2, Role: crypto.RoleConfirmation})
	exec2 := hopVerifier(fx, crypto.Identity{ReplicaID: 2, Role: crypto.RoleExecution})
	d := crypto.HashData([]byte("batch"))

	signed := fx.commit(0, 5, d, 2)
	if len(conf2.HopAuth(&signed, signed.Auth, crypto.RoleExecution).MACs) != 1 {
		t.Fatal("sig-mode hop authenticator must be exactly one slot")
	}
	unsigned := signed
	unsigned.Sig = []byte("not a signature")

	// The genuine hop copy: accepted with the signature never looked at.
	hop := unsigned
	hop.Auth = conf2.HopAuth(&hop, hop.Auth, crypto.RoleExecution)
	if err := exec2.VerifyCommit(&hop); err != nil {
		t.Fatalf("co-located Commit with a valid hop MAC rejected: %v", err)
	}
	if st := exec2.Stats(); st.SigVerifies != 0 || st.MACVerifies != 1 {
		t.Fatalf("hop acceptance cost %+v, want one MAC and no signature", st)
	}

	forged := hop.Auth.MACs[0]
	forged[0] ^= 1
	conf3 := hopVerifier(fx, crypto.Identity{ReplicaID: 3, Role: crypto.RoleConfirmation})
	other := fx.commit(0, 5, d, 3)
	for name, auth := range map[string]crypto.Authenticator{
		"forged slot": {MACs: [][crypto.MACSize]byte{forged}},
		"slot made for the wrong co-located role": conf2.HopAuth(&signed, signed.Auth, crypto.RolePreparation),
		"slot lifted from another replica":        conf3.HopAuth(&other, other.Auth, crypto.RoleExecution),
		"stripped slot":                           {},
		"two slots":                               {MACs: [][crypto.MACSize]byte{hop.Auth.MACs[0], hop.Auth.MACs[0]}},
	} {
		good, bad := signed, unsigned
		good.Auth, bad.Auth = auth, auth
		if err := exec2.VerifyCommit(&good); err != nil {
			t.Fatalf("%s: the valid signature beside it must still carry the Commit: %v", name, err)
		}
		if err := exec2.VerifyCommit(&bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s accepted without a valid signature: %v", name, err)
		}
	}
}

// TestLocalHopRemoteSignerNeverMACAccepted: the hop MAC is for the
// in-machine hop only. A Commit claiming another replica's Confirmation is
// judged by its signature whatever one-slot Auth it presents — even one that
// is a genuine MAC under the pairwise key of that remote pair.
func TestLocalHopRemoteSignerNeverMACAccepted(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	exec2 := hopVerifier(fx, crypto.Identity{ReplicaID: 2, Role: crypto.RoleExecution})
	conf1 := crypto.Identity{ReplicaID: 1, Role: crypto.RoleConfirmation}

	c := fx.commit(0, 5, crypto.HashData([]byte("batch")), 1)
	c.Sig = []byte("not a signature")
	c.Auth = crypto.Authenticator{MACs: [][crypto.MACSize]byte{
		crypto.NewMACStore([]byte("hop-test"), conf1).MAC(c.SigningBytes(), exec2.Self),
	}}
	if err := exec2.VerifyCommit(&c); !errors.Is(err, ErrInvalid) {
		t.Fatalf("remote signer accepted on a one-slot Auth: %v", err)
	}
	if st := exec2.Stats(); st.MACVerifies != 0 || st.SigVerifies != 1 {
		t.Fatalf("remote Commit cost %+v, want the signature check and no MAC check", st)
	}
}

// TestLocalHopNotForHandedOnTypes is the safety half of the rule, walked over
// the whole table. A PrePrepare or Prepare ends up inside the prepare
// certificates Confirmation exports, a Checkpoint inside checkpoint
// certificates, a ViewChange inside a NewView, so their receivers must hold
// the signatures: a faulty sender presenting a valid pair MAC beside a garbage
// signature must be rejected — co-located or remote — or it could make a
// correct Confirmation commit on a certificate it can never prove to the next
// primary.
func TestLocalHopNotForHandedOnTypes(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	conf1 := hopVerifier(fx, crypto.Identity{ReplicaID: 1, Role: crypto.RoleConfirmation})
	// slot is the pair MAC the signer of m would make for conf1.
	slot := func(m Signable, signer crypto.Identity) crypto.Authenticator {
		mac := crypto.NewMACStore([]byte("hop-test"), signer).MAC(signingBytes(m), conf1.Self)
		return crypto.Authenticator{MACs: [][crypto.MACSize]byte{mac}}
	}
	garbage := []byte("not a signature")
	d := crypto.HashData([]byte("batch"))

	// build returns, for a transferable type and a sending replica, a verify
	// call on a copy that carries a garbage signature and, where the type has
	// an Auth field at all, the sender's valid pair MAC for conf1.
	build := map[Type]func(from uint32) func() error{
		TPrePrepare: func(from uint32) func() error {
			pp := fx.prePrepare(uint64(from), 6, testBatch(1)) // view = from: replica from proposes
			if err := conf1.VerifyPrePrepare(pp, false); err != nil {
				t.Fatalf("signed PrePrepare rejected: %v", err)
			}
			pp.Sig, pp.Auth = garbage, slot(pp, crypto.Identity{ReplicaID: from, Role: crypto.RolePreparation})
			return func() error { return conf1.VerifyPrePrepare(pp, false) }
		},
		TPrepare: func(from uint32) func() error {
			p := fx.prepare(0, 5, d, from)
			if err := conf1.VerifyPrepare(&p); err != nil {
				t.Fatalf("signed Prepare rejected: %v", err)
			}
			p.Sig, p.Auth = garbage, slot(&p, crypto.Identity{ReplicaID: from, Role: crypto.RolePreparation})
			return func() error { return conf1.VerifyPrepare(&p) }
		},
		TCheckpoint: func(from uint32) func() error {
			c := fx.checkpoint(10, d, from)
			if err := conf1.VerifyCheckpoint(&c); err != nil {
				t.Fatalf("signed Checkpoint rejected: %v", err)
			}
			c.Sig, c.Auth = garbage, slot(&c, crypto.Identity{ReplicaID: from, Role: crypto.RoleExecution})
			return func() error { return conf1.VerifyCheckpoint(&c) }
		},
		TViewChange: func(from uint32) func() error {
			vc := fx.viewChange(1, CheckpointCert{}, nil, from)
			if err := conf1.VerifyViewChange(&vc); err != nil {
				t.Fatalf("signed ViewChange rejected: %v", err)
			}
			vc.Sig = garbage // no Auth field: a MAC has nowhere to travel
			return func() error { return conf1.VerifyViewChange(&vc) }
		},
		TNewView: func(from uint32) func() error {
			nv := &NewView{View: uint64(from), Replica: from, Sig: garbage}
			return func() error { return conf1.VerifyNewView(nv) }
		},
	}
	for typ := TRequest; typ <= TReadIndexReply; typ++ {
		if ProofFormOf(typ) != ProofTransferable {
			continue
		}
		mk, ok := build[typ]
		if !ok {
			t.Fatalf("%s is transferable and this test has no case for it", typ)
		}
		for _, from := range []uint32{1, 2} { // co-located with conf1, remote
			if err := mk(from)(); !errors.Is(err, ErrInvalid) {
				t.Fatalf("%s from replica %d accepted without a valid signature: %v", typ, from, err)
			}
		}
	}
	if st := conf1.Stats(); st.MACVerifies != 0 {
		t.Fatalf("handed-on types ran %d MAC checks, want none", st.MACVerifies)
	}
}

// TestHopAuthKeepsMACModeVector: in MAC mode the wire vector already holds
// the co-located receiver's slot, so the hop copy is the wire message.
func TestHopAuthKeepsMACModeVector(t *testing.T) {
	self := crypto.Identity{ReplicaID: 2, Role: crypto.RoleConfirmation}
	v, _ := macVerifier(t, self)
	c := &Commit{View: 0, Seq: 3, Digest: crypto.HashData([]byte("b")), Replica: 2}
	c.Auth = v.MACs.Authenticate(c.SigningBytes(), AgreementAuthReceivers(TCommit, 4))
	if got := v.HopAuth(c, c.Auth, crypto.RoleExecution); len(got.MACs) != 4 || got.MACs[2] != c.Auth.MACs[2] {
		t.Fatalf("MAC-mode hop authenticator is not the wire vector: %d slots", len(got.MACs))
	}
}

// TestCheckProposalBody: the structural half of VerifyPrePrepare, with no
// authentication — what Execution applies to a PrePrepare it uses as a body.
func TestCheckProposalBody(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	pp := fx.prePrepare(0, 1, testBatch(1))
	pp.Sig = []byte("not a signature")
	if err := fx.ver.CheckProposalBody(pp); err != nil {
		t.Fatalf("well-formed body rejected: %v", err)
	}
	if st := fx.ver.Stats(); st.SigVerifies != 0 {
		t.Fatalf("body check ran %d signature verifications", st.SigVerifies)
	}
	wrongProposer := *pp
	wrongProposer.Replica = 1
	tampered := *pp
	tampered.Batch = testBatch(2)
	stripped := *pp.StripBatch()
	for name, bad := range map[string]*PrePrepare{
		"proposer is not the primary":       &wrongProposer,
		"batch does not hash to the digest": &tampered,
		"batch missing":                     &stripped,
	} {
		if err := fx.ver.CheckProposalBody(bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("%s: accepted: %v", name, err)
		}
	}
}
