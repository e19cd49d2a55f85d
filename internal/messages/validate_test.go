package messages

import (
	"strings"
	"testing"

	"github.com/splitbft/splitbft/internal/crypto"
)

// fixture holds a fully keyed 4-replica system for validation tests.
type fixture struct {
	t    *testing.T
	n, f int
	reg  *crypto.Registry
	keys map[crypto.Identity]*crypto.KeyPair
	ver  *Verifier
}

func newFixture(t *testing.T, scheme SignerScheme) *fixture {
	t.Helper()
	fx := &fixture{t: t, n: 4, f: 1, reg: crypto.NewRegistry(), keys: make(map[crypto.Identity]*crypto.KeyPair)}
	roles := []crypto.Role{
		crypto.RoleReplica, crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution,
	}
	for r := 0; r < fx.n; r++ {
		for _, role := range roles {
			id := crypto.Identity{ReplicaID: uint32(r), Role: role}
			kp := crypto.MustGenerateKeyPair()
			fx.keys[id] = kp
			fx.reg.Register(id, kp.Public)
		}
	}
	ver, err := NewVerifier(fx.n, fx.f, fx.reg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	fx.ver = ver
	return fx
}

func (fx *fixture) sign(replica uint32, role crypto.Role, msg []byte) []byte {
	kp, ok := fx.keys[crypto.Identity{ReplicaID: replica, Role: role}]
	if !ok {
		fx.t.Fatalf("no key for replica %d role %v", replica, role)
	}
	return kp.Sign(msg)
}

func (fx *fixture) prePrepare(view, seq uint64, batch Batch) *PrePrepare {
	pp := &PrePrepare{View: view, Seq: seq, Digest: batch.Digest(), Replica: fx.ver.Primary(view), Batch: batch}
	pp.Sig = fx.sign(pp.Replica, fx.ver.Scheme.PrePrepare, pp.SigningBytes())
	return pp
}

func (fx *fixture) prepare(view, seq uint64, d crypto.Digest, replica uint32) Prepare {
	p := Prepare{View: view, Seq: seq, Digest: d, Replica: replica}
	p.Sig = fx.sign(replica, fx.ver.Scheme.Prepare, p.SigningBytes())
	return p
}

func (fx *fixture) commit(view, seq uint64, d crypto.Digest, replica uint32) Commit {
	c := Commit{View: view, Seq: seq, Digest: d, Replica: replica}
	c.Sig = fx.sign(replica, fx.ver.Scheme.Commit, c.SigningBytes())
	return c
}

func (fx *fixture) checkpoint(seq uint64, d crypto.Digest, replica uint32) Checkpoint {
	c := Checkpoint{Seq: seq, StateDigest: d, Replica: replica}
	c.Sig = fx.sign(replica, fx.ver.Scheme.Checkpoint, c.SigningBytes())
	return c
}

func (fx *fixture) prepareCert(view, seq uint64, batch Batch) PrepareCert {
	pp := fx.prePrepare(view, seq, batch)
	var preps []Prepare
	primary := fx.ver.Primary(view)
	for r := uint32(0); len(preps) < 2*fx.f; r++ {
		if r == primary {
			continue
		}
		preps = append(preps, fx.prepare(view, seq, pp.Digest, r))
	}
	return PrepareCert{PrePrepare: *pp.StripBatch(), Prepares: preps}
}

func (fx *fixture) checkpointCert(seq uint64, d crypto.Digest) CheckpointCert {
	cc := CheckpointCert{Seq: seq, StateDigest: d}
	for r := 0; r < fx.ver.Quorum(); r++ {
		cc.Proof = append(cc.Proof, fx.checkpoint(seq, d, uint32(r)))
	}
	return cc
}

func (fx *fixture) viewChange(newView uint64, stable CheckpointCert, prepared []PrepareCert, replica uint32) ViewChange {
	vc := ViewChange{NewViewNum: newView, Stable: stable, Prepared: prepared, Replica: replica}
	vc.Sig = fx.sign(replica, fx.ver.Scheme.ViewChange, vc.SigningBytes())
	return vc
}

func testBatch(i int) Batch {
	return Batch{Requests: []Request{{ClientID: uint32(i), Timestamp: uint64(i), Payload: []byte{byte(i)}}}}
}

func TestVerifyPrePrepare(t *testing.T) {
	for _, scheme := range []SignerScheme{SplitScheme(), BaselineScheme()} {
		fx := newFixture(t, scheme)
		pp := fx.prePrepare(0, 1, testBatch(1))
		if err := fx.ver.VerifyPrePrepare(pp, true); err != nil {
			t.Fatalf("valid PrePrepare rejected: %v", err)
		}
		// Wrong proposer.
		bad := *pp
		bad.Replica = 1
		bad.Sig = fx.sign(1, scheme.PrePrepare, bad.SigningBytes())
		if err := fx.ver.VerifyPrePrepare(&bad, true); err == nil {
			t.Fatal("PrePrepare from non-primary accepted")
		}
		// Corrupt signature.
		bad2 := *pp
		bad2.Sig = append([]byte(nil), pp.Sig...)
		bad2.Sig[0] ^= 1
		if err := fx.ver.VerifyPrePrepare(&bad2, true); err == nil {
			t.Fatal("PrePrepare with bad signature accepted")
		}
		// Digest does not cover the batch.
		bad3 := *pp
		bad3.Batch = testBatch(2)
		if err := fx.ver.VerifyPrePrepare(&bad3, true); err == nil {
			t.Fatal("PrePrepare with mismatched batch accepted")
		}
		// Missing body when required.
		bad4 := *pp.StripBatch()
		if err := fx.ver.VerifyPrePrepare(&bad4, true); err == nil {
			t.Fatal("PrePrepare without batch accepted when body required")
		}
		if err := fx.ver.VerifyPrePrepare(&bad4, false); err != nil {
			t.Fatalf("stripped PrePrepare rejected for cert use: %v", err)
		}
	}
}

func TestVerifyPrepareRejectsPrimary(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	var d crypto.Digest
	p := fx.prepare(0, 1, d, 1)
	if err := fx.ver.VerifyPrepare(&p); err != nil {
		t.Fatalf("valid Prepare rejected: %v", err)
	}
	// Primary of view 0 is replica 0.
	pp := Prepare{View: 0, Seq: 1, Digest: d, Replica: 0}
	pp.Sig = fx.sign(0, fx.ver.Scheme.Prepare, pp.SigningBytes())
	if err := fx.ver.VerifyPrepare(&pp); err == nil {
		t.Fatal("Prepare from the view's primary accepted")
	}
}

func TestVerifyCommitAndCheckpoint(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	var d crypto.Digest
	c := fx.commit(2, 5, d, 3)
	if err := fx.ver.VerifyCommit(&c); err != nil {
		t.Fatalf("valid Commit rejected: %v", err)
	}
	c.Seq = 6 // tamper
	if err := fx.ver.VerifyCommit(&c); err == nil {
		t.Fatal("tampered Commit accepted")
	}
	cp := fx.checkpoint(100, d, 2)
	if err := fx.ver.VerifyCheckpoint(&cp); err != nil {
		t.Fatalf("valid Checkpoint rejected: %v", err)
	}
	cp.Replica = 99
	if err := fx.ver.VerifyCheckpoint(&cp); err == nil {
		t.Fatal("Checkpoint with out-of-range replica accepted")
	}
}

func TestVerifyPrepareCert(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	pc := fx.prepareCert(0, 3, testBatch(3))
	if err := fx.ver.VerifyPrepareCert(&pc); err != nil {
		t.Fatalf("valid prepare cert rejected: %v", err)
	}
	// Too few prepares.
	short := pc
	short.Prepares = pc.Prepares[:1]
	if err := fx.ver.VerifyPrepareCert(&short); err == nil {
		t.Fatal("short prepare cert accepted")
	}
	// Duplicate sender.
	dup := pc
	dup.Prepares = []Prepare{pc.Prepares[0], pc.Prepares[0]}
	if err := fx.ver.VerifyPrepareCert(&dup); err == nil {
		t.Fatal("duplicate-sender prepare cert accepted")
	}
	// Mismatched digest inside.
	mism := pc
	other := fx.prepare(0, 3, crypto.HashData([]byte("other")), 2)
	mism.Prepares = []Prepare{pc.Prepares[0], other}
	if err := fx.ver.VerifyPrepareCert(&mism); err == nil {
		t.Fatal("mismatched prepare cert accepted")
	}
}

func TestVerifyCheckpointCert(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	d := crypto.HashData([]byte("state"))
	cc := fx.checkpointCert(50, d)
	if err := fx.ver.VerifyCheckpointCert(&cc); err != nil {
		t.Fatalf("valid checkpoint cert rejected: %v", err)
	}
	genesis := CheckpointCert{}
	if err := fx.ver.VerifyCheckpointCert(&genesis); err != nil {
		t.Fatalf("genesis cert rejected: %v", err)
	}
	short := cc
	short.Proof = cc.Proof[:2]
	if err := fx.ver.VerifyCheckpointCert(&short); err == nil {
		t.Fatal("short checkpoint cert accepted")
	}
	dup := cc
	dup.Proof = []Checkpoint{cc.Proof[0], cc.Proof[0], cc.Proof[1]}
	if err := fx.ver.VerifyCheckpointCert(&dup); err == nil {
		t.Fatal("duplicate checkpoint cert accepted")
	}
}

func TestVerifyViewChange(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	d := crypto.HashData([]byte("state"))
	stable := fx.checkpointCert(10, d)
	pc := fx.prepareCert(0, 12, testBatch(12))
	vc := fx.viewChange(1, stable, []PrepareCert{pc}, 2)
	if err := fx.ver.VerifyViewChange(&vc); err != nil {
		t.Fatalf("valid ViewChange rejected: %v", err)
	}
	// Prepare cert below the stable checkpoint.
	below := fx.prepareCert(0, 9, testBatch(9))
	bad := fx.viewChange(1, stable, []PrepareCert{below}, 2)
	if err := fx.ver.VerifyViewChange(&bad); err == nil ||
		!strings.Contains(err.Error(), "below stable") {
		t.Fatalf("prepare cert below stable accepted: %v", err)
	}
	// Prepare cert from a view >= the new view.
	fx2 := newFixture(t, SplitScheme())
	future := fx2.prepareCert(1, 12, testBatch(12))
	bad2 := fx2.viewChange(1, fx2.checkpointCert(10, d), []PrepareCert{future}, 2)
	if err := fx2.ver.VerifyViewChange(&bad2); err == nil {
		t.Fatal("prepare cert from future view accepted")
	}
}

// buildNewView constructs a NewView for view 1 out of 2f+1 ViewChanges,
// signing with the new primary (replica 1).
func buildNewView(fx *fixture, vcs []ViewChange) *NewView {
	primary := fx.ver.Primary(1)
	signFn := func(b []byte) []byte { return fx.sign(primary, fx.ver.Scheme.PrePrepare, b) }
	stable, pps := ComputeNewViewPrePrepares(1, primary, vcs, signFn)
	nv := &NewView{View: 1, ViewChanges: vcs, Stable: stable, PrePrepares: pps, Replica: primary}
	nv.Sig = fx.sign(primary, fx.ver.Scheme.NewView, nv.SigningBytes())
	return nv
}

func TestVerifyNewView(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	d := crypto.HashData([]byte("state"))
	stable := fx.checkpointCert(10, d)
	pc12 := fx.prepareCert(0, 12, testBatch(12))

	var vcs []ViewChange
	for r := uint32(0); r < 3; r++ {
		prepared := []PrepareCert{}
		if r == 0 {
			prepared = append(prepared, pc12)
		}
		vcs = append(vcs, fx.viewChange(1, stable, prepared, r))
	}
	nv := buildNewView(fx, vcs)
	if err := fx.ver.VerifyNewView(nv); err != nil {
		t.Fatalf("valid NewView rejected: %v", err)
	}
	// Seq 11 has no certificate: it must be re-proposed as a null request,
	// and seq 12 must carry the prepared digest.
	if len(nv.PrePrepares) != 2 {
		t.Fatalf("NewView re-issued %d PrePrepares, want 2 (11 null, 12 prepared)", len(nv.PrePrepares))
	}
	if !nv.PrePrepares[0].Digest.IsZero() || nv.PrePrepares[0].Seq != 11 {
		t.Fatalf("slot 11 should be a null request, got seq=%d digest=%v",
			nv.PrePrepares[0].Seq, nv.PrePrepares[0].Digest)
	}
	if nv.PrePrepares[1].Digest != pc12.Digest() {
		t.Fatal("slot 12 lost its prepared digest")
	}

	// Tamper: swap the re-proposed digest (the paper's "false PrePrepares in
	// a NewView" corner case — the Preparation compartment must reject it).
	tampered := *nv
	tampered.PrePrepares = append([]PrePrepare(nil), nv.PrePrepares...)
	tampered.PrePrepares[1].Digest = crypto.HashData([]byte("evil"))
	tampered.PrePrepares[1].Sig = fx.sign(1, fx.ver.Scheme.PrePrepare, tampered.PrePrepares[1].SigningBytes())
	tampered.Sig = fx.sign(1, fx.ver.Scheme.NewView, tampered.SigningBytes())
	if err := fx.ver.VerifyNewView(&tampered); err == nil {
		t.Fatal("NewView with substituted PrePrepare digest accepted")
	}

	// Too few view changes.
	short := *nv
	short.ViewChanges = nv.ViewChanges[:2]
	short.Sig = fx.sign(1, fx.ver.Scheme.NewView, short.SigningBytes())
	if err := fx.ver.VerifyNewView(&short); err == nil {
		t.Fatal("NewView with 2 ViewChanges accepted")
	}

	// Wrong sender: replica 2 claims view 1.
	wrong := *nv
	wrong.Replica = 2
	wrong.Sig = fx.sign(2, fx.ver.Scheme.NewView, wrong.SigningBytes())
	if err := fx.ver.VerifyNewView(&wrong); err == nil {
		t.Fatal("NewView from non-primary accepted")
	}
}

func TestComputeNewViewPicksHighestView(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	// Two certificates for seq 12: one from view 0, one from view 1 with a
	// different digest. The view-1 certificate must win.
	pcV0 := fx.prepareCert(0, 12, testBatch(1))
	pcV1 := fx.prepareCert(1, 12, testBatch(2))
	stable := CheckpointCert{Seq: 11}
	vcs := []ViewChange{
		fx.viewChange(2, stable, []PrepareCert{pcV0}, 0),
		fx.viewChange(2, stable, []PrepareCert{pcV1}, 1),
		fx.viewChange(2, stable, nil, 3),
	}
	_, pps := ComputeNewViewPrePrepares(2, fx.ver.Primary(2), vcs, nil)
	if len(pps) != 1 {
		t.Fatalf("got %d PrePrepares, want 1", len(pps))
	}
	if pps[0].Digest != pcV1.Digest() {
		t.Fatal("new view must re-propose the digest from the highest view")
	}
}

func TestVerifierRejectsBadConfig(t *testing.T) {
	if _, err := NewVerifier(4, 2, crypto.NewRegistry(), SplitScheme()); err == nil {
		t.Fatal("n != 3f+1 accepted")
	}
}

func TestVerifyQuote(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	meas := crypto.HashData([]byte("enclave-code"))
	var nonce [32]byte
	nonce[0] = 7
	q := &AttestQuote{
		Replica: 1, Role: uint8(crypto.RoleExecution),
		Measurement: meas, EnclavePub: [32]byte{9}, Nonce: nonce,
	}
	q.Sig = fx.sign(1, crypto.RoleExecution, q.SigningBytes())
	if err := VerifyQuote(fx.reg, fx.n, q, meas, nonce); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	if err := VerifyQuote(fx.reg, fx.n, q, crypto.HashData([]byte("other")), nonce); err == nil {
		t.Fatal("quote with wrong measurement accepted")
	}
	var otherNonce [32]byte
	if err := VerifyQuote(fx.reg, fx.n, q, meas, otherNonce); err == nil {
		t.Fatal("replayed quote accepted")
	}
	if err := VerifyQuote(fx.reg, 1, q, meas, nonce); err == nil {
		t.Fatal("quote from a replica outside the group accepted")
	}
}
