package execution

import (
	"fmt"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Tests for Execution's use of a PrePrepare as a request body without
// verifying it, and for the Prepare a slot's accepted proposal makes
// unverifiable.

const hopSecret = "hop-test-secret"

// heldFixture is one Execution compartment driven by hand, with its code
// in reach, plus a key pair registered as the view-0 primary's Preparation.
type heldFixture struct {
	t       *testing.T
	code    *Compartment
	enc     *tee.Enclave
	ver     *messages.Verifier
	kvs     *app.KVS
	primary *crypto.KeyPair
	confs   []*crypto.KeyPair
}

func newHeldFixture(t *testing.T, window uint64) *heldFixture {
	t.Helper()
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	fx := &heldFixture{t: t, ver: ver, kvs: app.NewKVS(), primary: crypto.MustGenerateKeyPair()}
	cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: 3, MACSecret: []byte(hopSecret), WatermarkWindow: window})
	fx.code = mustExecution(t, cfg, fx.kvs, ver)
	if fx.enc, err = tee.NewEnclave(3, crypto.RoleExecution, fx.code, tee.ZeroCostModel()); err != nil {
		t.Fatal(err)
	}
	reg.Register(crypto.Identity{ReplicaID: 0, Role: crypto.RolePreparation}, fx.primary.Public)
	for r := uint32(0); r < 3; r++ {
		kp := crypto.MustGenerateKeyPair()
		reg.Register(crypto.Identity{ReplicaID: r, Role: crypto.RoleConfirmation}, kp.Public)
		fx.confs = append(fx.confs, kp)
	}
	return fx
}

// proposal builds a view-0 PrePrepare for seq carrying one PUT of key;
// signed by the primary's key, or by nobody.
func (fx *heldFixture) proposal(seq uint64, key string, signed bool) *messages.PrePrepare {
	b := messages.Batch{Requests: []messages.Request{
		testRequest([]byte(hopSecret), 4, 7, seq, app.EncodePut(key, []byte("v"))),
	}}
	pp := &messages.PrePrepare{View: 0, Seq: seq, Digest: b.Digest(), Replica: 0, Batch: b, Sig: []byte("forged")}
	if signed {
		pp.Sig = fx.primary.Sign(pp.SigningBytes())
	}
	return pp
}

func (fx *heldFixture) deliver(m messages.Message) []tee.OutMsg {
	fx.t.Helper()
	out, err := fx.enc.Invoke(wrapMessage(messages.Marshal(m)))
	if err != nil {
		fx.t.Fatal(err)
	}
	return out
}

// TestHeldBodyForgedFirstThenReal: a forged proposal that wins the race for
// a slot is held for free, cannot keep the real one out — which is then
// authenticated, once — and is never executed: only the body a commit
// certificate names is.
func TestHeldBodyForgedFirstThenReal(t *testing.T) {
	fx := newHeldFixture(t, 0)
	forged, real := fx.proposal(1, "forged", false), fx.proposal(1, "real", true)

	fx.deliver(forged)
	if got := fx.ver.Stats().SigVerifies; got != 0 {
		t.Fatalf("the first body for a slot cost %d signature verifications, want 0", got)
	}
	fx.deliver(real)
	fx.deliver(real) // a retransmission finds its body on file
	if got := fx.ver.Stats().SigVerifies; got != 1 {
		t.Fatalf("the real proposal behind a forged one cost %d signature verifications, want exactly 1", got)
	}
	// A second forgery for the occupied slot pays — and fails — as before.
	fx.deliver(fx.proposal(1, "forged-too", false))
	if len(fx.code.batches) != 2 || len(fx.code.held) != 1 {
		t.Fatalf("cache holds %d bodies (%d unauthenticated), want the forged first arrival and the real one", len(fx.code.batches), len(fx.code.held))
	}

	var out []tee.OutMsg
	for r, kp := range fx.confs {
		c := &messages.Commit{View: 0, Seq: 1, Digest: real.Digest, Replica: uint32(r)}
		c.Sig = kp.Sign(c.SigningBytes())
		out = fx.deliver(c)
	}
	if _, replied := findMsg[*messages.Reply](t, out, tee.DestClient); !replied {
		t.Fatal("the certified proposal did not execute")
	}
	if _, ok := fx.kvs.Get("real"); !ok {
		t.Fatal("the real proposal's write is missing")
	}
	if _, ok := fx.kvs.Get("forged"); ok || fx.kvs.Len() != 1 {
		t.Fatal("a forged body was executed")
	}
}

// TestHeldBodyUncertifiedNeverExecutes: a held body alone moves nothing,
// and a certificate for another digest does not execute it either.
func TestHeldBodyUncertifiedNeverExecutes(t *testing.T) {
	fx := newHeldFixture(t, 0)
	if out := fx.deliver(fx.proposal(1, "forged", false)); len(out) != 0 {
		t.Fatal("execution acted on an unauthenticated body")
	}
	other := crypto.HashData([]byte("what the group agreed on"))
	for r, kp := range fx.confs {
		c := &messages.Commit{View: 0, Seq: 1, Digest: other, Replica: uint32(r)}
		c.Sig = kp.Sign(c.SigningBytes())
		if _, replied := findMsg[*messages.Reply](t, fx.deliver(c), tee.DestClient); replied {
			t.Fatal("executed a body the certificate does not name")
		}
	}
	if fx.kvs.Len() != 0 {
		t.Fatal("state changed without a certified body")
	}
}

// TestHeldBodyFloodBounded: however many forged proposals arrive, the
// bodies kept without authentication never exceed one per slot of the
// window; every further one costs the flooder's target a verification, as
// each did before, and is dropped.
func TestHeldBodyFloodBounded(t *testing.T) {
	const window, perSlot = 8, 4
	fx := newHeldFixture(t, window)
	for seq := uint64(1); seq <= window+4; seq++ { // the last four are out of window
		for k := 0; k < perSlot; k++ {
			fx.deliver(fx.proposal(seq, fmt.Sprintf("flood-%d-%d", seq, k), false))
		}
	}
	if len(fx.code.held) != window || len(fx.code.batches) != window {
		t.Fatalf("flood left %d bodies (%d unauthenticated) in the cache, want %d — one per slot of the window",
			len(fx.code.batches), len(fx.code.held), window)
	}
	if got, want := fx.ver.Stats().SigVerifies, uint64(window*(perSlot-1)); got != want {
		t.Fatalf("flood cost %d signature verifications, want %d (every body but the first per slot)", got, want)
	}
}

// TestHeldBodySlidingFloodBounded: a flooder that keeps its forged bodies
// alive across checkpoints — re-sending each one at the new top of the
// window, with a fresh view so that no frame repeats, before the slot it
// held is collected — still gets no more than one unauthenticated body per
// slot: raising a body's batchSeq takes a free slot or an authentic
// PrePrepare, exactly as caching it did.
func TestHeldBodySlidingFloodBounded(t *testing.T) {
	const window, rounds = 8, 6
	fx := newHeldFixture(t, window)
	var flood []*messages.PrePrepare
	send := func(pp *messages.PrePrepare, view, seq uint64) {
		cp := *pp
		cp.View, cp.Seq = view*4, seq // replica 0 stays the primary
		fx.deliver(&cp)
	}
	for round := uint64(0); round < rounds; round++ {
		low := round * window / 2 // the watermark moves half a window a round
		fx.code.AdvanceStable(messages.CheckpointCert{Seq: low})
		fx.code.gc()
		// Every body sent so far again, at each slot the round opened,
		// then a fresh forgery for each of those slots.
		for seq := low + window/2 + 1; seq <= low+window; seq++ {
			for _, pp := range flood {
				send(pp, round+1, seq)
			}
			pp := fx.proposal(seq, fmt.Sprintf("slide-%d", seq), false)
			flood = append(flood, pp)
			send(pp, 0, seq)
		}
		if len(fx.code.held) > window || len(fx.code.batches) > window {
			t.Fatalf("round %d: %d bodies (%d slots held) in the cache, want at most %d — nothing here was authenticated",
				round, len(fx.code.batches), len(fx.code.held), window)
		}
		for d, seq := range fx.code.batchSeq {
			if fx.code.held[seq] != d {
				t.Fatalf("round %d: an unauthenticated body is kept until seq %d without holding that slot", round, seq)
			}
		}
	}
	if len(flood) <= window {
		t.Fatal("the flood never outgrew the window")
	}
}

// TestConflictingPrepareSkipsVerification: once a slot has accepted its
// PrePrepare, a Prepare for any other digest can never count — it is
// dropped before it costs a signature verification.
func TestConflictingPrepareSkipsVerification(t *testing.T) {
	h := newHarness(t)
	b := messages.Batch{Requests: []messages.Request{testRequest([]byte("compartment-test"), h.n, 7, 1, []byte("x"))}}
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = h.byzantineSigner(0, crypto.RolePreparation).Sign(pp.SigningBytes())
	h.invoke(1, crypto.RoleConfirmation, pp)

	verified := h.ver.Stats().SigVerifies
	p := &messages.Prepare{View: 0, Seq: 1, Digest: crypto.HashData([]byte("another batch")), Replica: 2}
	p.Sig = h.byzantineSigner(2, crypto.RolePreparation).Sign(p.SigningBytes())
	h.invoke(1, crypto.RoleConfirmation, p)
	if got := h.ver.Stats().SigVerifies; got != verified {
		t.Fatalf("a Prepare for a conflicting digest cost %d signature verifications", got-verified)
	}
	// The slot is still open to that sender's matching vote.
	p.Digest = pp.Digest
	p.Sig = h.byzantineSigner(2, crypto.RolePreparation).Sign(p.SigningBytes())
	h.invoke(1, crypto.RoleConfirmation, p)
	if got := h.ver.Stats().SigVerifies; got != verified+1 {
		t.Fatalf("the matching Prepare was not verified (%d verifications)", got-verified)
	}
}
