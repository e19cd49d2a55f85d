package core

import (
	"fmt"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Tests for the two places Ed25519 left the classic×sig normal case — the
// Confirmation→Execution hop inside one replica and Execution's use of a
// PrePrepare as a request body — and for the emission order around them.
// They drive real replicas' enclaves by hand (no broker threads, no
// network), so every compartment has its own verifier and pairwise keys, as
// deployed.

const hopSecret = "hop-test-secret"

// handDriven builds n wired but unstarted replicas over one registry.
func handDriven(t *testing.T, n, f int, opts ...clusterOpt) []*Replica {
	t.Helper()
	reg := crypto.NewRegistry()
	rs := make([]*Replica, n)
	for i := range rs {
		cfg := Config{N: n, F: f, ID: uint32(i), Registry: reg, MACSecret: []byte(hopSecret), App: app.NewKVS()}
		for _, opt := range opts {
			opt(&cfg)
		}
		r, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

func hopBatch(n int, ts uint64) *messages.Batch {
	key := fmt.Sprintf("k%d", ts)
	return &messages.Batch{Requests: []messages.Request{
		testRequest([]byte(hopSecret), n, 7, ts, app.EncodePut(key, []byte("v"))),
	}}
}

func mustInvoke(t *testing.T, r *Replica, role crypto.Role, payload []byte) []tee.OutMsg {
	t.Helper()
	out, err := r.Enclave(role).Invoke(payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compStats returns one compartment's crypto-op counters.
func compStats(r *Replica, role crypto.Role) messages.VerifierStats {
	return r.vers[int(role-crypto.RolePreparation)].Stats()
}

// wantOrder fails unless out is exactly: one copy per named local
// compartment, in that order, then one broadcast — all of type typ.
func wantOrder(t *testing.T, site string, out []tee.OutMsg, typ messages.Type, locals ...crypto.Role) {
	t.Helper()
	if len(out) != len(locals)+1 {
		t.Fatalf("%s: %d outputs, want %d", site, len(out), len(locals)+1)
	}
	for i, m := range out {
		if messages.Type(m.Payload[0]) != typ {
			t.Fatalf("%s: output %d is a %s, want %s", site, i, messages.Type(m.Payload[0]), typ)
		}
		if i < len(locals) {
			if m.Kind != tee.DestLocal || m.Local != locals[i] {
				t.Fatalf("%s: output %d goes to kind %v/%v, want the local %v copy", site, i, m.Kind, m.Local, locals[i])
			}
		} else if m.Kind != tee.DestBroadcast {
			t.Fatalf("%s: the broadcast must come last, output %d has kind %v", site, i, m.Kind)
		}
	}
}

// runSlot drives one proposal through Preparation and Confirmation of every
// replica by hand and returns, per replica, Confirmation's outputs (local
// Commit copy, then the broadcast), plus the PrePrepare as broadcast.
func runSlot(t *testing.T, rs []*Replica, ts uint64) (commits [][]tee.OutMsg, ppWire []byte) {
	t.Helper()
	n := len(rs)
	out := mustInvoke(t, rs[0], crypto.RolePreparation, wrapBatch(hopBatch(n, ts)))
	wantOrder(t, "proposeBatch", out, messages.TPrePrepare, crypto.RoleConfirmation, crypto.RoleExecution)
	ppLocal, ppWire := out[0].Payload, out[2].Payload

	prepares := make([][]tee.OutMsg, n)
	for i := 1; i < n; i++ {
		prepares[i] = mustInvoke(t, rs[i], crypto.RolePreparation, wrapMessage(ppWire))
		wantOrder(t, "backup Prepare", prepares[i], messages.TPrepare, crypto.RoleConfirmation)
	}
	commits = make([][]tee.OutMsg, n)
	for i := 0; i < n; i++ {
		pp := ppWire
		if i == 0 {
			pp = ppLocal
		}
		got := mustInvoke(t, rs[i], crypto.RoleConfirmation, wrapMessage(pp))
		for j := 1; j < n && len(got) == 0; j++ {
			p := prepares[j][1].Payload
			if j == i {
				p = prepares[j][0].Payload
			}
			got = mustInvoke(t, rs[i], crypto.RoleConfirmation, wrapMessage(p))
		}
		wantOrder(t, "maybeCommit", got, messages.TCommit, crypto.RoleExecution)
		commits[i] = got
	}
	return commits, ppWire
}

// TestLocalFirstOutMsgOrder pins "local compartments first, then the wire"
// at the four sites that originate normal-case traffic.
func TestLocalFirstOutMsgOrder(t *testing.T) {
	rs := handDriven(t, 4, 1, func(c *Config) { c.CheckpointInterval = 1 })
	commits, ppWire := runSlot(t, rs, 1) // checks proposeBatch, Prepare, maybeCommit

	// maybeCheckpoint: execute the slot on replica 2 with interval 1.
	mustInvoke(t, rs[2], crypto.RoleExecution, wrapMessage(ppWire))
	var out []tee.OutMsg
	for _, from := range []int{2, 0, 1} {
		cm := commits[from][1].Payload
		if from == 2 {
			cm = commits[from][0].Payload
		}
		out = mustInvoke(t, rs[2], crypto.RoleExecution, wrapMessage(cm))
	}
	var ckpt []tee.OutMsg
	for _, m := range out {
		if messages.Type(m.Payload[0]) == messages.TCheckpoint {
			ckpt = append(ckpt, m)
		}
	}
	wantOrder(t, "maybeCheckpoint", ckpt, messages.TCheckpoint, crypto.RolePreparation, crypto.RoleConfirmation)
}

// TestLocalFirstMarshalsOnce: a message handed to two co-located
// compartments and to the network is marshalled once — one encoding
// allocation beside the output slice — and the three outputs share its
// bytes.
func TestLocalFirstMarshalsOnce(t *testing.T) {
	b := *hopBatch(4, 1)
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b, Sig: make([]byte, 64)}
	var out []tee.OutMsg
	allocs := testing.AllocsPerRun(100, func() {
		out = localFirst(pp, crypto.RoleConfirmation, crypto.RoleExecution)
	})
	if allocs > 2 {
		t.Fatalf("localFirst to two locals and the network: %.1f allocations, want 2 (one Marshal, one output slice)", allocs)
	}
	wantOrder(t, "localFirst", out, messages.TPrePrepare, crypto.RoleConfirmation, crypto.RoleExecution)
	for i := range out {
		if &out[i].Payload[0] != &out[0].Payload[0] || len(out[i].Payload) != len(out[0].Payload) {
			t.Fatalf("output %d does not share the one encoding", i)
		}
	}
}

// TestLocalHopOwnCommit: Confirmation's copy of its Commit for its own
// replica's Execution carries one hop MAC beside the signature and is
// accepted without an Ed25519 verification; the broadcast is the parent's
// frame (no Auth); and the same local copy misrouted to another replica's
// Execution is judged by its signature alone.
func TestLocalHopOwnCommit(t *testing.T) {
	rs := handDriven(t, 4, 1)
	commits, ppWire := runSlot(t, rs, 1)

	decode := func(b []byte) *messages.Commit {
		m, err := messages.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*messages.Commit)
	}
	local, wire := decode(commits[1][0].Payload), decode(commits[1][1].Payload)
	if len(local.Auth.MACs) != 1 || len(local.Sig) == 0 {
		t.Fatalf("local Commit copy carries %d MACs and a %d-byte signature, want 1 and a signature", len(local.Auth.MACs), len(local.Sig))
	}
	if len(wire.Auth.MACs) != 0 || string(wire.Sig) != string(local.Sig) {
		t.Fatal("the broadcast Commit must be the signed frame, without Auth")
	}
	if grow := len(commits[1][0].Payload) - len(commits[1][1].Payload); grow != crypto.MACSize {
		t.Fatalf("the in-machine copy is %d bytes longer than the frame, want one MAC", grow)
	}

	mustInvoke(t, rs[1], crypto.RoleExecution, wrapMessage(ppWire))
	before := compStats(rs[1], crypto.RoleExecution)
	mustInvoke(t, rs[1], crypto.RoleExecution, wrapMessage(commits[1][0].Payload))
	after := compStats(rs[1], crypto.RoleExecution)
	if after.SigVerifies != before.SigVerifies || after.MACVerifies != before.MACVerifies+1 {
		t.Fatalf("own Commit cost %d signature and %d MAC verifications, want 0 and 1",
			after.SigVerifies-before.SigVerifies, after.MACVerifies-before.MACVerifies)
	}
	// It counted: two remote Commits now complete the certificate.
	var out []tee.OutMsg
	for _, from := range []int{0, 2} {
		out = mustInvoke(t, rs[1], crypto.RoleExecution, wrapMessage(commits[from][1].Payload))
	}
	if _, replied := findMsg[*messages.Reply](t, out, tee.DestClient); !replied {
		t.Fatal("own Commit (by MAC) plus two remote ones (by signature) did not execute the slot")
	}
	if got := compStats(rs[1], crypto.RoleExecution).SigVerifies - after.SigVerifies; got != 2 {
		t.Fatalf("two remote Commits cost %d signature verifications, want 2", got)
	}

	// Replica 1's local copy at replica 3's Execution: a remote signer.
	before = compStats(rs[3], crypto.RoleExecution)
	mustInvoke(t, rs[3], crypto.RoleExecution, wrapMessage(commits[1][0].Payload))
	after = compStats(rs[3], crypto.RoleExecution)
	if after.SigVerifies != before.SigVerifies+1 || after.MACVerifies != before.MACVerifies {
		t.Fatalf("misrouted hop copy cost %d signature and %d MAC verifications, want 1 and 0",
			after.SigVerifies-before.SigVerifies, after.MACVerifies-before.MACVerifies)
	}
}

// heldFixture is one Execution compartment driven by hand, with its code
// in reach, plus a key pair registered as the view-0 primary's Preparation.
type heldFixture struct {
	t       *testing.T
	code    *execution
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
	cfg := Config{N: 4, F: 1, ID: 3, Registry: reg, MACSecret: []byte(hopSecret), App: fx.kvs, WatermarkWindow: window}
	fx.code = mustExecution(t, cfg.withDefaults(), ver)
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
		fx.code.advanceStable(messages.CheckpointCert{Seq: low})
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
