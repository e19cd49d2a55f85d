package execution

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/compartment/confirmation"
	"github.com/splitbft/splitbft/internal/compartment/preparation"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Compartment-level adversarial tests: drive the compartment code directly
// through the enclave runtime, playing a Byzantine peer-enclave that signs
// with real (compromised) keys. These probe the quorum rules (P5) at the
// finest granularity the paper argues about. The harness runs all three
// compartments; it lives with Execution because most of its tests inspect
// Execution's state.

// harness wires n replicas' worth of compartment key material without
// brokers or networks: tests deliver ecalls by hand.
type harness struct {
	t   *testing.T
	n   int
	f   int
	reg *crypto.Registry
	// ver is the verifier every compartment shares, for crypto-op counts.
	ver *messages.Verifier
	// enclaves by (replica, role)
	enclaves map[crypto.Identity]*tee.Enclave
	apps     []*app.KVS
	cfgs     []compartment.Config
}

// withDefaults fills what a replica defaults in a compartment configuration:
// the agreement intervals, and a lease TTL within the detection period.
func withDefaults(cfg compartment.Config) compartment.Config {
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = defaults.CheckpointInterval
	}
	if cfg.WatermarkWindow == 0 {
		cfg.WatermarkWindow = defaults.WatermarkWindow
	}
	if maxTTL := defaults.RequestTimeout / 4; cfg.LeaseTTL == 0 || cfg.LeaseTTL > maxTTL {
		cfg.LeaseTTL = maxTTL
	}
	return cfg
}

// mustExecution builds an Execution compartment, failing the test when the
// boot randomness it draws is unavailable.
func mustExecution(t testing.TB, cfg compartment.Config, application app.Application, ver *messages.Verifier) *Compartment {
	t.Helper()
	e, err := New(cfg, application, ver)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wrapMessage frames a wire message as an ecall payload.
func wrapMessage(data []byte) []byte {
	return append([]byte{compartment.EcallMessage}, data...)
}

// wrapBatch frames a request batch as an ecall payload.
func wrapBatch(b *messages.Batch) []byte {
	return append([]byte{compartment.EcallBatch}, messages.MarshalBatch(b)...)
}

// requestAuthReceivers is the client MAC-vector layout of a request: the n
// Preparation enclaves, then the n Execution enclaves.
func requestAuthReceivers(n int) []crypto.Identity {
	out := make([]crypto.Identity, 0, 2*n)
	for _, role := range []crypto.Role{crypto.RolePreparation, crypto.RoleExecution} {
		for i := 0; i < n; i++ {
			out = append(out, crypto.Identity{ReplicaID: uint32(i), Role: role})
		}
	}
	return out
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{t: t, f: 1, reg: crypto.NewRegistry(), enclaves: make(map[crypto.Identity]*tee.Enclave)}
	h.n = 4
	secret := []byte("compartment-test")
	ver, err := messages.NewVerifier(h.n, h.f, h.reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	h.ver = ver
	for i := 0; i < h.n; i++ {
		kvs := app.NewKVS()
		h.apps = append(h.apps, kvs)
		cfg := withDefaults(compartment.Config{N: h.n, F: h.f, ID: uint32(i), MACSecret: secret})
		h.cfgs = append(h.cfgs, cfg)
		for role, code := range map[crypto.Role]tee.Code{
			crypto.RolePreparation:  preparation.New(cfg, ver, nil),
			crypto.RoleConfirmation: confirmation.New(cfg, ver),
			crypto.RoleExecution:    mustExecution(t, cfg, kvs, ver),
		} {
			enc, err := tee.NewEnclave(uint32(i), role, code, tee.ZeroCostModel())
			if err != nil {
				t.Fatal(err)
			}
			h.reg.Register(enc.Identity(), enc.PublicKey())
			h.enclaves[crypto.Identity{ReplicaID: uint32(i), Role: role}] = enc
		}
	}
	return h
}

func (h *harness) enclave(replica uint32, role crypto.Role) *tee.Enclave {
	return h.enclaves[crypto.Identity{ReplicaID: replica, Role: role}]
}

// invoke delivers one wire message to an enclave.
func (h *harness) invoke(replica uint32, role crypto.Role, m messages.Message) []tee.OutMsg {
	h.t.Helper()
	out, err := h.enclave(replica, role).Invoke(wrapMessage(messages.Marshal(m)))
	if err != nil {
		h.t.Fatal(err)
	}
	return out
}

// sign signs with an enclave's key via a tiny passthrough ecall — for
// adversarial tests we extract signatures by reusing the enclave Host
// interface through direct key access instead: the harness generates its
// own Byzantine keys below, so this helper is only for correct messages
// built from outputs. (Kept minimal on purpose.)

// byzantineSigner registers a fresh key pair for an identity, replacing the
// honest enclave's key — modeling a compromised enclave whose signing key
// the adversary controls.
func (h *harness) byzantineSigner(replica uint32, role crypto.Role) *crypto.KeyPair {
	kp := crypto.MustGenerateKeyPair()
	h.reg.Register(crypto.Identity{ReplicaID: replica, Role: role}, kp.Public)
	return kp
}

func testRequest(macSecret []byte, n int, clientID uint32, ts uint64, op []byte) messages.Request {
	req := messages.Request{ClientID: clientID, Timestamp: ts, Payload: op}
	macs := crypto.NewMACStore(macSecret, crypto.Identity{ReplicaID: clientID, Role: crypto.RoleClient})
	req.Auth = macs.Authenticate(req.AuthenticatedBytes(), requestAuthReceivers(n))
	return req
}

// findMsg extracts the first message of a type from enclave outputs.
func findMsg[T messages.Message](t *testing.T, out []tee.OutMsg, kind tee.DestKind) (T, bool) {
	t.Helper()
	var zero T
	for i := range out {
		if out[i].Kind != kind {
			continue
		}
		m, err := messages.Unmarshal(out[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if typed, ok := m.(T); ok {
			return typed, true
		}
	}
	return zero, false
}

func TestPreparationProposesAndBacksUp(t *testing.T) {
	h := newHarness(t)
	req := testRequest([]byte("compartment-test"), h.n, 7, 1, app.EncodePut("k", []byte("v")))
	batch := &messages.Batch{Requests: []messages.Request{req}}

	// Primary (replica 0) proposes.
	out, err := h.enclave(0, crypto.RolePreparation).Invoke(wrapBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := findMsg[*messages.PrePrepare](t, out, tee.DestBroadcast)
	if !ok {
		t.Fatal("primary did not broadcast a PrePrepare")
	}
	if pp.Seq != 1 || pp.View != 0 || pp.Digest != batch.Digest() {
		t.Fatalf("PrePrepare = v%d n%d %v", pp.View, pp.Seq, pp.Digest)
	}
	// Local copies to Confirmation and Execution (duplicated input logs).
	locals := 0
	for _, m := range out {
		if m.Kind == tee.DestLocal {
			locals++
		}
	}
	if locals != 2 {
		t.Fatalf("primary emitted %d local copies, want 2 (conf+exec)", locals)
	}

	// A backup prepares it.
	out = h.invoke(1, crypto.RolePreparation, pp)
	prep, ok := findMsg[*messages.Prepare](t, out, tee.DestBroadcast)
	if !ok {
		t.Fatal("backup did not broadcast a Prepare")
	}
	if prep.Digest != pp.Digest || prep.Replica != 1 {
		t.Fatalf("Prepare = %+v", prep)
	}

	// Duplicate delivery: no second Prepare.
	out = h.invoke(1, crypto.RolePreparation, pp)
	if _, again := findMsg[*messages.Prepare](t, out, tee.DestBroadcast); again {
		t.Fatal("backup prepared the same slot twice")
	}
}

func TestPreparationIgnoresEquivocation(t *testing.T) {
	h := newHarness(t)
	// Compromise the primary's Preparation key and equivocate.
	byz := h.byzantineSigner(0, crypto.RolePreparation)
	mk := func(payload string) *messages.PrePrepare {
		req := testRequest([]byte("compartment-test"), h.n, 7, 1, []byte(payload))
		b := messages.Batch{Requests: []messages.Request{req}}
		pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
		pp.Sig = byz.Sign(pp.SigningBytes())
		return pp
	}
	pp1, pp2 := mk("one"), mk("two")
	out := h.invoke(1, crypto.RolePreparation, pp1)
	first, ok := findMsg[*messages.Prepare](t, out, tee.DestBroadcast)
	if !ok {
		t.Fatal("no prepare for the first proposal")
	}
	out = h.invoke(1, crypto.RolePreparation, pp2)
	if _, again := findMsg[*messages.Prepare](t, out, tee.DestBroadcast); again {
		t.Fatal("backup prepared a conflicting proposal: equivocation accepted")
	}
	if first.Digest != pp1.Digest {
		t.Fatal("prepared digest is not the first proposal's")
	}
}

func TestConfirmationRequiresFullCertificate(t *testing.T) {
	h := newHarness(t)
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	req := testRequest([]byte("compartment-test"), h.n, 7, 1, []byte("x"))
	b := messages.Batch{Requests: []messages.Request{req}}
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())

	conf := h.enclave(1, crypto.RoleConfirmation)
	if out, _ := conf.Invoke(wrapMessage(messages.Marshal(pp))); len(out) != 0 {
		t.Fatal("confirmation acted on a bare PrePrepare (violates P5)")
	}
	// One prepare (from a compromised backup key) is not enough: 2f = 2.
	byzP1 := h.byzantineSigner(1, crypto.RolePreparation)
	p1 := &messages.Prepare{View: 0, Seq: 1, Digest: pp.Digest, Replica: 1}
	p1.Sig = byzP1.Sign(p1.SigningBytes())
	if out, _ := conf.Invoke(wrapMessage(messages.Marshal(p1))); len(out) != 0 {
		t.Fatal("confirmation committed with a single Prepare")
	}
	// Duplicate prepare from the same sender must not count twice.
	if out, _ := conf.Invoke(wrapMessage(messages.Marshal(p1))); len(out) != 0 {
		t.Fatal("duplicate Prepare counted towards the quorum")
	}
	// The second distinct prepare completes the certificate.
	byzP2 := h.byzantineSigner(2, crypto.RolePreparation)
	p2 := &messages.Prepare{View: 0, Seq: 1, Digest: pp.Digest, Replica: 2}
	p2.Sig = byzP2.Sign(p2.SigningBytes())
	out, _ := conf.Invoke(wrapMessage(messages.Marshal(p2)))
	cm, ok := findMsg[*messages.Commit](t, out, tee.DestBroadcast)
	if !ok {
		t.Fatal("confirmation did not commit on a full certificate")
	}
	if cm.Digest != pp.Digest {
		t.Fatalf("commit digest %v != %v", cm.Digest, pp.Digest)
	}
}

func TestConfirmationRejectsMismatchedPrepares(t *testing.T) {
	h := newHarness(t)
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	req := testRequest([]byte("compartment-test"), h.n, 7, 1, []byte("x"))
	b := messages.Batch{Requests: []messages.Request{req}}
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())
	conf := h.enclave(1, crypto.RoleConfirmation)
	_, _ = conf.Invoke(wrapMessage(messages.Marshal(pp)))

	// Two prepares for a DIFFERENT digest must never commit the slot.
	other := crypto.HashData([]byte("other"))
	for r := uint32(1); r <= 2; r++ {
		byz := h.byzantineSigner(r, crypto.RolePreparation)
		p := &messages.Prepare{View: 0, Seq: 1, Digest: other, Replica: r}
		p.Sig = byz.Sign(p.SigningBytes())
		out, _ := conf.Invoke(wrapMessage(messages.Marshal(p)))
		if _, committed := findMsg[*messages.Commit](t, out, tee.DestBroadcast); committed {
			t.Fatal("confirmation committed a digest that does not match its PrePrepare")
		}
	}
}

func TestExecutionRequiresCommitQuorumAndBody(t *testing.T) {
	h := newHarness(t)
	secret := []byte("compartment-test")
	req := testRequest(secret, h.n, 7, 1, app.EncodePut("k", []byte("v")))
	b := messages.Batch{Requests: []messages.Request{req}}
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())

	exec := h.enclave(3, crypto.RoleExecution)
	// Body arrives.
	if out, _ := exec.Invoke(wrapMessage(messages.Marshal(pp))); len(out) != 0 {
		t.Fatal("execution acted on a PrePrepare alone")
	}
	// 2f commits are not enough: quorum is 2f+1 = 3.
	for r := uint32(0); r < 2; r++ {
		byz := h.byzantineSigner(r, crypto.RoleConfirmation)
		c := &messages.Commit{View: 0, Seq: 1, Digest: pp.Digest, Replica: r}
		c.Sig = byz.Sign(c.SigningBytes())
		out, _ := exec.Invoke(wrapMessage(messages.Marshal(c)))
		if _, replied := findMsg[*messages.Reply](t, out, tee.DestClient); replied {
			t.Fatalf("execution replied with only %d commits", r+1)
		}
	}
	if h.apps[3].Len() != 0 {
		t.Fatal("state changed before the commit quorum")
	}
	byz := h.byzantineSigner(2, crypto.RoleConfirmation)
	c := &messages.Commit{View: 0, Seq: 1, Digest: pp.Digest, Replica: 2}
	c.Sig = byz.Sign(c.SigningBytes())
	out, _ := exec.Invoke(wrapMessage(messages.Marshal(c)))
	rep, ok := findMsg[*messages.Reply](t, out, tee.DestClient)
	if !ok {
		t.Fatal("execution did not reply after the commit quorum")
	}
	if !bytes.Equal(rep.Result, []byte("OK")) {
		t.Fatalf("result = %q", rep.Result)
	}
	if v, ok := h.apps[3].Get("k"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("state not applied")
	}
}

// TestExecutionDuplicateCommitSkipsVerification: once a sender's Commit
// for a slot is on file, another one from that sender — even with
// different bytes, which the broker's byte-level dedup lets through — is
// dropped before it costs a signature verification.
func TestExecutionDuplicateCommitSkipsVerification(t *testing.T) {
	h := newHarness(t)
	exec := h.enclave(3, crypto.RoleExecution)
	byz := h.byzantineSigner(1, crypto.RoleConfirmation)
	c := &messages.Commit{View: 0, Seq: 1, Digest: crypto.HashData([]byte("b")), Replica: 1}
	c.Sig = byz.Sign(c.SigningBytes())
	if _, err := exec.Invoke(wrapMessage(messages.Marshal(c))); err != nil {
		t.Fatal(err)
	}
	verified := h.ver.Stats().SigVerifies
	if verified == 0 {
		t.Fatal("first Commit was not verified")
	}
	again := *c
	again.Digest = crypto.HashData([]byte("other")) // new bytes, new (unchecked) signature
	again.Sig = byz.Sign(again.SigningBytes())
	if _, err := exec.Invoke(wrapMessage(messages.Marshal(&again))); err != nil {
		t.Fatal(err)
	}
	if got := h.ver.Stats().SigVerifies; got != verified {
		t.Fatalf("re-sent Commit cost %d more signature verifications", got-verified)
	}
}

func TestExecutionStallsWithoutBody(t *testing.T) {
	h := newHarness(t)
	// Commits arrive for a digest whose batch body was never delivered:
	// execution must not invent state; it requests retransmission of the
	// gap and stalls until the body (or state transfer) arrives.
	digest := crypto.HashData([]byte("unknown-batch"))
	exec := h.enclave(3, crypto.RoleExecution)
	for r := uint32(0); r < 3; r++ {
		byz := h.byzantineSigner(r, crypto.RoleConfirmation)
		c := &messages.Commit{View: 0, Seq: 1, Digest: digest, Replica: r}
		c.Sig = byz.Sign(c.SigningBytes())
		out, _ := exec.Invoke(wrapMessage(messages.Marshal(c)))
		if _, replied := findMsg[*messages.Reply](t, out, tee.DestClient); replied {
			t.Fatal("execution executed a batch it never received")
		}
	}
	if h.apps[3].Len() != 0 {
		t.Fatal("execution mutated state without the request body")
	}
}

// TestExecutionFetchesMissingBody: a committed slot whose PrePrepare body
// is missing is never fetched off a message — Commits overtake their
// PrePrepare all the time — but the environment's query answers a
// BatchFetch for it while it stays blocked, the same answer for the same
// state, and a matching BatchReply unblocks execution without waiting for
// checkpoint-driven state transfer. When to ask is the broker's policy
// (core.TestBrokerFetchPolicy).
func TestExecutionFetchesMissingBody(t *testing.T) {
	h := newHarness(t)
	secret := []byte("compartment-test")
	req := testRequest(secret, h.n, 7, 1, app.EncodePut("k", []byte("v")))
	b := messages.Batch{Requests: []messages.Request{req}}
	digest := b.Digest()

	exec := h.enclave(3, crypto.RoleExecution)
	query := []byte{compartment.EcallTick, 0}
	for r := uint32(0); r < 3; r++ {
		byz := h.byzantineSigner(r, crypto.RoleConfirmation)
		c := &messages.Commit{View: 0, Seq: 1, Digest: digest, Replica: r}
		c.Sig = byz.Sign(c.SigningBytes())
		out, _ := exec.Invoke(wrapMessage(messages.Marshal(c)))
		if _, ok := findMsg[*messages.BatchFetch](t, out, tee.DestBroadcast); ok {
			t.Fatal("a message fetched the body: transient reordering would flood peers")
		}
	}
	first, _ := exec.Invoke(query)
	f, ok := findMsg[*messages.BatchFetch](t, first, tee.DestBroadcast)
	if !ok || len(first) != 1 {
		t.Fatalf("query on a blocked slot answered %d messages, want one BatchFetch", len(first))
	}
	if f.Seq != 1 || f.Digest != digest || f.Replica != 3 {
		t.Fatalf("BatchFetch = %+v", f)
	}
	second, _ := exec.Invoke(query)
	if len(second) != 1 || !bytes.Equal(second[0].Payload, first[0].Payload) || second[0].Kind != first[0].Kind {
		t.Fatal("the same state answered two identical queries differently")
	}

	// A forged reply (different batch content) must be refused.
	bad := messages.Batch{Requests: []messages.Request{testRequest(secret, h.n, 8, 1, []byte("evil"))}}
	forged := &messages.BatchReply{Seq: 1, Digest: digest, Batch: bad, Replica: 0}
	if out, _ := exec.Invoke(wrapMessage(messages.Marshal(forged))); len(out) != 0 {
		t.Fatal("execution acted on a forged BatchReply")
	}
	if h.apps[3].Len() != 0 {
		t.Fatal("forged BatchReply mutated state")
	}

	// The genuine body unblocks the slot.
	good := &messages.BatchReply{Seq: 1, Digest: digest, Batch: b, Replica: 0}
	out, _ := exec.Invoke(wrapMessage(messages.Marshal(good)))
	rep, ok := findMsg[*messages.Reply](t, out, tee.DestClient)
	if !ok {
		t.Fatal("execution did not execute after the body arrived")
	}
	if !bytes.Equal(rep.Result, []byte("OK")) {
		t.Fatalf("result = %q", rep.Result)
	}
	if v, ok := h.apps[3].Get("k"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("state not applied after batch retransmission")
	}
	if out, _ := exec.Invoke(query); len(out) != 0 {
		t.Fatalf("query after the body landed answered %d messages, want none", len(out))
	}
}

// TestExecutionServesBatchFetch: a peer that holds the body answers a
// fetch with a BatchReply addressed to the requester.
func TestExecutionServesBatchFetch(t *testing.T) {
	h := newHarness(t)
	req := testRequest([]byte("compartment-test"), h.n, 7, 1, []byte("x"))
	b := messages.Batch{Requests: []messages.Request{req}}
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())
	exec := h.enclave(1, crypto.RoleExecution)
	_, _ = exec.Invoke(wrapMessage(messages.Marshal(pp)))

	fetch := &messages.BatchFetch{Seq: 1, Digest: pp.Digest, Replica: 3}
	out, _ := exec.Invoke(wrapMessage(messages.Marshal(fetch)))
	reply, ok := findMsg[*messages.BatchReply](t, out, tee.DestReplica)
	if !ok {
		t.Fatal("peer did not serve the batch body")
	}
	if reply.Digest != pp.Digest || reply.Batch.Digest() != pp.Digest {
		t.Fatalf("served batch does not match: %+v", reply)
	}
	// Unknown digests and self-addressed fetches are ignored.
	unknown := &messages.BatchFetch{Seq: 2, Digest: crypto.HashData([]byte("nope")), Replica: 3}
	if out, _ := exec.Invoke(wrapMessage(messages.Marshal(unknown))); len(out) != 0 {
		t.Fatal("peer answered a fetch for a digest it does not hold")
	}
	self := &messages.BatchFetch{Seq: 1, Digest: pp.Digest, Replica: 1}
	if out, _ := exec.Invoke(wrapMessage(messages.Marshal(self))); len(out) != 0 {
		t.Fatal("peer answered its own fetch")
	}
}

// TestExecutionCatchesUpViaStateTransfer mirrors the pbft lagging-replica
// test at compartment granularity: after stalling on missing bodies, a
// verified StateReply (quorum checkpoint certificate + matching snapshot)
// must install the state and resume execution — the recovery half the
// stall test above never asserted.
func TestExecutionCatchesUpViaStateTransfer(t *testing.T) {
	h := newHarness(t)
	secret := []byte("compartment-test")
	exec := h.enclave(3, crypto.RoleExecution)

	// Stall: commits for seq 1 whose body never arrives.
	missing := crypto.HashData([]byte("lost-batch"))
	confKeys := make(map[uint32]*crypto.KeyPair)
	for r := uint32(0); r < 3; r++ {
		confKeys[r] = h.byzantineSigner(r, crypto.RoleConfirmation)
		c := &messages.Commit{View: 0, Seq: 1, Digest: missing, Replica: r}
		c.Sig = confKeys[r].Sign(c.SigningBytes())
		_, _ = exec.Invoke(wrapMessage(messages.Marshal(c)))
	}

	// Peers moved on to a stable checkpoint at seq 10; their state has two
	// keys this replica never executed.
	peerState := app.NewKVS()
	peerState.Execute(7, app.EncodePut("a", []byte("1")))
	peerState.Execute(7, app.EncodePut("b", []byte("2")))
	// Checkpoint snapshots wrap the app state with the reply-cache skip
	// state (empty here: the peers' cache contents are not under test).
	wrapEnc := messages.NewEncoder(256)
	wrapEnc.U32(0)
	wrapEnc.VarBytes(peerState.Snapshot())
	snap := wrapEnc.Bytes()
	cert := messages.CheckpointCert{Seq: 10, StateDigest: crypto.HashData(snap)}
	for r := uint32(0); r < 3; r++ {
		kp := h.byzantineSigner(r, crypto.RoleExecution)
		cp := messages.Checkpoint{Seq: 10, StateDigest: cert.StateDigest, Replica: r}
		cp.Sig = kp.Sign(cp.SigningBytes())
		cert.Proof = append(cert.Proof, cp)
	}
	// A tampered snapshot must be refused.
	if out, _ := exec.Invoke(wrapMessage(messages.Marshal(&messages.StateReply{
		Cert: cert, Snapshot: append([]byte("tamper"), snap...), Replica: 0,
	}))); len(out) != 0 {
		t.Fatal("execution installed a snapshot that does not match the certificate")
	}
	if h.apps[3].Len() != 0 {
		t.Fatal("tampered snapshot mutated state")
	}
	// The genuine transfer installs the state.
	_, _ = exec.Invoke(wrapMessage(messages.Marshal(&messages.StateReply{
		Cert: cert, Snapshot: snap, Replica: 0,
	})))
	if v, ok := h.apps[3].Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatal("state transfer did not install the snapshot")
	}

	// And execution resumes past the transferred checkpoint: seq 11
	// commits with a delivered body must execute.
	req := testRequest(secret, h.n, 7, 1, app.EncodePut("c", []byte("3")))
	b := messages.Batch{Requests: []messages.Request{req}}
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	pp := &messages.PrePrepare{View: 0, Seq: 11, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())
	_, _ = exec.Invoke(wrapMessage(messages.Marshal(pp)))
	var rep *messages.Reply
	for r := uint32(0); r < 3; r++ {
		c := &messages.Commit{View: 0, Seq: 11, Digest: pp.Digest, Replica: r}
		c.Sig = confKeys[r].Sign(c.SigningBytes())
		out, _ := exec.Invoke(wrapMessage(messages.Marshal(c)))
		if got, ok := findMsg[*messages.Reply](t, out, tee.DestClient); ok {
			rep = got
		}
	}
	if rep == nil {
		t.Fatal("execution did not resume after state transfer")
	}
	if v, ok := h.apps[3].Get("c"); !ok || !bytes.Equal(v, []byte("3")) {
		t.Fatal("post-catch-up execution did not apply")
	}
}

// TestExecutionClearsSuspicionOfTransferredRequest: a request that a state
// transfer carried this replica past executed elsewhere, and no reply body
// for it is held here, yet the exactly-once window merged from the snapshot
// covers it. Asked about it and about the client's next, unexecuted
// timestamp, Execution names back the first alone, in one OcallExecuted,
// so the environment stops awaiting a Reply that will never leave.
func TestExecutionClearsSuspicionOfTransferredRequest(t *testing.T) {
	h := newHarness(t)
	e := mustExecution(t, h.cfgs[3], app.NewKVS(), h.ver)
	exec, err := tee.NewEnclave(3, crypto.RoleExecution, e, tee.ZeroCostModel())
	if err != nil {
		t.Fatal(err)
	}
	peer := newTestExecution(t, 0, "compartment-test")
	recordAt(peer, 7, 1)
	snap := peer.snapshotState()
	cert := messages.CheckpointCert{Seq: 10, StateDigest: crypto.HashData(snap)}
	for r := uint32(0); r < 3; r++ {
		cp := messages.Checkpoint{Seq: 10, StateDigest: cert.StateDigest, Replica: r}
		cp.Sig = h.byzantineSigner(r, crypto.RoleExecution).Sign(cp.SigningBytes())
		cert.Proof = append(cert.Proof, cp)
	}
	if _, err := exec.Invoke(wrapMessage(messages.Marshal(&messages.StateReply{Cert: cert, Snapshot: snap, Replica: 0}))); err != nil {
		t.Fatal(err)
	}
	if rep, done := e.clients[7].executed(1); !done || rep != nil {
		t.Fatalf("after the transfer executed(1) = %v, %v; want covered with no reply body", rep, done)
	}
	var answers [][]byte
	exec.RegisterOcall(OcallExecuted, func(data []byte) ([]byte, error) {
		answers = append(answers, data)
		return nil, nil
	})
	pair := func(enc *messages.Encoder, client uint32, ts uint64) *messages.Encoder {
		enc.U32(client)
		enc.U64(ts)
		return enc
	}
	ask := messages.NewEncoder(0)
	ask.U8(compartment.EcallTick)
	ask.U8(0)
	pair(pair(ask, 7, 1), 7, 2)
	if _, err := exec.Invoke(ask.Bytes()); err != nil {
		t.Fatal(err)
	}
	if want := pair(messages.NewEncoder(0), 7, 1).Bytes(); len(answers) != 1 || !bytes.Equal(answers[0], want) {
		t.Fatalf("answered %x, want one ocall naming %x", answers, want)
	}
}

// TestExecutionAsksForStateWithProbe: an Execution compartment that
// installs a stable certificate ahead of its lastExec asks a voter of the
// certificate for state with StateProbe{Have: lastExec} — not the
// certificate's sequence number, which peers at that same stable point
// would not answer — and a voter whose stable point has moved past the
// certificate answers with its newer snapshot, which the asker installs.
func TestExecutionAsksForStateWithProbe(t *testing.T) {
	h := newHarness(t)
	secret := []byte("compartment-test")

	// Execute seq 1 so that lastExec is neither zero nor a checkpoint.
	confKeys := make(map[uint32]*crypto.KeyPair)
	execKeys := make(map[uint32]*crypto.KeyPair)
	for r := uint32(0); r < 3; r++ {
		confKeys[r] = h.byzantineSigner(r, crypto.RoleConfirmation)
		execKeys[r] = h.byzantineSigner(r, crypto.RoleExecution)
	}
	req := testRequest(secret, h.n, 7, 1, app.EncodePut("k", []byte("v")))
	b := messages.Batch{Requests: []messages.Request{req}}
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = h.byzantineSigner(0, crypto.RolePreparation).Sign(pp.SigningBytes())
	h.invoke(3, crypto.RoleExecution, pp)
	for r := uint32(0); r < 3; r++ {
		c := &messages.Commit{View: 0, Seq: 1, Digest: pp.Digest, Replica: r}
		c.Sig = confKeys[r].Sign(c.SigningBytes())
		h.invoke(3, crypto.RoleExecution, c)
	}
	if _, ok := h.apps[3].Get("k"); !ok {
		t.Fatal("seq 1 did not execute")
	}

	// The group checkpoints at 10; the third vote makes the certificate.
	var out []tee.OutMsg
	digest10 := crypto.HashData([]byte("state at 10"))
	for r := uint32(0); r < 3; r++ {
		cp := &messages.Checkpoint{Seq: 10, StateDigest: digest10, Replica: r}
		cp.Sig = execKeys[r].Sign(cp.SigningBytes())
		out = h.invoke(3, crypto.RoleExecution, cp)
	}
	if len(out) != 1 || out[0].Kind != tee.DestReplica || out[0].ID > 2 {
		t.Fatalf("behind the certificate, execution emitted %+v; want one message to a voter", out)
	}
	ask, ok := findMsg[*messages.StateProbe](t, out, tee.DestReplica)
	if !ok {
		t.Fatalf("state ask is a %v, want a StateProbe", messages.Type(out[0].Payload[0]))
	}
	if ask.Have != 1 || ask.Replica != 3 {
		t.Fatalf("state ask = %+v, want Have 1 (lastExec) from replica 3", ask)
	}

	// The voter has meanwhile gone stable at 20.
	peerState := app.NewKVS()
	peerState.Execute(7, app.EncodePut("a", []byte("1")))
	enc := messages.NewEncoder(256)
	enc.U32(0)
	enc.VarBytes(peerState.Snapshot())
	snap := enc.Bytes()
	cert := messages.CheckpointCert{Seq: 20, StateDigest: crypto.HashData(snap)}
	for r := uint32(0); r < 3; r++ {
		cp := messages.Checkpoint{Seq: 20, StateDigest: cert.StateDigest, Replica: r}
		cp.Sig = execKeys[r].Sign(cp.SigningBytes())
		cert.Proof = append(cert.Proof, cp)
	}
	voter := out[0].ID
	h.invoke(voter, crypto.RoleExecution, &messages.StateReply{Cert: cert, Snapshot: snap, Replica: (voter + 1) % 3})
	answer := h.invoke(voter, crypto.RoleExecution, ask)
	rep, ok := findMsg[*messages.StateReply](t, answer, tee.DestReplica)
	if !ok || len(answer) != 1 || answer[0].ID != 3 || rep.Cert.Seq != 20 {
		t.Fatalf("voter stable at 20 answered the ask with %+v; want its snapshot, to replica 3", answer)
	}
	h.invoke(3, crypto.RoleExecution, rep)
	if v, ok := h.apps[3].Get("a"); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatal("the newer snapshot was not installed")
	}
}

// TestExecutionAsksAttestorForState: a vouched (MAC-mode) certificate names
// no voters, so an Execution compartment behind it asks the attestor, or
// every peer when it attested the certificate itself — with the same
// StateProbe{Have: lastExec} it sends a voter.
func TestExecutionAsksAttestorForState(t *testing.T) {
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: 3, MACSecret: []byte("vouch")})
	for _, tc := range []struct {
		attestor uint32
		kind     tee.DestKind
	}{
		{attestor: 1, kind: tee.DestReplica},
		{attestor: 3, kind: tee.DestBroadcast},
	} {
		e := mustExecution(t, cfg, app.NewKVS(), ver)
		e.lastExec = 4
		out := e.installStable(messages.CheckpointCert{Seq: 10, Attestor: tc.attestor, Vouch: []byte("vouch")})
		if len(out) != 1 || out[0].Kind != tc.kind || (tc.kind == tee.DestReplica && out[0].ID != tc.attestor) {
			t.Fatalf("attestor %d: asked %+v, want one %v message", tc.attestor, out, tc.kind)
		}
		ask, ok := findMsg[*messages.StateProbe](t, out, tc.kind)
		if !ok || ask.Have != 4 || ask.Replica != 3 {
			t.Fatalf("attestor %d: ask %+v, want StateProbe{Have: 4, Replica: 3}", tc.attestor, ask)
		}
	}
}

// TestCheckpointCarriesReplyCache pins the exactly-once contract across
// state transfer: checkpoint snapshots must carry the reply-cache skip
// state (so a replica that catches up by state transfer does not
// re-execute a request the primary re-ordered after a client retransmit),
// the checkpoint digest must NOT depend on reply bodies (those differ per
// replica in the Replica field and MAC, and would break checkpoint-vote
// agreement), and restore must merge the skip state into the live cache.
func TestCheckpointCarriesReplyCache(t *testing.T) {
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uint32) *Compartment {
		cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: id, MACSecret: []byte("ckpt-test")})
		return mustExecution(t, cfg, app.NewKVS(), ver)
	}

	// withReplies builds client 7's record as replica id executed its
	// timestamps 3 and 5.
	withReplies := func(id uint32, tss ...uint64) *execClient {
		cl := &execClient{}
		for _, ts := range tss {
			cl.record(ts, &messages.Reply{ClientID: 7, Timestamp: ts, Replica: id, Result: []byte(fmt.Sprintf("r%d", ts))})
		}
		return cl
	}
	a := mk(0)
	a.app.Execute(7, app.EncodePut("k", []byte("v")))
	a.clients[7] = withReplies(0, 3, 5)
	snap := a.snapshotState()

	// Same history on replica 1: identical skip state, different reply
	// bodies (Replica field). The checkpoint digests must still agree.
	b := mk(1)
	b.app.Execute(7, app.EncodePut("k", []byte("v")))
	b.clients[7] = withReplies(1, 3, 5)
	if crypto.HashData(snap) != crypto.HashData(b.snapshotState()) {
		t.Fatal("checkpoint digest depends on per-replica reply bodies")
	}

	// A replica catching up by state transfer inherits the skip state.
	c := mk(2)
	if err := c.restoreState(snap); err != nil {
		t.Fatalf("restoreState: %v", err)
	}
	if v, ok := c.app.(*app.KVS).Get("k"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("restoreState did not install the application state")
	}
	cl := c.clients[7]
	if cl == nil {
		t.Fatal("restoreState dropped the reply-cache skip state")
	}
	for _, ts := range []uint64{3, 5} {
		if _, done := cl.executed(ts); !done {
			t.Fatalf("timestamp %d executed before the checkpoint would re-execute after state transfer", ts)
		}
	}
	if _, done := cl.executed(6); done {
		t.Fatal("unexecuted timestamp reported as executed after state transfer")
	}

	// Merging must not clobber a live cache: existing reply bodies survive
	// so retransmits are still answered.
	d := mk(3)
	d.clients[7] = withReplies(3, 3)
	if err := d.restoreState(snap); err != nil {
		t.Fatalf("restoreState (merge): %v", err)
	}
	if rep, done := d.clients[7].executed(3); !done || rep == nil {
		t.Fatal("merge dropped a cached reply body")
	}
	if _, done := d.clients[7].executed(5); !done {
		t.Fatal("merge did not add the transferred skip entry")
	}
	if d.clients[7].maxExecuted != 5 {
		t.Fatalf("maxExecuted = %d after merge, want 5", d.clients[7].maxExecuted)
	}
}

// TestCheckpointSnapshotIsCanonicalAfterMerge: two replicas whose executed()
// answers agree for every timestamp must produce the same checkpoint
// snapshot bytes, however they got there. Here one executed a client's
// 1..300 itself and the other executed 1..100, then caught up by merging the
// first one's checkpoint at 300; their records then hold different reply
// bodies (the merged one has none for what it took from the checkpoint),
// which must not reach the digest — a replica whose Checkpoint votes never
// match its peers' cannot help make a checkpoint stable.
func TestCheckpointSnapshotIsCanonicalAfterMerge(t *testing.T) {
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uint32) *Compartment {
		cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: id, MACSecret: []byte("ckpt-test")})
		return mustExecution(t, cfg, app.NewKVS(), ver)
	}
	const client = 7
	run := func(e *Compartment, from, to uint64) {
		for ts := from; ts <= to; ts++ {
			e.app.Execute(client, app.EncodePut(fmt.Sprintf("k%d", ts%50), []byte(fmt.Sprint(ts))))
			cl, ok := e.clients[client]
			if !ok {
				cl = &execClient{}
				e.clients[client] = cl
			}
			cl.record(ts, &messages.Reply{ClientID: client, Timestamp: ts, Replica: e.ID, Result: []byte("OK")})
		}
	}

	peer, merged := mk(0), mk(1)
	run(peer, 1, 300)
	run(merged, 1, 100)
	if err := merged.restoreState(peer.snapshotState()); err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for ts := uint64(301); ts <= 1300; ts++ {
		run(peer, ts, ts)
		run(merged, ts, ts)
		if ts%execReplyWindow != 0 {
			continue
		}
		checkpoints++
		for q := uint64(1); q <= ts+1; q++ {
			_, a := peer.clients[client].executed(q)
			_, b := merged.clients[client].executed(q)
			if a != b {
				t.Fatalf("at %d: executed(%d) = %v on the peer, %v on the merged replica", ts, q, a, b)
			}
		}
		if !bytes.Equal(peer.snapshotState(), merged.snapshotState()) {
			t.Fatalf("checkpoint at %d: equal executed() answers, different snapshot bytes", ts)
		}
	}
	if checkpoints != 8 {
		t.Fatalf("compared %d checkpoints, want 8", checkpoints)
	}
}

func TestExecutionBadClientMACExecutesNoOp(t *testing.T) {
	h := newHarness(t)
	// Request with MACs under the wrong secret: ordered fine (we forge the
	// ordering), but execution must run a no-op.
	req := testRequest([]byte("wrong-secret"), h.n, 7, 1, app.EncodePut("k", []byte("v")))
	b := messages.Batch{Requests: []messages.Request{req}}
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())
	exec := h.enclave(3, crypto.RoleExecution)
	_, _ = exec.Invoke(wrapMessage(messages.Marshal(pp)))
	var rep *messages.Reply
	for r := uint32(0); r < 3; r++ {
		byz := h.byzantineSigner(r, crypto.RoleConfirmation)
		c := &messages.Commit{View: 0, Seq: 1, Digest: pp.Digest, Replica: r}
		c.Sig = byz.Sign(c.SigningBytes())
		out, _ := exec.Invoke(wrapMessage(messages.Marshal(c)))
		if got, ok := findMsg[*messages.Reply](t, out, tee.DestClient); ok {
			rep = got
		}
	}
	if rep == nil {
		t.Fatal("no reply at all")
	}
	if !bytes.Equal(rep.Result, app.NoOpResult) {
		t.Fatalf("unauthenticated request executed: %q", rep.Result)
	}
	if h.apps[3].Len() != 0 {
		t.Fatal("unauthenticated request changed state")
	}
}

func TestPreparationDropsUnauthenticatedBatchRequests(t *testing.T) {
	h := newHarness(t)
	good := testRequest([]byte("compartment-test"), h.n, 7, 1, []byte("good"))
	bad := testRequest([]byte("wrong-secret"), h.n, 8, 1, []byte("bad"))
	batch := &messages.Batch{Requests: []messages.Request{good, bad}}
	out, err := h.enclave(0, crypto.RolePreparation).Invoke(wrapBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := findMsg[*messages.PrePrepare](t, out, tee.DestBroadcast)
	if !ok {
		t.Fatal("no proposal")
	}
	if len(pp.Batch.Requests) != 1 || pp.Batch.Requests[0].ClientID != 7 {
		t.Fatalf("proposal contains %d requests, want only the authenticated one", len(pp.Batch.Requests))
	}
}
