package execution

import (
	"bytes"
	"crypto/ecdh"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// newTestExecution builds replica id's Execution compartment of a
// four-replica group keyed from secret.
func newTestExecution(t testing.TB, id uint32, secret string) *Compartment {
	t.Helper()
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: id, MACSecret: []byte(secret)})
	return mustExecution(t, cfg, app.NewKVS(), ver)
}

// recordAt executes ts for client on e as executeBatch does: the
// application runs the write and the reply lands in the client's record.
func recordAt(e *Compartment, client uint32, ts uint64) {
	e.app.Execute(client, app.EncodePut(fmt.Sprintf("c%d", client), []byte(fmt.Sprint(ts))))
	cl, ok := e.clients[client]
	if !ok {
		cl = &execClient{}
		e.clients[client] = cl
	}
	cl.record(ts, &messages.Reply{ClientID: client, Timestamp: ts, Replica: e.ID, Result: []byte("OK")})
}

// windowOf marks the given timestamps executed in a window topped at max.
func windowOf(max uint64, tss ...uint64) skipWindow {
	var w skipWindow
	for _, ts := range tss {
		i := max - ts
		w[i/64] |= 1 << (i % 64)
	}
	return w
}

// goldenSnapshotDigest is the hash of the checkpoint snapshot
// TestCheckpointSnapshotGolden builds. Checkpoint votes carry this hash, so
// replicas running different versions agree on checkpoints only while it
// stays the same: a change here is a change to the checkpoint format.
const goldenSnapshotDigest = "12756f14d4666747e259776a6a4e5c2cb0111806224b9a9720eba7025cdab66b"

// TestCheckpointSnapshotGolden pins the checkpoint snapshot's bytes over a
// history with out-of-order timestamps, jumps past the window and merges
// from ahead, from behind and into a client never seen.
func TestCheckpointSnapshotGolden(t *testing.T) {
	e := newTestExecution(t, 0, "golden")
	for ts := uint64(1); ts <= 10; ts++ {
		recordAt(e, 7, ts)
	}
	for _, ts := range []uint64{15, 12, 11, 200, 150, 199} {
		recordAt(e, 7, ts)
	}
	for _, ts := range []uint64{1, 2, 3} {
		recordAt(e, 3, ts)
	}
	for _, ts := range []uint64{505, 500, 501} {
		recordAt(e, 9, ts)
	}
	from := newTestExecution(t, 1, "golden")
	from.app.Execute(5, app.EncodePut("from", []byte("transfer")))
	for id, m := range map[uint32][]uint64{
		3:  {140, 139, 135, 76, 13}, // ahead
		9:  {400, 399, 397, 390},    // behind
		11: {50, 48},                // never seen
	} {
		cl := &execClient{}
		cl.merge(m[0], windowOf(m[0], m...))
		from.clients[id] = cl
	}
	if err := e.restoreState(from.snapshotState()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		client uint32
		ts     uint64
	}{{3, 141}, {3, 137}, {11, 49}, {9, 506}, {7, 330}} {
		recordAt(e, rec.client, rec.ts)
	}
	got := crypto.HashData(e.snapshotState())
	if hex.EncodeToString(got[:]) != goldenSnapshotDigest {
		t.Fatalf("checkpoint snapshot digest %s, want %s", hex.EncodeToString(got[:]), goldenSnapshotDigest)
	}
}

// TestExecClientMatchesModel runs random record/merge sequences against a
// plain model — the set of executed timestamps and every body ever recorded —
// and checks, after every step, that executed() answers as the model does for
// every timestamp around the window, that exactly the in-window recorded
// bodies are held, and that the record never holds more than the window.
func TestExecClientMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cl := &execClient{}
		var hi uint64
		executed := map[uint64]bool{}
		bodies := map[uint64]*messages.Reply{}
		for step := 0; step < 300; step++ {
			if rng.Intn(6) == 0 {
				// A transferred window, topped ahead of, at or behind ours.
				top := hi + uint64(rng.Intn(3*execReplyWindow))
				if back := uint64(rng.Intn(3 * execReplyWindow)); rng.Intn(2) == 0 && back <= hi {
					top = hi - back
				}
				var w skipWindow
				for i := uint64(0); i < execReplyWindow && i <= top; i++ {
					if rng.Intn(3) == 0 {
						w[i/64] |= 1 << (i % 64)
						executed[top-i] = true
					}
				}
				cl.merge(top, w)
				hi = max(hi, top)
			} else {
				var ts uint64
				switch r := rng.Intn(10); {
				case r < 4:
					ts = hi + 1 // in order
				case r < 7:
					ts = hi + 1 + uint64(rng.Intn(40)) // ahead, inside the window
				case r < 9:
					ts = hi - min(hi, uint64(rng.Intn(execReplyWindow))) // behind, inside the window
				default:
					ts = hi + execReplyWindow + uint64(rng.Intn(200)) // past the window
				}
				if _, done := cl.executed(ts); done {
					continue // executeBatch records only what has not executed
				}
				rep := &messages.Reply{ClientID: 7, Timestamp: ts, Result: []byte(fmt.Sprint(ts))}
				cl.record(ts, rep)
				executed[ts], bodies[ts] = true, rep
				hi = max(hi, ts)
			}
			lo := uint64(0)
			if hi > 2*execReplyWindow {
				lo = hi - 2*execReplyWindow
			}
			for ts := lo; ts <= hi+2; ts++ {
				inWindow := hi-ts < execReplyWindow || ts > hi
				wantDone := executed[ts] || !inWindow
				var wantRep *messages.Reply
				if inWindow {
					wantRep = bodies[ts]
				}
				if rep, done := cl.executed(ts); done != wantDone || rep != wantRep {
					t.Fatalf("seed %d step %d: executed(%d) = (%v, %v), model (%v, %v)", seed, step, ts, rep != nil, done, wantRep != nil, wantDone)
				}
			}
			if len(cl.replies) > execReplyWindow {
				t.Fatalf("seed %d step %d: %d bodies held, window %d", seed, step, len(cl.replies), execReplyWindow)
			}
			for ts, rep := range cl.replies {
				if rep == nil || ts > cl.maxExecuted || !cl.window.has(cl.maxExecuted-ts) {
					t.Fatalf("seed %d step %d: body for %d held without its window bit", seed, step, ts)
				}
			}
		}
	}
}

// execEnclave wraps replica 0's Execution compartment, keyed from seed, in an
// enclave: the same seed re-derives the same sealing and ECDH keys, as after
// a restart.
func execEnclave(t *testing.T, seed string) (*Compartment, *tee.Enclave) {
	t.Helper()
	e := newTestExecution(t, 0, seed)
	enc, err := tee.NewEnclaveWithRand(0, crypto.RoleExecution, e, tee.ZeroCostModel(),
		enclaveKeyStream([]byte(seed), 0, crypto.RoleExecution))
	if err != nil {
		t.Fatal(err)
	}
	return e, enc
}

// attest runs a client's attestation handshake against enc: an
// AttestRequest and, unless sk is nil, a ProvisionKey wrapping *sk to the
// enclave's ECDH key.
func attest(t *testing.T, enc *tee.Enclave, client uint32, sk *crypto.SessionKey) {
	t.Helper()
	priv, err := ecdh.X25519().GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var pub [32]byte
	copy(pub[:], priv.PublicKey().Bytes())
	deliver := func(m messages.Message) {
		if _, err := enc.Invoke(wrapMessage(messages.Marshal(m))); err != nil {
			t.Fatal(err)
		}
	}
	deliver(&messages.AttestRequest{ClientID: client, ClientPub: pub})
	if sk == nil {
		return
	}
	encPub := enc.ECDHPublicKey()
	peer, err := ecdh.X25519().NewPublicKey(encPub[:])
	if err != nil {
		t.Fatal(err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		t.Fatal(err)
	}
	wrap, err := crypto.NewSession(tee.DeriveSessionKey(shared), 0)
	if err != nil {
		t.Fatal(err)
	}
	deliver(&messages.ProvisionKey{ClientID: client, Replica: 0, WrappedKey: wrap.Seal(sk[:], crypto.ProvisionAD(client))})
}

// TestAttestStateStaysOutOfCheckpoint: attestation is per replica and
// unordered, so two replicas with the same history take byte-equal
// checkpoint snapshots whichever of them a client attested with.
func TestAttestStateStaysOutOfCheckpoint(t *testing.T) {
	a, encA := execEnclave(t, "attest-a")
	b := newTestExecution(t, 1, "attest-a")
	for _, e := range []*Compartment{a, b} {
		for _, ts := range []uint64{1, 3, 2} {
			recordAt(e, 7, ts)
		}
	}
	sk, err := crypto.NewSessionKey()
	if err != nil {
		t.Fatal(err)
	}
	attest(t, encA, 7, &sk)
	attest(t, encA, 9, nil)
	if a.sessions[7].aead == nil || a.sessions[9].pub == [32]byte{} {
		t.Fatal("setup: attestation did not reach the compartment")
	}
	if !bytes.Equal(a.snapshotState(), b.snapshotState()) {
		t.Fatal("attestation state reached the checkpoint snapshot")
	}
}

// TestSealedExportRoundTrip: a sealed Execution export, unsealed by the same
// enclave identity after a restart, answers executed() as before, keeps the
// bodies for resends, and restores every attested session — a provisioned
// one opens what it sealed before the export, and after FinishRecovery its
// nonce counter has moved past anything the old process may have used.
func TestSealedExportRoundTrip(t *testing.T) {
	const seed = "export-round-trip"
	a, encA := execEnclave(t, seed)
	for _, ts := range []uint64{1, 2, 3, 5, 9, 7} {
		recordAt(a, 7, ts)
	}
	a.clients[7].merge(12, windowOf(12, 12, 11, 8))
	recordAt(a, 3, 400)
	sk, err := crypto.NewSessionKey()
	if err != nil {
		t.Fatal(err)
	}
	attest(t, encA, 7, &sk)
	attest(t, encA, 9, nil)
	ad := crypto.ReplyAD(7, 1)
	sealed := a.sessions[7].aead.Seal([]byte("before export"), ad)
	counter := a.sessions[7].aead.Counter()

	blob, err := encA.SealState()
	if err != nil {
		t.Fatal(err)
	}
	b, encB := execEnclave(t, seed)
	if err := encB.UnsealState(blob); err != nil {
		t.Fatal(err)
	}
	b.FinishRecovery()

	for id := range a.clients {
		for ts := uint64(0); ts <= 420; ts++ {
			want, wantDone := a.clients[id].executed(ts)
			got, done := b.clients[id].executed(ts)
			if done != wantDone || (want == nil) != (got == nil) ||
				want != nil && !bytes.Equal(messages.Marshal(want), messages.Marshal(got)) {
				t.Fatalf("client %d timestamp %d: executed = (%v, %v) after import, want (%v, %v)", id, ts, got, done, want, wantDone)
			}
		}
	}
	aead := b.sessions[7].aead
	if aead == nil {
		t.Fatal("provisioned session lost in the export")
	}
	if pt, err := aead.Open(sealed, ad); err != nil || string(pt) != "before export" {
		t.Fatalf("restored session cannot open a reply sealed before the export: %v", err)
	}
	if aead.Counter() < counter+sessionCounterSlack {
		t.Fatalf("nonce counter %d after recovery, want ≥ %d", aead.Counter(), counter+sessionCounterSlack)
	}
	if s := b.sessions[9]; s.pub != a.sessions[9].pub || s.aead != nil {
		t.Fatal("attested, unprovisioned session not restored as it was")
	}
}

// TestImportRefusesStrayReplyBody: a sealed export holds a reply body only
// for a timestamp its client's window marks executed, and only the client's
// own; an import refuses anything else.
func TestImportRefusesStrayReplyBody(t *testing.T) {
	for name, stray := range map[string]*messages.Reply{
		"other client": {ClientID: 8, Timestamp: 2},
		"not executed": {ClientID: 7, Timestamp: 4},
		"below window": {ClientID: 7, Timestamp: 1},
	} {
		e := newTestExecution(t, 0, "stray")
		recordAt(e, 7, 2)
		recordAt(e, 7, 3)
		recordAt(e, 7, 1+execReplyWindow+5)
		e.clients[7].replies[stray.Timestamp] = stray
		if err := newTestExecution(t, 0, "stray").ImportState(e.ExportState()); err == nil {
			t.Fatalf("%s: import accepted a reply body its record does not mark", name)
		}
	}
}
