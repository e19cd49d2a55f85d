package execution

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/compartment/confirmation"
	"github.com/splitbft/splitbft/internal/compartment/preparation"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
)

// TestSealedStateWrongIdentityRefused: a sealed compartment snapshot can
// only be opened by an enclave with the same identity key stream. Another
// replica's enclave — or an attacker without the seed — gets an AEAD
// failure, never a partial import.
func TestSealedStateWrongIdentityRefused(t *testing.T) {
	seed := []byte("seal-identity-seed")
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uint32) *tee.Enclave {
		cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: id, MACSecret: seed})
		enc, err := tee.NewEnclaveWithRand(id, crypto.RoleExecution,
			mustExecution(t, cfg, app.NewKVS(), ver), tee.ZeroCostModel(),
			enclaveKeyStream(seed, id, crypto.RoleExecution))
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	sealed, err := mk(0).SealState()
	if err != nil {
		t.Fatal(err)
	}
	// Same identity (re-derived keys, as after a restart): accepted.
	if err := mk(0).UnsealState(sealed); err != nil {
		t.Fatalf("re-derived identity could not unseal its own state: %v", err)
	}
	// Different replica identity: refused.
	if err := mk(1).UnsealState(sealed); err == nil {
		t.Fatal("a different enclave identity unsealed foreign state")
	}
	// Tampered blob: refused.
	sealed[len(sealed)/2] ^= 0xff
	if err := mk(0).UnsealState(sealed); err == nil {
		t.Fatal("tampered sealed state accepted")
	}
}

// testdata/sealed-v2 was written by the state-version-2 code: a WAL of
// eight records (fixtureRecord) and a sealed Execution export, both sealed
// by replica 2's Execution enclave keyed from fixtureSeed. Versions 3 to 5
// changed what an export holds, not how a blob is sealed or a record framed.
var fixtureSeed = []byte("sealed-layout-fixture")

func fixtureRecord(i int) []byte {
	return wrapMessage(messages.Marshal(&messages.Commit{View: 0, Seq: uint64(i + 1),
		Digest: crypto.HashData([]byte{byte(i)}), Replica: uint32(i % 4)}))
}

// fixtureEnclave re-derives the enclave that sealed testdata/sealed-v2.
func fixtureEnclave(t *testing.T) *tee.Enclave {
	t.Helper()
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: 2, MACSecret: fixtureSeed})
	enc, err := tee.NewEnclaveWithRand(2, crypto.RoleExecution, mustExecution(t, cfg, app.NewKVS(), ver),
		tee.ZeroCostModel(), enclaveKeyStream(fixtureSeed, 2, crypto.RoleExecution))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestSealedWALFromVersion2Unseals: a WAL written before the in-place seal
// recovers record for record, and its tail marker still unseals.
func TestSealedWALFromVersion2Unseals(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"tailmark", "wal-0000000000000001.seg"} {
		data, err := os.ReadFile(filepath.Join("testdata", "sealed-v2", "wal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, rec, err := store.Open(dir, store.Options{Sealer: fixtureEnclave(t), FsyncInterval: -1})
	if err != nil {
		t.Fatalf("open a version-2 WAL: %v", err)
	}
	defer st.Close()
	if len(rec.Records) != 8 {
		t.Fatalf("recovered %d records, want 8", len(rec.Records))
	}
	for i, got := range rec.Records {
		if !bytes.Equal(got, fixtureRecord(i)) {
			t.Fatalf("record %d differs from what was appended", i+1)
		}
	}
}

// TestStateExportV2Refused: the checkpoint snapshot Execution embeds changed
// its skip-state layout in version 3, the Reply bodies it caches lost a
// field in version 4, and its exactly-once records and sessions changed
// layout in version 5, so older exports are refused outright rather than
// misparsed — the genuine version-2 one in testdata and, for every
// compartment, a current export tagged 2, 3 or 4.
func TestStateExportV2Refused(t *testing.T) {
	sealed, err := os.ReadFile(filepath.Join("testdata", "sealed-v2", "execution-v2.sealed"))
	if err != nil {
		t.Fatal(err)
	}
	enc := fixtureEnclave(t)
	if _, err := enc.Unseal(sealed); err != nil {
		t.Fatalf("a version-2 sealed blob no longer unseals: %v", err)
	}
	if err := enc.UnsealState(sealed); !errors.Is(err, compartment.ErrStateVersion) {
		t.Fatalf("version-2 export: err = %v, want compartment.ErrStateVersion", err)
	}

	h := newHarness(t)
	cfg := h.cfgs[0]
	for name, d := range map[string]tee.Durable{
		"preparation":  preparation.New(cfg, h.ver, nil),
		"confirmation": confirmation.New(cfg, h.ver),
		"execution":    mustExecution(t, cfg, app.NewKVS(), h.ver),
	} {
		pt := d.ExportState()
		if err := d.ImportState(pt); err != nil {
			t.Fatalf("%s: current export refused: %v", name, err)
		}
		for _, old := range []byte{2, 3, 4} {
			pt[0] = old
			if err := d.ImportState(pt); !errors.Is(err, compartment.ErrStateVersion) {
				t.Fatalf("%s: export tagged version %d: err = %v, want compartment.ErrStateVersion", name, old, err)
			}
		}
	}
}

// TestCompartmentStateExportRoundTrip drives a slice of protocol traffic
// through an execution compartment, exports its state, imports it into a
// fresh instance and checks the observable state matches.
func TestCompartmentStateExportRoundTrip(t *testing.T) {
	h := newHarness(t)
	secret := []byte("compartment-test")
	exec := h.enclave(3, crypto.RoleExecution)

	req := testRequest(secret, h.n, 7, 1, app.EncodePut("k", []byte("v")))
	b := messages.Batch{Requests: []messages.Request{req}}
	byzPrep := h.byzantineSigner(0, crypto.RolePreparation)
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b}
	pp.Sig = byzPrep.Sign(pp.SigningBytes())
	_, _ = exec.Invoke(wrapMessage(messages.Marshal(pp)))
	for r := uint32(0); r < 3; r++ {
		byz := h.byzantineSigner(r, crypto.RoleConfirmation)
		c := &messages.Commit{View: 0, Seq: 1, Digest: pp.Digest, Replica: r}
		c.Sig = byz.Sign(c.SigningBytes())
		_, _ = exec.Invoke(wrapMessage(messages.Marshal(c)))
	}
	if _, ok := h.apps[3].Get("k"); !ok {
		t.Fatal("setup: request did not execute")
	}

	sealed, err := exec.SealState()
	if err != nil {
		t.Fatal(err)
	}
	// Import into a fresh compartment of the same identity.
	kvs2 := app.NewKVS()
	ver, err := messages.NewVerifier(h.n, h.f, h.reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	code2 := mustExecution(t, h.cfgs[3], kvs2, ver)
	enc2, err := tee.NewEnclave(3, crypto.RoleExecution, code2, tee.ZeroCostModel())
	if err != nil {
		t.Fatal(err)
	}
	_ = enc2
	// Unseal through the durable hooks directly: enc2 has a different
	// random sealing key, so unseal the blob with the original enclave and
	// import the plaintext.
	pt, err := exec.Unseal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := code2.ImportState(pt); err != nil {
		t.Fatal(err)
	}
	if v, ok := kvs2.Get("k"); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatal("application state did not survive the export round trip")
	}
	if code2.lastExec != 1 {
		t.Fatalf("lastExec = %d after import, want 1", code2.lastExec)
	}
	// The exactly-once cache survived: re-delivering the commits must not
	// re-execute (lastExec already covers seq 1).
	if !bytes.Equal(kvs2.Snapshot(), h.apps[3].Snapshot()) {
		t.Fatal("imported state is not byte-identical to the exported one")
	}
}
