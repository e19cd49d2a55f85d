package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// withPersistence gives every replica a durability directory under root
// and the deterministic key seed recovery depends on. Synchronous fsync
// keeps the tests deterministic: a simulated crash then loses nothing
// locally, so what the assertions exercise is the recovery path itself.
func withPersistence(root string, seed []byte) clusterOpt {
	return func(cfg *Config) {
		cfg.KeySeed = seed
		cfg.DataDir = filepath.Join(root, fmt.Sprintf("r%d", cfg.ID))
		cfg.FsyncInterval = -1
		cfg.CheckpointInterval = 4
	}
}

func TestReplicaRecoversAfterCrashRestart(t *testing.T) {
	root := t.TempDir()
	seed := []byte("core-recovery-seed")
	c := newCluster(t, false, withPersistence(root, seed))
	cl := c.client(100)

	put := func(i int) {
		t.Helper()
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		put(i)
	}
	waitFor(t, 5*time.Second, "replica 3 catches up pre-crash", func() bool {
		return c.kvs[3].Digest() == c.kvs[0].Digest()
	})

	// SIGKILL replica 3 and keep the protocol running without it.
	c.replicas[3].Crash()
	for i := 10; i < 16; i++ {
		put(i)
	}

	// Restart: a fresh Replica over the same data directory recovers from
	// the sealed snapshot plus WAL replay, then closes the gap (ops 10–15)
	// through the peers' checkpoints and state transfer.
	r2, err := NewReplica(c.replicas[3].cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(r2.Stop)
	rs := r2.Recovery()
	if rs.Snapshots == 0 {
		t.Fatal("recovery restored no sealed snapshots (checkpoints were reached pre-crash)")
	}
	if rs.WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	conn, err := c.net.Join(transport.ReplicaEndpoint(3), r2.Handler())
	if err != nil {
		t.Fatal(err)
	}
	r2.Start(conn)

	for i := 16; i < 26; i++ {
		put(i)
	}
	waitFor(t, 10*time.Second, "restarted replica converges", func() bool {
		return c.kvs[3].Digest() == c.kvs[0].Digest()
	})
	// Byte-identical state, not just matching digests.
	if !bytes.Equal(c.kvs[3].Snapshot(), c.kvs[0].Snapshot()) {
		t.Fatal("recovered replica state differs from the group")
	}
}

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
		cfg := Config{N: 4, F: 1, ID: id, Registry: reg,
			MACSecret: seed, KeySeed: seed, App: app.NewKVS()}
		cfg = cfg.withDefaults()
		enc, err := tee.NewEnclaveWithRand(id, crypto.RoleExecution,
			mustExecution(t, cfg, ver), tee.ZeroCostModel(),
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
	cfg := Config{N: 4, F: 1, ID: 2, Registry: reg, MACSecret: fixtureSeed,
		KeySeed: fixtureSeed, App: app.NewKVS()}.withDefaults()
	enc, err := tee.NewEnclaveWithRand(2, crypto.RoleExecution, mustExecution(t, cfg, ver),
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
	if err := enc.UnsealState(sealed); !errors.Is(err, errStateVersion) {
		t.Fatalf("version-2 export: err = %v, want errStateVersion", err)
	}

	h := newHarness(t)
	cfg := h.cfgs[0]
	for name, d := range map[string]tee.Durable{
		"preparation":  newPreparation(cfg, h.ver, nil),
		"confirmation": newConfirmation(cfg, h.ver),
		"execution":    mustExecution(t, cfg, h.ver),
	} {
		pt := d.ExportState()
		if err := d.ImportState(pt); err != nil {
			t.Fatalf("%s: current export refused: %v", name, err)
		}
		for _, old := range []byte{2, 3, 4} {
			pt[0] = old
			if err := d.ImportState(pt); !errors.Is(err, errStateVersion) {
				t.Fatalf("%s: export tagged version %d: err = %v, want errStateVersion", name, old, err)
			}
		}
	}
}

func TestPersistenceRequiresKeySeed(t *testing.T) {
	cfg := Config{
		N: 4, F: 1, ID: 0,
		Registry:  crypto.NewRegistry(),
		MACSecret: []byte("secret"),
		App:       app.NewKVS(),
		DataDir:   t.TempDir(),
	}
	if _, err := NewReplica(cfg); err == nil {
		t.Fatal("DataDir without KeySeed accepted — sealed state would be unrecoverable")
	}
}

// TestFinishRecoveryRearmsBatchFetch: WAL replay discards enclave
// outputs, so a BatchFetch fired during replay went nowhere — recovery
// must reset the stall detector so the live one re-fires cleanly.
func TestFinishRecoveryRearmsBatchFetch(t *testing.T) {
	cfg := Config{N: 4, F: 1, ID: 3, Registry: crypto.NewRegistry(),
		MACSecret: []byte("s"), App: app.NewKVS()}
	cfg = cfg.withDefaults()
	ver, err := messages.NewVerifier(cfg.N, cfg.F, cfg.Registry, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	e := mustExecution(t, cfg, ver)
	e.stallSeq = 7 // as if replay left execution mid-stall
	e.stallTicks = missingBodyFetchAfter - 1
	e.finishRecovery()
	if e.stallSeq != 0 || e.stallTicks != 0 {
		t.Fatalf("recovery left the stall detector armed: stallSeq=%d ticks=%d",
			e.stallSeq, e.stallTicks)
	}
	if out := e.fetchBody(7, crypto.HashData([]byte("d"))); len(out) != 1 {
		t.Fatal("fetchBody suppressed after recovery")
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
	cfg := h.cfgs[3]
	cfg.App = kvs2
	ver, err := messages.NewVerifier(h.n, h.f, h.reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	code2 := mustExecution(t, cfg, ver)
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
