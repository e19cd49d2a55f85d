package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// Trusted-counter consensus on the MAC fast path: counter attestations are
// pairwise HMAC vectors, so everything that must outlive one receiver —
// WAL replay after a restart, certificates exported into a ViewChange —
// has to work without a transferable attestation.

func withTrustedMAC(c *Config) {
	c.ConsensusMode = messages.ConsensusTrusted
	c.AgreementAuth = messages.AuthMAC
}

// TestTrustedConsensusRequiresMAC: a replica configured for trusted
// consensus under signatures is refused before any enclave launches.
func TestTrustedConsensusRequiresMAC(t *testing.T) {
	cfg := Config{
		ConsensusMode: messages.ConsensusTrusted, AgreementAuth: messages.AuthSig,
		Registry: crypto.NewRegistry(), App: app.NewKVS(),
	}
	cfg.N, cfg.F, cfg.MACSecret = 3, 1, []byte("s")
	_, err := NewReplica(cfg)
	if err == nil {
		t.Fatal("NewReplica accepted trusted consensus with sig agreement")
	}
}

// TestTrustedMACReplicatesWithoutSignatures: the fault-free trusted×mac
// normal case runs on HMACs alone — attestations are created and checked
// (five checks per operation at n = 3), but no Ed25519 verification runs.
func TestTrustedMACReplicatesWithoutSignatures(t *testing.T) {
	c := newClusterN(t, 3, 1, false, withTrustedMAC)
	cl := c.client(100)
	const ops = 8
	for i := 0; i < ops; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "replica convergence", func() bool {
		return c.kvs[1].Digest() == c.kvs[0].Digest() && c.kvs[2].Digest() == c.kvs[0].Digest()
	})
	if got := c.replicas[0].CounterCreates(); got != ops {
		t.Fatalf("leader created %d attestations for %d proposals", got, ops)
	}
	// Backup Preparation ×2 plus every Confirmation ×3 — some of them off
	// the commit path, hence the wait.
	var ctr, sigs uint64
	waitFor(t, 5*time.Second, "every addressed compartment checks every attestation", func() bool {
		ctr, sigs = 0, 0
		for _, r := range c.replicas {
			vs := r.VerifierStats()
			ctr += vs.CounterVerifies
			sigs += vs.SigVerifies
		}
		return ctr >= 5*ops
	})
	if ctr != 5*ops {
		t.Fatalf("%d attestation checks for %d proposals, want %d", ctr, ops, 5*ops)
	}
	if sigs != 0 {
		t.Fatalf("fault-free trusted×mac run executed %d Ed25519 verifications", sigs)
	}
}

// TestTrustedMACInFlightSlotSurvivesRestartAndViewChange parks one
// proposal in flight — accepted by the backups' Confirmation compartments,
// committed nowhere — then crashes and restarts a backup and forces a view
// change. The slot must come back from the WAL (its MAC attestation
// re-verified under keys re-derived from the key seed), leave the replica
// as a vouched certificate any peer accepts, and be re-issued and executed
// in the new view.
func TestTrustedMACInFlightSlotSurvivesRestartAndViewChange(t *testing.T) {
	root := t.TempDir()
	c := newClusterN(t, 3, 1, false, withTrustedMAC, withPersistence(root, []byte("trusted-mac-seed")))
	cl := c.client(100)
	const committed = 6
	for i := 0; i < committed; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Backup 2 checks every attestation twice: Preparation, Confirmation.
	waitFor(t, 5*time.Second, "replica convergence", func() bool {
		return c.kvs[1].Digest() == c.kvs[0].Digest() && c.kvs[2].Digest() == c.kvs[0].Digest() &&
			c.replicas[2].VerifierStats().CounterVerifies == 2*committed
	})

	// The primary can still propose but not commit, and the backups cannot
	// hear each other: proposal 7 reaches both backups, each votes, and no
	// Execution compartment ever sees f+1 Commits.
	c.replicas[0].CrashEnclave(crypto.RoleConfirmation)
	c.net.Block(transport.ReplicaEndpoint(1), transport.ReplicaEndpoint(2))
	done := make(chan error, 1)
	go func() {
		_, err := cl.Invoke(app.EncodePut("inflight", []byte("v")))
		done <- err
	}()
	waitFor(t, 5*time.Second, "backup 2 accepts the in-flight proposal", func() bool {
		return c.replicas[2].VerifierStats().CounterVerifies == 2*(committed+1)
	})
	if _, applied := c.kvs[2].Get("inflight"); applied {
		t.Fatal("backup 2 executed the in-flight proposal, it must stay uncommitted")
	}

	// SIGKILL backup 2 and rebuild it over the same data directory.
	c.replicas[2].Crash()
	r2, err := NewReplica(c.replicas[2].cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(r2.Stop)
	if r2.Recovery().WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}

	// Ask the recovered Confirmation compartment for its ViewChange before
	// it sees any live traffic: whatever it exports came from the disk.
	out, err := r2.Enclave(crypto.RoleConfirmation).Invoke(
		wrapMessage(messages.Marshal(&messages.Suspect{Replica: 2, View: 0})))
	if err != nil {
		t.Fatal(err)
	}
	vc, ok := findMsg[*messages.ViewChange](t, out, tee.DestBroadcast)
	if !ok {
		t.Fatal("recovered Confirmation compartment emitted no ViewChange")
	}
	if vc.HighCtr != committed+1 {
		t.Fatalf("recovered HighCtr = %d, want %d (the replayed in-flight proposal)", vc.HighCtr, committed+1)
	}
	var inflight *messages.PrepareCert
	for i := range vc.Prepared {
		pc := &vc.Prepared[i]
		if len(pc.PrePrepare.CtrSig) != 0 || len(pc.Vouch) == 0 || pc.Attestor != 2 {
			t.Fatalf("cert for seq %d: %d attestation bytes, %d vouch bytes, attestor %d — want a bare vouched header",
				pc.Seq(), len(pc.PrePrepare.CtrSig), len(pc.Vouch), pc.Attestor)
		}
		if pc.Seq() == committed+1 {
			inflight = pc
		}
	}
	if inflight == nil || inflight.PrePrepare.CtrVal != committed+1 {
		t.Fatalf("ViewChange carries no certificate for the in-flight slot %d: %+v", committed+1, vc.Prepared)
	}
	// Transferable: a peer that never saw replica 2's MAC slots accepts it.
	if err := c.replicas[1].vers[1].VerifyViewChange(vc); err != nil {
		t.Fatalf("peer rejected the vouched ViewChange: %v", err)
	}

	// Finish the view change for real: the old primary disappears, the
	// backups reconnect, and the parked request must complete in view 1.
	conn, err := c.net.Join(transport.ReplicaEndpoint(2), r2.Handler())
	if err != nil {
		t.Fatal(err)
	}
	r2.Start(conn)
	c.net.Isolate(transport.ReplicaEndpoint(0))
	c.net.Unblock(transport.ReplicaEndpoint(1), transport.ReplicaEndpoint(2))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("in-flight request lost across restart and view change: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	if _, err := cl.Invoke(app.EncodePut("after", []byte("v"))); err != nil {
		t.Fatalf("no progress in the new view: %v", err)
	}
	waitFor(t, 10*time.Second, "backups agree after the view change", func() bool {
		return c.kvs[1].Digest() == c.kvs[2].Digest()
	})
	if res, _ := c.kvs[2].Get("inflight"); string(res) != "v" {
		t.Fatalf("in-flight write missing after the view change: %q", res)
	}
	if c.replicas[1].CounterCreates() == 0 {
		t.Fatal("new primary attested nothing in view 1")
	}
}

// TestTrustedConfirmationCommitsOnlyWithBody: in trusted mode no Prepare
// round stands between a backup's Confirmation and its Commit, so the
// Confirmation checks the request bodies itself. The MACs and the counter
// attestation cover the header alone, so a PrePrepare whose batch a faulty
// primary host stripped still verifies; it must give no Commit, and the
// same PrePrepare with its batch must give one.
func TestTrustedConfirmationCommitsOnlyWithBody(t *testing.T) {
	c := newClusterN(t, 3, 1, false, withTrustedMAC)
	batch := &messages.Batch{Requests: []messages.Request{
		testRequest(c.secret, c.n, 100, 1, app.EncodePut("k", []byte("v"))),
	}}
	out, err := c.replicas[0].Enclave(crypto.RolePreparation).Invoke(wrapBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := findMsg[*messages.PrePrepare](t, out, tee.DestBroadcast)
	if !ok || pp.CtrVal == 0 || len(pp.Batch.Requests) != 1 {
		t.Fatal("primary emitted no counter-attested PrePrepare with its batch")
	}
	conf := c.replicas[1].Enclave(crypto.RoleConfirmation)
	out, err = conf.Invoke(wrapMessage(messages.Marshal(pp.StripBatch())))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findMsg[*messages.Commit](t, out, tee.DestBroadcast); ok {
		t.Fatal("Confirmation committed a PrePrepare stripped of its request bodies")
	}
	out, err = conf.Invoke(wrapMessage(messages.Marshal(pp)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findMsg[*messages.Commit](t, out, tee.DestBroadcast); !ok {
		t.Fatal("Confirmation did not commit the PrePrepare with its batch")
	}
}

// TestTrustedMACQuietStoreFlushesAtSnapshots: a trusted-mode backup's
// Preparation emits nothing in normal operation, so the pre-output barrier
// never flushes its store. Its records wait in memory until the next
// snapshot, which comes at every stable checkpoint. A crash drops that quiet
// tail, and the restarted backup still converges through its peers.
func TestTrustedMACQuietStoreFlushesAtSnapshots(t *testing.T) {
	root := t.TempDir()
	buffered := func(cfg *Config) { cfg.FsyncInterval = 0 }
	c := newClusterN(t, 3, 1, false, withTrustedMAC, withPersistence(root, []byte("quiet-store-seed")), buffered)
	cl := c.client(100)
	put := func(i int) {
		t.Helper()
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	converged := func() bool { return c.kvs[2].Digest() == c.kvs[0].Digest() }
	prep := c.replicas[2].stores[crypto.RolePreparation]

	// Three proposals, below the first checkpoint (interval 4): nothing
	// has flushed the backup's Preparation log.
	for i := 0; i < 3; i++ {
		put(i)
	}
	waitFor(t, 5*time.Second, "backup 2 executes", converged)
	if st := prep.st.Stats(); st.Appended < 3 || st.Flushed != 0 || st.Fsyncs != 0 {
		t.Fatalf("quiet Preparation store before any snapshot: %+v, want ≥3 appended and nothing flushed", st)
	}

	// The checkpoints at 4 and 8 each snapshot the compartment, and each
	// snapshot flushes the log it covers.
	for i := 3; i < 8; i++ {
		put(i)
	}
	waitFor(t, 5*time.Second, "Preparation snapshot at checkpoint 8", func() bool {
		return prep.lastEpoch.Load() >= 8
	})
	if st := prep.st.Stats(); st.SnapshotIndex == 0 || st.Flushed < st.SnapshotIndex {
		t.Fatalf("snapshot did not flush the log it covers: %+v", st)
	}

	// Two more proposals stay buffered, and the crash drops them.
	put(8)
	put(9)
	waitFor(t, 5*time.Second, "backup 2 executes", converged)
	pre := prep.st.Stats()
	if pre.Appended <= pre.Flushed {
		t.Fatalf("no quiet tail buffered after the snapshot: %+v", pre)
	}
	c.replicas[2].Crash()
	for i := 10; i < 14; i++ {
		put(i)
	}
	r2, err := NewReplica(c.replicas[2].cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(r2.Stop)
	if got := r2.stores[crypto.RolePreparation].st.Stats().NextIndex - 1; got >= pre.Appended {
		t.Fatalf("restarted Preparation recovered %d records, want fewer than the %d appended", got, pre.Appended)
	}
	conn, err := c.net.Join(transport.ReplicaEndpoint(2), r2.Handler())
	if err != nil {
		t.Fatal(err)
	}
	r2.Start(conn)
	for i := 14; i < 20; i++ {
		put(i)
	}
	waitFor(t, 10*time.Second, "restarted backup converges", converged)
}
