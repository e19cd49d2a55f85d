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
