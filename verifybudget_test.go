package splitbft_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// verifiesPerOp runs ops fault-free single-client writes at batch 1 and
// returns the cluster-wide Ed25519 and agreement-MAC verifications per
// operation, from the public Node counters.
func verifiesPerOp(t *testing.T, n, ops int, opts ...splitbft.Option) (sigs, macs float64) {
	t.Helper()
	opts = append([]splitbft.Option{splitbft.WithBatchSize(1), splitbft.WithNetworkSeed(20)}, opts...)
	cluster, err := splitbft.NewCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < ops; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitForAgreement(t, cluster, ids)
	var sig, mac uint64
	for _, id := range ids {
		cs := cluster.Node(id).CryptoStats()
		sig += cs.SigVerifies
		mac += cs.MACVerifies
	}
	return float64(sig) / float64(ops), float64(mac) / float64(ops)
}

// TestVerifyBudget pins the Ed25519 cost of the fault-free normal case so it
// cannot creep back. Classic×sig at n = 4, batch 1, needs 23 verifications
// per write where a proof is handed on or crosses machines — 3 backups'
// Preparation and 4 Confirmations check the PrePrepare, each Confirmation 2
// Prepares, each Execution 2 remote Commits — and pays none on the
// Confirmation→Execution hop inside a replica (one MAC) nor for Execution's
// request bodies. What varies with scheduling is how often an Execution has
// three remote Commits before its own replica's arrives (up to +4) and the
// checkpoint votes (≈ +0.4); before the two rules the same run read 31.
// Trusted×mac runs no Ed25519 at all.
func TestVerifyBudget(t *testing.T) {
	const ops = 300
	sigs, macs := verifiesPerOp(t, 4, ops)
	t.Logf("classic×sig: %.2f Ed25519 + %.2f MAC verifications per op", sigs, macs)
	if sigs > 24.5 {
		t.Fatalf("classic×sig spent %.2f Ed25519 verifications per op, budget 24.5", sigs)
	}
	if macs < 2 {
		t.Fatalf("only %.2f hop-MAC verifications per op: Executions are not taking their own replica's Commit on the MAC", macs)
	}
	sigs, _ = verifiesPerOp(t, 3, ops, splitbft.WithConsensusMode("trusted"), splitbft.WithAgreementAuth("mac"))
	if sigs != 0 {
		t.Fatalf("trusted×mac spent %.2f Ed25519 verifications per op, want 0", sigs)
	}
}
