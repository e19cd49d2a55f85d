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
	sigs, _ = verifiesPerOp(t, 3, ops, splitbft.WithConsensusMode("trusted"))
	if sigs != 0 {
		t.Fatalf("trusted×mac spent %.2f Ed25519 verifications per op, want 0", sigs)
	}
}

// TestReadVerifyBudget pins the Ed25519 cost of a leased linearizable read at
// none. Classic×sig, n = 4, leases armed: every GET is served locally behind
// one read-index round, and the round's two messages — like the LeaseAcks that
// keep the leases alive — carry a pairwise MAC, because each is consumed by
// the one enclave it is addressed to and never handed on. What Ed25519 is left
// is the counter signature on the lease grants, n per renewal round and off
// the per-read path; before the pair form the same run read 2 per read.
func TestReadVerifyBudget(t *testing.T) {
	const n, reads = 4, 300
	cluster, err := splitbft.NewCluster(n,
		splitbft.WithReadLeases(true),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(21),
		splitbft.WithObservability(),
		// A long detection period so the lease TTL is not clamped below a
		// scheduling stall of a loaded test machine.
		splitbft.WithRequestTimeout(60*time.Second),
		splitbft.WithLeaseTTL(4*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Arming takes a probe round, a quorum of acks and a servable round: read
	// until two full round-robin turns in a row were all served locally.
	deadline := time.Now().Add(30 * time.Second)
	for streak := 0; streak < 2*n; {
		if time.Now().After(deadline) {
			t.Fatal("leases did not arm on every replica")
		}
		before := sumLocalReads(cluster)
		if _, err := cl.Get("k"); err != nil {
			t.Fatal(err)
		}
		if sumLocalReads(cluster) > before {
			streak++
		} else {
			streak = 0
			time.Sleep(5 * time.Millisecond)
		}
	}
	count := func() (local, sigs, rounds uint64) {
		for _, node := range cluster.Nodes() {
			local += node.LocalReads()
			sigs += node.CryptoStats().SigVerifies
			v, _ := metricValue(t, node, "splitbft_read_index_rounds_total")
			rounds += uint64(v)
		}
		return
	}
	local0, sigs0, rounds0 := count()
	for i := 0; i < reads; i++ {
		res, err := cl.Get("k")
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		if string(res) != "v" {
			t.Fatalf("GET %d = %q, want v", i, res)
		}
	}
	local, sigs, rounds := count()
	perRead := float64(sigs-sigs0) / reads
	t.Logf("%d local reads, %d read-index rounds, %.3f Ed25519 verifications per read", local-local0, rounds-rounds0, perRead)
	if local-local0 != reads {
		t.Fatalf("LocalReads = %d, want all %d reads on the fast path", local-local0, reads)
	}
	if rounds == rounds0 {
		t.Fatal("no read-index round ran: the reads were not confirmed against the primary's frontier")
	}
	if perRead > 0.2 {
		t.Fatalf("%.3f Ed25519 verifications per leased read, budget 0.2 (lease grants only)", perRead)
	}
}
