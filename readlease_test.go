package splitbft_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// sumLocalReads totals the fast-path reads served across a cluster.
func sumLocalReads(cluster *splitbft.Cluster) uint64 {
	var total uint64
	for _, n := range cluster.Nodes() {
		total += n.LocalReads()
	}
	return total
}

// TestReadLeaseFastPath is the end-to-end acceptance path for the local
// read fast path: with WithReadLeases, GETs are served by lease-holding
// replicas without an agreement round, results stay correct, and the lease
// counters surface through the stats API.
func TestReadLeaseFastPath(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithReadLeases(true),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(200)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Put("balance", []byte("42")); err != nil {
		t.Fatalf("PUT: %v", err)
	}
	// The put's batch piggybacked lease grants to every replica, so
	// subsequent reads can go local. Spread enough reads that the round-robin hits everyone.
	const reads = 24
	for i := 0; i < reads; i++ {
		res, err := cl.Get("balance")
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		if string(res) != "42" {
			t.Fatalf("GET %d = %q, want 42", i, res)
		}
	}
	if got := sumLocalReads(cluster); got == 0 {
		t.Fatal("no reads were served on the local fast path")
	}
	if got := cluster.Node(0).CryptoStats().LeaseGrants; got == 0 {
		t.Fatal("primary's counter enclave granted no leases")
	}
	var verifies uint64
	for _, n := range cluster.Nodes() {
		verifies += n.CryptoStats().LeaseVerifies
	}
	if verifies == 0 {
		t.Fatal("no lease attestations were verified")
	}
}

// TestReadLeaseCountersReset: ResetStats starts a new epoch for the
// fast-path read counter too, so a measurement window that resets every
// node counts only the local reads served inside it.
func TestReadLeaseCountersReset(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithReadLeases(true),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(204)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Put("epoch", []byte("1")); err != nil {
		t.Fatalf("PUT: %v", err)
	}
	const reads = 24
	readAll := func() {
		t.Helper()
		for i := 0; i < reads; i++ {
			if res, err := cl.Get("epoch"); err != nil || string(res) != "1" {
				t.Fatalf("GET %d = %q, %v", i, res, err)
			}
		}
	}
	readAll()
	if sumLocalReads(cluster) == 0 {
		t.Fatal("no reads were served on the local fast path")
	}
	for _, n := range cluster.Nodes() {
		n.ResetStats()
	}
	if got := sumLocalReads(cluster); got != 0 {
		t.Fatalf("%d local reads survived ResetStats", got)
	}
	readAll()
	if got := sumLocalReads(cluster); got == 0 || got > reads*4 {
		t.Fatalf("%d local reads counted for %d GETs after the reset", got, reads)
	}
}

// TestReadLeaseReadYourWrites interleaves writes and leased reads in a
// confidential deployment: every read must observe the client's own latest
// write, no matter which replica serves it — the read index at work, end to
// end through the sealed payload path.
func TestReadLeaseReadYourWrites(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithReadLeases(true),
		splitbft.WithConfidential(),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(201)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Attest(); err != nil {
		t.Fatalf("attestation: %v", err)
	}

	for i := 0; i < 8; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := cl.Put("session-key", []byte(want)); err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
		got, err := cl.Get("session-key")
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("read-your-writes violated: GET after PUT %q returned %q", want, got)
		}
	}
}

// TestReadLeaseLedgerParity runs the same workload on two clusters — read
// leases on and off — and requires identical application state on every
// replica: the read fast path must never perturb the write ledger.
func TestReadLeaseLedgerParity(t *testing.T) {
	run := func(leases bool) [32]byte {
		cluster, err := splitbft.NewCluster(4,
			splitbft.WithReadLeases(leases),
			splitbft.WithBatchSize(1),
			splitbft.WithNetworkSeed(13),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		cl, err := cluster.NewClient(202)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 6; i++ {
			if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("PUT %d: %v", i, err)
			}
			if _, err := cl.Get(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatalf("GET %d: %v", i, err)
			}
		}
		if _, err := cl.Delete("k0"); err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		waitForAgreement(t, cluster, []int{0, 1, 2, 3})
		return cluster.Node(0).App().Digest()
	}
	withLeases := run(true)
	withoutLeases := run(false)
	if withLeases != withoutLeases {
		t.Fatal("ledger diverged between lease-enabled and lease-disabled runs")
	}
}

// TestReadLeaseExpiryFallback kills every replica's lease source — the
// primary's Preparation enclave — and verifies reads still answer
// correctly through the agreement fallback once leases expire. Slow
// because it must outwait a real lease TTL and a view change.
func TestReadLeaseExpiryFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("outwaits a lease TTL and a view change")
	}
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithReadLeases(true),
		splitbft.WithLeaseTTL(400*time.Millisecond),
		splitbft.WithRequestTimeout(200*time.Millisecond),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(17),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(203)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put("durable", []byte("yes")); err != nil {
		t.Fatalf("PUT: %v", err)
	}
	// Depose the primary: its Preparation enclave dies, leases stop
	// renewing, and a view change elects replica 1. Reads must keep
	// answering "yes" throughout — first on residual leases, then via
	// fallback, then on the new primary's leases.
	cluster.Node(0).CrashEnclave(splitbft.RolePreparation)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, err := cl.Get("durable")
		if err == nil && string(res) != "yes" {
			t.Fatalf("stale or wrong read during failover: %q", res)
		}
		if time.Now().After(deadline.Add(-8 * time.Second)) {
			break // a couple of seconds of hammering is plenty
		}
		time.Sleep(50 * time.Millisecond)
	}
	res, err := cl.Get("durable")
	if err != nil {
		t.Fatalf("read unavailable after failover: %v", err)
	}
	if string(res) != "yes" {
		t.Fatalf("read after failover = %q, want yes", res)
	}
}
