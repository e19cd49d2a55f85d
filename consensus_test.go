package splitbft_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

func TestConsensusModeOptionValidation(t *testing.T) {
	if _, err := splitbft.NewCluster(3, splitbft.WithConsensusMode("hybrid-but-wrong")); err == nil {
		t.Fatal("unknown consensus mode accepted")
	}
	// Trusted groups are 2f+1: a 3f+1 group is a configuration error, not
	// a silently over-provisioned deployment.
	if _, err := splitbft.NewCluster(4, splitbft.WithConsensusMode("trusted")); err == nil {
		t.Fatal("trusted mode accepted a 3f+1 group")
	}
	// And the dual: classic consensus cannot run on 2f+1 replicas.
	if _, err := splitbft.NewCluster(3, splitbft.WithConsensusMode("classic")); err == nil {
		t.Fatal("classic mode accepted a 2f+1 group")
	}
	// Trusted consensus runs MAC agreement only: an explicit "sig" beside
	// it is rejected by every constructor, not silently overridden.
	trustedSig := []splitbft.Option{splitbft.WithConsensusMode("trusted"), splitbft.WithAgreementAuth("sig")}
	if _, err := splitbft.NewCluster(3, trustedSig...); err == nil {
		t.Fatal("NewCluster accepted trusted consensus with sig agreement")
	}
	addrs := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	tcp := append(trustedSig, splitbft.WithTransportTCP(addrs...), splitbft.WithKeySeed([]byte("trusted-sig")))
	if _, err := splitbft.NewNode(0, tcp...); err == nil {
		t.Fatal("NewNode accepted trusted consensus with sig agreement")
	}
	if _, err := splitbft.NewClient(100, tcp...); err == nil {
		t.Fatal("NewClient accepted trusted consensus with sig agreement")
	}
}

// TestTrustedModeFacadeRoundTrip drives the 2f+1 trusted-counter mode over
// the public surface, with no auth option (trusted implies MAC), and checks
// the crypto profile: the leader creates counter attestations, every
// replica verifies them, and the cluster stays in agreement.
func TestTrustedModeFacadeRoundTrip(t *testing.T) {
	t.Run("mac", func(t *testing.T) {
		cluster, err := splitbft.NewCluster(3,
			splitbft.WithConsensusMode("trusted"),
			splitbft.WithBatchSize(1),
			splitbft.WithNetworkSeed(17),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		if cluster.N() != 3 || cluster.F() != 1 {
			t.Fatalf("got n=%d f=%d, want n=3 f=1", cluster.N(), cluster.F())
		}
		cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(20*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		waitForAgreement(t, cluster, []int{0, 1, 2})
		if cs := cluster.Node(0).CryptoStats(); cs.CounterCreates == 0 {
			t.Fatal("trusted-mode leader created no counter attestations")
		}
		for id := 0; id < 3; id++ {
			if cs := cluster.Node(id).CryptoStats(); cs.CounterVerifies == 0 {
				t.Fatalf("replica %d verified no counter attestations", id)
			}
		}
	})
}

// runConsensusLedger replays the fixed seeded workload from the auth-mode
// parity suite — crash/restart of one replica and a forced view change
// included — on a blockchain cluster in the given consensus and agreement
// auth modes, and returns the surviving replicas' ledger snapshots. Classic
// runs 3f+1, trusted 2f+1; the committed ledger must not care. With
// inFlight the view change is forced while a proposal is prepared at one
// backup and committed nowhere, so the new view has a certificate to carry.
func runConsensusLedger(t *testing.T, mode, auth string, inFlight bool) [][]byte {
	t.Helper()
	n := 4
	if mode == "trusted" {
		n = 3
	}
	dir := t.TempDir()
	cluster, err := splitbft.NewCluster(n,
		splitbft.WithConsensusMode(mode),
		splitbft.WithAgreementAuth(auth),
		splitbft.WithBlockchain(4),
		splitbft.WithPersistence(dir),
		splitbft.WithKeySeed([]byte("consensus-parity-seed")),
		splitbft.WithBatchSize(1),
		splitbft.WithCheckpointInterval(4),
		splitbft.WithRequestTimeout(300*time.Millisecond),
		splitbft.WithNetworkSeed(37),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(700, splitbft.WithInvokeTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx := func(i int) {
		t.Helper()
		if _, err := cl.Invoke([]byte(fmt.Sprintf("tx-%02d", i))); err != nil {
			t.Fatalf("tx %d (%s×%s): %v", i, mode, auth, err)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for i := 0; i < 8; i++ {
		tx(i)
	}
	waitForAgreement(t, cluster, all)

	// Crash the highest replica mid-run, commit more, restart: trusted-mode
	// recovery must restore the sealed counter position alongside the WAL
	// so the replica keeps verifying (and, as a future primary, creating)
	// gap-free attestations.
	cluster.CrashNode(n - 1)
	for i := 8; i < 12; i++ {
		tx(i)
	}
	if err := cluster.RestartNode(n - 1); err != nil {
		t.Fatalf("restart (%s×%s): %v", mode, auth, err)
	}
	for i := 12; i < 16; i++ {
		tx(i)
	}
	waitForAgreement(t, cluster, all)

	// Forced view change: partition the primary. In trusted mode the
	// NewView must carry a fresh counter base and counter-attested
	// re-issues or no correct replica would follow it.
	first := 16
	if inFlight {
		// Park tx 16 first. With its Confirmation enclave dead the primary
		// still proposes but never votes, and with replica 1 cut off only
		// the last replica accepts the proposal: its Confirmation holds the
		// slot, one Commit short of f+1 everywhere. Then swap the partition
		// — the last replica's ViewChange is the only evidence the slot
		// ever existed, and replica 1, the new primary, must re-issue a
		// proposal it never saw from that certificate alone.
		witness := cluster.Node(n - 1)
		before, state := witness.CryptoStats().CounterVerifies, witness.App().Snapshot()
		cluster.Node(0).CrashEnclave(splitbft.RoleConfirmation)
		cluster.Partition(1)
		parked := make(chan error, 1)
		go func() {
			_, err := cl.Invoke([]byte(fmt.Sprintf("tx-%02d", first)))
			parked <- err
		}()
		deadline := time.Now().Add(10 * time.Second)
		for witness.CryptoStats().CounterVerifies < before+2 { // Preparation, then Confirmation
			if time.Now().After(deadline) {
				t.Fatal("in-flight proposal never reached the witness replica")
			}
			time.Sleep(time.Millisecond)
		}
		if !bytes.Equal(witness.App().Snapshot(), state) {
			t.Fatal("witness executed the parked proposal, it must stay uncommitted")
		}
		cluster.Heal()
		cluster.Partition(0)
		if err := <-parked; err != nil {
			t.Fatalf("in-flight tx %d lost across the view change (%s×%s): %v", first, mode, auth, err)
		}
		first++
	} else {
		cluster.Partition(0)
	}
	for i := first; i < 20; i++ {
		tx(i)
	}
	waitForAgreement(t, cluster, all[1:])

	var snaps [][]byte
	for _, id := range all[1:] {
		bc := cluster.Node(id).App().(*splitbft.Blockchain)
		if err := splitbft.VerifyChain(bc.Headers()); err != nil {
			t.Fatalf("replica %d chain (%s×%s): %v", id, mode, auth, err)
		}
		snaps = append(snaps, bc.Snapshot())
	}
	return snaps
}

// TestConsensusModeLedgerParity is the acceptance check for the trusted
// fast path: the same seeded workload — crash/restart and a forced view
// change included — must produce ledgers byte-identical across replicas
// AND byte-identical between classic×sig and trusted×mac. Dropping the
// Prepare phase changes how agreement is proven, never what is agreed —
// and neither does proving it with MAC-vector attestations and vouched
// certificates (view change forced over an in-flight slot) instead of
// signed Prepares.
func TestConsensusModeLedgerParity(t *testing.T) {
	trusted := runConsensusLedger(t, "trusted", "mac", true)
	classic := runConsensusLedger(t, "classic", "sig", false)
	for i := 1; i < len(trusted); i++ {
		if !bytes.Equal(trusted[i], trusted[0]) {
			t.Fatalf("trusted×mac replicas diverged: snapshot %d != snapshot 0", i)
		}
	}
	if !bytes.Equal(trusted[0], classic[0]) {
		t.Fatal("trusted×mac ledger differs from the classic×sig ledger on the same workload")
	}
}

// startTrustedMACOverTCP starts the 2f+1 trusted×mac group as three
// in-process nodes on loopback listeners, plus a client reaching them the
// way cmd/splitbft-client does.
func startTrustedMACOverTCP(t *testing.T, seed string, extra ...splitbft.Option) ([]*splitbft.Node, *splitbft.Client) {
	t.Helper()
	addrs := make([]string, 3)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	opts := append([]splitbft.Option{
		splitbft.WithConsensusMode("trusted"),
		splitbft.WithAgreementAuth("mac"),
		splitbft.WithTransportTCP(addrs...),
		splitbft.WithKeySeed([]byte(seed)),
		splitbft.WithBatchSize(1),
	}, extra...)
	var nodes []*splitbft.Node
	for i := 0; i < 3; i++ {
		node, err := splitbft.NewNode(uint32(i), opts...)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Stop)
		nodes = append(nodes, node)
	}
	for i, node := range nodes {
		if err := node.Start(); err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
	}
	cl, err := splitbft.NewClient(100, append(opts, splitbft.WithInvokeTimeout(30*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return nodes, cl
}

// TestTrustedModeTCP runs the 2f+1 trusted group over the real TCP
// transport, MAC agreement auth on top to cover the trusted+MAC
// composition over the wire.
func TestTrustedModeTCP(t *testing.T) {
	nodes, cl := startTrustedMACOverTCP(t, "trusted-tcp-seed")
	for i := 0; i < 5; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("op %d over TCP: %v", i, err)
		}
	}
	res, err := cl.Get("k4")
	if err != nil || string(res) != "v" {
		t.Fatalf("GET over TCP = %q, %v", res, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	ref := nodes[0].App()
	for time.Now().Before(deadline) {
		if nodes[1].App().Digest() == ref.Digest() && nodes[2].App().Digest() == ref.Digest() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("TCP trusted-mode replicas diverged")
}

// TestNoSpuriousSuspicionOverTCP: over TCP a client's direct copy of a
// request can reach a backup after that backup already replied (the
// primary's PrePrepare overtook it). Such a late copy used to re-arm a
// failure-detector timer nothing cleared, so a healthy group changed views
// about once per request timeout (the parent commit fails this test in
// about 17 runs of 20). The burst stays below the first checkpoint and well
// inside one timeout: on a busy machine a replica — the primary included,
// whose own copy of a proposal can trail the backups' checkpoints — may be
// state-transferred past a request it then never answers, which leaves an
// honest stale timer this test is not about. Without one, every honest
// timer is cleared moments after the burst, and a re-armed one — never
// cleared — fires within one timeout of idleness.
func TestNoSpuriousSuspicionOverTCP(t *testing.T) { noSpuriousSuspicionOverTCP(t, 250) }

// TestNoSpuriousSuspicionAcrossCheckpointsOverTCP runs the same burst across
// two checkpoints (at 100 and 200), where a replica that falls behind is
// state-transferred past requests it may have had in flight: the stale-timer
// case the test above stays clear of.
func TestNoSpuriousSuspicionAcrossCheckpointsOverTCP(t *testing.T) {
	noSpuriousSuspicionOverTCP(t, 100)
}

// noSpuriousSuspicionOverTCP puts a 240-op burst through a trusted×mac group
// over TCP with the given checkpoint interval, idles one and a half request
// timeouts, and requires that no replica suspected anyone.
func noSpuriousSuspicionOverTCP(t *testing.T, checkpointInterval uint64) {
	const timeout = 500 * time.Millisecond
	nodes, cl := startTrustedMACOverTCP(t, "tcp-suspicion-seed",
		splitbft.WithRequestTimeout(timeout), splitbft.WithCheckpointInterval(checkpointInterval))
	for i := 0; i < 240; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("op %d over TCP: %v", i, err)
		}
	}
	time.Sleep(timeout + timeout/2)
	for i, node := range nodes {
		if got := node.Suspects(); got != 0 {
			t.Fatalf("node %d raised %d suspects under fault-free load", i, got)
		}
	}
}
