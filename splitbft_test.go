package splitbft_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// waitForAgreement polls until every listed node's application digest
// matches node 0's, or the deadline passes.
func waitForAgreement(t *testing.T, cluster *splitbft.Cluster, ids []int) {
	t.Helper()
	ref := cluster.Node(ids[0]).App()
	// Generous: under `go test ./...` these tests share the machine with
	// the CPU-heavy benchmark packages, and the simulated
	// enclave-transition costs spin-wait. A healthy run returns in
	// milliseconds.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		agree := true
		for _, id := range ids[1:] {
			if cluster.Node(id).App().Digest() != ref.Digest() {
				agree = false
				break
			}
		}
		if agree {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids[1:] {
		if cluster.Node(id).App().Digest() != ref.Digest() {
			t.Fatalf("replica %d state diverged from replica %d", id, ids[0])
		}
	}
}

// TestClusterRoundTrip is the public-API acceptance path: cluster up →
// attest → confidential PUT/GET → crash one Confirmation enclave → the
// service stays live and the healthy replicas stay in agreement.
func TestClusterRoundTrip(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithConfidential(),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.N() != 4 || cluster.F() != 1 {
		t.Fatalf("got n=%d f=%d, want n=4 f=1", cluster.N(), cluster.F())
	}

	cl, err := cluster.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Attest(); err != nil {
		t.Fatalf("attestation: %v", err)
	}
	if _, err := cl.Put("balance", []byte("42")); err != nil {
		t.Fatalf("PUT: %v", err)
	}
	res, err := cl.Get("balance")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if string(res) != "42" {
		t.Fatalf("GET = %q, want 42", res)
	}

	// One Confirmation enclave down is within every compartment's fault
	// budget: commits still reach the 2f+1 quorum on the other replicas.
	cluster.Node(1).CrashEnclave(splitbft.RoleConfirmation)

	if _, err := cl.Put("balance", []byte("43")); err != nil {
		t.Fatalf("PUT after Confirmation-enclave crash: %v", err)
	}
	res, err = cl.Get("balance")
	if err != nil {
		t.Fatalf("GET after Confirmation-enclave crash: %v", err)
	}
	if string(res) != "43" {
		t.Fatalf("GET after crash = %q, want 43", res)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})
}

// TestClusterPartitionViewChange drives the other fault-injection handle:
// partitioning the primary forces a view change; committed state survives
// and the cluster accepts writes again after healing.
func TestClusterPartitionViewChange(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithBatchSize(1),
		splitbft.WithRequestTimeout(300*time.Millisecond),
		splitbft.WithNetworkSeed(12),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("account", []byte("100")); err != nil {
		t.Fatalf("PUT: %v", err)
	}

	cluster.Partition(0) // cut the view-0 primary off
	if _, err := cl.Put("account", []byte("200")); err != nil {
		t.Fatalf("PUT across view change: %v", err)
	}
	res, err := cl.Get("account")
	if err != nil {
		t.Fatalf("GET after view change: %v", err)
	}
	if string(res) != "200" {
		t.Fatalf("GET after view change = %q, want 200", res)
	}
	waitForAgreement(t, cluster, []int{1, 2, 3})

	cluster.Heal()
	if _, err := cl.Put("account", []byte("300")); err != nil {
		t.Fatalf("PUT after heal: %v", err)
	}
}

// TestBlockchainCluster checks the ledger application end to end on the
// facade, including sealed persistence through the Execution enclave.
func TestBlockchainCluster(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithBlockchain(splitbft.DefaultBlockSize),
		splitbft.WithConfidential(),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(13),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(200)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Attest(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*splitbft.DefaultBlockSize; i++ {
		if _, err := cl.Invoke([]byte{byte('a' + i)}); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})
	bc := cluster.Node(0).App().(*splitbft.Blockchain)
	if bc.Height() != 2 {
		t.Fatalf("height = %d, want 2", bc.Height())
	}
	if err := splitbft.VerifyChain(bc.Headers()); err != nil {
		t.Fatalf("chain: %v", err)
	}
	if got := cluster.Node(0).PersistedBlocks(); got != 2 {
		t.Fatalf("persisted %d sealed blocks, want 2", got)
	}
}

// TestConstructorValidation pins the facade's error behavior.
func TestConstructorValidation(t *testing.T) {
	if _, err := splitbft.NewCluster(5); err == nil {
		t.Error("NewCluster(5) accepted a group size that is not 3f+1")
	}
	if _, err := splitbft.NewNode(0); err == nil {
		t.Error("NewNode without a transport succeeded")
	}
	if _, err := splitbft.NewNode(0, splitbft.WithTransportTCP(":1", ":2", ":3", ":4")); err == nil {
		t.Error("TCP NewNode without WithKeySeed succeeded")
	}
	if _, err := splitbft.NewClient(9, splitbft.WithTransportTCP(":1", ":2", ":3", ":4")); err == nil {
		t.Error("TCP NewClient without WithKeySeed succeeded")
	}
	if _, err := splitbft.NewNode(7, splitbft.WithTransportTCP(":1", ":2", ":3", ":4"), splitbft.WithKeySeed([]byte("s"))); err == nil {
		t.Error("NewNode accepted an out-of-range replica ID")
	}
}

// TestClusterGuards pins the misuse guards: duplicate client IDs are
// rejected (a duplicate would hijack the first client's endpoint on the
// simulated network), and a stopped node refuses to restart (its broker
// threads terminate permanently).
func TestClusterGuards(t *testing.T) {
	cluster, err := splitbft.NewCluster(4, splitbft.WithBatchSize(1), splitbft.WithNetworkSeed(14))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if _, err := cluster.NewClient(100); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewClient(100); err == nil {
		t.Error("duplicate client ID accepted — it would hijack the first client's replies")
	}

	node := cluster.Node(3)
	node.Stop()
	if err := node.Start(); err == nil {
		t.Error("Start after Stop succeeded — the node would silently drop all messages")
	}
}

// TestPublicSurfaceImports is the in-repo guard behind the CI check: the
// cmd/ binaries and examples/ are the library's consumers, so they must
// compile against the public splitbft surface only — no internal/
// packages.
func TestPublicSurfaceImports(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if strings.Contains(p, "/internal/") || strings.HasSuffix(p, "/internal") {
					t.Errorf("%s imports %s — cmd/ and examples/ must use only the public splitbft surface", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
