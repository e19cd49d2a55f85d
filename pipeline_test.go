package splitbft_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// runLedgerScenario drives a seeded 4-replica blockchain cluster through a
// fixed operation script — sequential transactions from one client with a
// forced view change in the middle — and returns the surviving replicas'
// final snapshots. The script is fully deterministic at the application
// level: one client issues transactions back to back (each waits for its
// reply quorum), and the view change is injected at a quiescent point, so
// the committed transaction sequence — and therefore every ledger byte and
// checkpoint (snapshot) digest — must be identical for any scheduling of
// the replica internals.
func runLedgerScenario(t *testing.T, opts ...splitbft.Option) [][]byte {
	t.Helper()
	base := []splitbft.Option{
		splitbft.WithBlockchain(4), // small blocks: several seal during the run
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(77),
		splitbft.WithKeySeed([]byte("pipeline-determinism")),
		splitbft.WithRequestTimeout(300 * time.Millisecond),
	}
	cluster, err := splitbft.NewCluster(4, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(500, splitbft.WithInvokeTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tx := func(i int) []byte { return []byte(fmt.Sprintf("tx-%02d", i)) }
	for i := 0; i < 8; i++ {
		if _, err := cl.Invoke(tx(i)); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	// Quiesce, then force a view change by partitioning the view-0
	// primary. Injecting at a quiescent point keeps the scenario
	// deterministic across schedulings: no slot is in flight, so the new
	// view re-proposes nothing and sequence numbers stay aligned.
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})
	cluster.Partition(0)
	if _, err := cl.Invoke(tx(8)); err != nil {
		t.Fatalf("tx across view change: %v", err)
	}
	for i := 9; i < 16; i++ {
		if _, err := cl.Invoke(tx(i)); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	// Replica 0 missed slots while partitioned and (below the checkpoint
	// interval) cannot state-transfer them back; compare the replicas that
	// ran the whole scenario.
	waitForAgreement(t, cluster, []int{1, 2, 3})
	var snaps [][]byte
	for _, id := range []int{1, 2, 3} {
		bc := cluster.Node(id).App().(*splitbft.Blockchain)
		if err := splitbft.VerifyChain(bc.Headers()); err != nil {
			t.Fatalf("replica %d chain: %v", id, err)
		}
		if bc.Height() != 4 { // 16 transactions, block size 4
			t.Fatalf("replica %d height = %d, want 4", id, bc.Height())
		}
		snaps = append(snaps, bc.Snapshot())
	}
	return snaps
}

// TestPipelineDeterminism is the safety check for the staged pipeline:
// coalesced ecalls must not be able to change any agreed byte. The default
// configuration (one dispatcher per compartment, each crossing delivering
// whatever is queued) and the paper's fully serialized single-thread
// configuration replay the same seeded scenario — including a forced view
// change — and every replica ledger snapshot must be byte-identical across
// replicas and across the two configurations.
func TestPipelineDeterminism(t *testing.T) {
	configs := []struct {
		name string
		opts []splitbft.Option
	}{
		{"default", nil},
		{"single thread", []splitbft.Option{splitbft.WithSingleThread()}},
	}
	var reference []byte
	for _, c := range configs {
		snaps := runLedgerScenario(t, c.opts...)
		for i := 1; i < len(snaps); i++ {
			if !bytes.Equal(snaps[i], snaps[0]) {
				t.Fatalf("%s: replicas diverged: snapshot %d != snapshot 0", c.name, i)
			}
		}
		if reference == nil {
			reference = snaps[0]
		} else if !bytes.Equal(snaps[0], reference) {
			t.Fatalf("%s: ledger differs from the %s ledger: dispatcher scheduling changed agreed state", c.name, configs[0].name)
		}
	}
}

// TestConcurrentInvokesNoSpuriousSuspicion: concurrent Invokes queue at a
// batch-1 primary, and a request that waits its turn behind the others has
// not failed. Three clients, each warmed up by one Put, keep 32 Puts in
// flight each for four rounds under a 150 ms failure detector. No replica
// may suspect the healthy primary and no Invoke may fail.
//
// Two settings keep the test about the failure detector. The primary
// proposes at most 256 slots past its stable checkpoint, which trails
// execution by up to a checkpoint interval plus the time the checkpoint
// takes to stabilize; at the default interval of 128 the 96 requests in
// flight leave too little of the window for that lag, and a batch the
// window drops waits for its client's retransmit, so checkpoints come every
// 16 slots. And each replica runs its compartments on one dispatcher
// (WithSingleThread): with three per replica, twelve CPU-bound dispatchers
// share the machine with everything else, and one starved of the CPU for a
// detector period makes its replica suspect.
func TestConcurrentInvokesNoSpuriousSuspicion(t *testing.T) {
	const clients, inFlight = 3, 32
	rounds := 4
	opts := []splitbft.Option{
		splitbft.WithBatchSize(1),
		splitbft.WithSingleThread(),
		splitbft.WithCheckpointInterval(16),
		splitbft.WithRequestTimeout(150 * time.Millisecond),
		splitbft.WithNetworkSeed(39),
	}
	if raceDetector {
		// The race detector slows every goroutine, and so the queue, more
		// than tenfold: the failure detector and the clients' retransmits
		// slow down with it, and two rounds keep the run short.
		opts = append(opts, splitbft.WithRequestTimeout(1500*time.Millisecond),
			splitbft.WithRetransmitInterval(5*time.Second))
		rounds = 2
	}
	cluster, err := splitbft.NewCluster(4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		cl, err := cluster.NewClient(uint32(300 + c))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Put(fmt.Sprintf("c%d-warm", c), []byte("v")); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < inFlight; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if _, err := cl.Put(fmt.Sprintf("c%d-g%d-r%d", c, g, r), []byte("v")); err != nil {
						failed.Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	var suspects uint64
	for _, node := range cluster.Nodes() {
		suspects += node.Suspects()
	}
	if suspects != 0 || failed.Load() != 0 {
		t.Fatalf("%d suspects over the nodes and %d failed Invokes under fault-free concurrent load", suspects, failed.Load())
	}
}
