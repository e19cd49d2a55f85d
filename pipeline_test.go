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
// Each replica runs its compartments on one dispatcher (WithSingleThread):
// with three per replica, twelve CPU-bound dispatchers share the machine
// with everything else, and one starved of the CPU for a detector period
// makes its replica suspect.
func TestConcurrentInvokesNoSpuriousSuspicion(t *testing.T) {
	const clients, inFlight = 3, 32
	rounds := 4
	opts := []splitbft.Option{
		splitbft.WithBatchSize(1),
		splitbft.WithSingleThread(),
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

// refused reads a node's splitbft_batches_refused_total series for reason.
func refused(t *testing.T, n *splitbft.Node, reason string) float64 {
	t.Helper()
	v, ok := metricValue(t, n, `splitbft_batches_refused_total{reason="`+reason+`"}`)
	if !ok {
		t.Fatalf("no refusal series for reason %q", reason)
	}
	return v
}

// TestFullWindowRefusalsNoResend: 400 Puts in flight at batch size 1 fill
// the primary's window (256 slots at the default checkpoint interval of
// 128) faster than checkpoints stabilize. Preparation refuses what it cannot
// propose, and the primary's environment offers it again once a checkpoint
// has moved the window, so no request waits for its client. The retransmit
// interval is 5 s and RequestTimeout 10 s (30 s and 60 s under the race
// detector), far above the time 400 requests take to drain, so queueing
// alone cannot cause a resend or a suspicion: any resend is a request the
// primary lost.
func TestFullWindowRefusalsNoResend(t *testing.T) {
	const clients, inFlight = 4, 100
	timeout := 5 * time.Second
	if raceDetector {
		timeout *= 6
	}
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithBatchSize(1),
		splitbft.WithRequestTimeout(2*timeout),
		splitbft.WithRetransmitInterval(timeout),
		splitbft.WithInvokeTimeout(4*timeout),
		splitbft.WithObservability(),
		splitbft.WithNetworkSeed(43),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	var failed atomic.Int64
	var cls []*splitbft.Client
	for c := 0; c < clients; c++ {
		cl, err := cluster.NewClient(uint32(400 + c))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cls = append(cls, cl)
		for g := 0; g < inFlight; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.Put(fmt.Sprintf("c%d-g%d", c, g), []byte("v")); err != nil {
					failed.Add(1)
				}
			}()
		}
	}
	wg.Wait()
	var resends, suspects uint64
	for _, cl := range cls {
		resends += cl.Resends()
	}
	for _, node := range cluster.Nodes() {
		suspects += node.Suspects()
	}
	window := refused(t, cluster.Node(0), "window")
	t.Logf("%v window refusals at the primary", window)
	if window == 0 {
		t.Error("400 requests in flight never filled the window")
	}
	if resends != 0 || failed.Load() != 0 || suspects != 0 {
		t.Fatalf("%d client resends, %d failed Invokes and %d suspects", resends, failed.Load(), suspects)
	}
}

// TestNewPrimaryFenceHoldsWrites: with read leases on, a new primary fences
// writes for 2.5×TTL after its view change. Its Preparation refuses the
// batches offered meanwhile and its environment offers them again when the
// fence lifts, so writes issued during the fence complete after it without
// a client resend (the retransmit interval, 10 s, outlasts detection, view
// change and fence many times over).
func TestNewPrimaryFenceHoldsWrites(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithReadLeases(true),
		splitbft.WithRequestTimeout(400*time.Millisecond), // TTL 100 ms, fence 250 ms
		splitbft.WithRetransmitInterval(10*time.Second),
		splitbft.WithInvokeTimeout(20*time.Second),
		splitbft.WithBatchSize(1),
		splitbft.WithObservability(),
		splitbft.WithNetworkSeed(44),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(440)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put("warm", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Depose the primary: with its Preparation enclave dead the first write
	// waits out the failure detector, and replica 1 takes over in view 1.
	cluster.Node(0).CrashEnclave(splitbft.RolePreparation)
	var wg sync.WaitGroup
	var failed atomic.Int64
	put := func(key string) {
		defer wg.Done()
		if _, err := cl.Put(key, []byte("v")); err != nil {
			failed.Add(1)
		}
	}
	wg.Add(1)
	go put("trigger")
	// A fence refusal at replica 1 shows the fence is up: write into it.
	for deadline := time.Now().Add(10 * time.Second); refused(t, cluster.Node(1), "fence") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("replica 1 never refused a batch at its fence")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go put(fmt.Sprintf("fenced-%d", i))
	}
	wg.Wait()
	if failed.Load() != 0 || cl.Resends() != 0 {
		t.Fatalf("%d failed writes and %d client resends across the fence", failed.Load(), cl.Resends())
	}
}
