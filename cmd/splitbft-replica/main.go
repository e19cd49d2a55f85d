// Command splitbft-replica runs one SplitBFT replica over TCP.
//
// A four-replica local deployment:
//
//	splitbft-replica -id 0 -listen :7000 -peers ":7000,:7001,:7002,:7003" &
//	splitbft-replica -id 1 -listen :7001 -peers ":7000,:7001,:7002,:7003" &
//	splitbft-replica -id 2 -listen :7002 -peers ":7000,:7001,:7002,:7003" &
//	splitbft-replica -id 3 -listen :7003 -peers ":7000,:7001,:7002,:7003" &
//
// All replicas and clients of one deployment must share -secret: it seeds
// the deterministic enclave keys and client MAC keys, standing in for the
// attestation-based key-exchange ceremony of a real SGX deployment.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/splitbft/splitbft"
)

func main() {
	id := flag.Uint("id", 0, "replica ID in [0, n)")
	n := flag.Int("n", 4, "number of replicas (3f+1, or 2f+1 in trusted consensus)")
	f := flag.Int("f", 1, "fault threshold")
	listen := flag.String("listen", "", "listen address (default: own entry in -peers)")
	peers := flag.String("peers", "", "comma-separated replica addresses, indexed by ID")
	secret := flag.String("secret", "splitbft-dev-secret", "shared deployment secret")
	appName := flag.String("app", "kvs", "application: kvs or blockchain")
	confidential := flag.Bool("confidential", true, "end-to-end encrypt client payloads")
	simulation := flag.Bool("simulation", false, "SGX simulation mode (no transition cost)")
	singleThread := flag.Bool("single-thread", false, "serialize all ecalls through one thread")
	batch := flag.Int("batch", splitbft.DefaultBatchSize, "batch size (1 disables batching)")
	auth := flag.String("auth", "", "agreement authentication: sig (Ed25519 baseline) or mac (pairwise-HMAC fast path); empty is sig in classic and mac in trusted consensus; must match across the deployment")
	consensus := flag.String("consensus", "classic", "consensus mode: classic (3f+1) or trusted (counter-backed 2f+1); must match across the deployment")
	dataDir := flag.String("data-dir", "", "sealed durability directory: per-compartment WAL + snapshots; the replica recovers from it on start (empty = in-memory only)")
	stats := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP introspection endpoint: /metrics, /healthz, /debug/trace (\":0\" picks a free port; empty disables observability)")
	flag.Parse()

	addrs := splitbft.SplitAddrs(*peers)
	if len(addrs) != *n {
		fatalf("need exactly %d -peers entries, got %d", *n, len(addrs))
	}

	opts := []splitbft.Option{
		splitbft.WithTransportTCP(addrs...),
		splitbft.WithFaults(*f),
		splitbft.WithKeySeed([]byte(*secret)),
		splitbft.WithBatchSize(*batch),
	}
	switch *appName {
	case "kvs":
		opts = append(opts, splitbft.WithKVStore())
	case "blockchain":
		opts = append(opts, splitbft.WithBlockchain(splitbft.DefaultBlockSize))
	default:
		fatalf("unknown app %q", *appName)
	}
	if *confidential {
		opts = append(opts, splitbft.WithConfidential())
	}
	if *simulation {
		opts = append(opts, splitbft.WithCostModel(splitbft.SimulationCostModel()))
	}
	if *singleThread {
		opts = append(opts, splitbft.WithSingleThread())
	}
	if *auth != "" {
		opts = append(opts, splitbft.WithAgreementAuth(*auth))
	}
	if *consensus != "" {
		opts = append(opts, splitbft.WithConsensusMode(*consensus))
	}
	if *dataDir != "" {
		opts = append(opts, splitbft.WithPersistence(*dataDir))
	}
	if *listen != "" {
		opts = append(opts, splitbft.WithListenAddr(*listen))
	}
	if *metricsAddr != "" {
		opts = append(opts, splitbft.WithMetricsAddr(*metricsAddr))
	}

	node, err := splitbft.NewNode(uint32(*id), opts...)
	if err != nil {
		fatalf("create replica: %v", err)
	}
	if rs := node.RecoveryStats(); rs.Snapshots > 0 || rs.WALRecords > 0 {
		fmt.Printf("splitbft-replica %d recovered: %d sealed snapshots, %d WAL records replayed in %v (%.0f ops/s)\n",
			*id, rs.Snapshots, rs.WALRecords, rs.Total, rs.ReplayOpsPerSec())
	}
	if err := node.Start(); err != nil {
		fatalf("start: %v", err)
	}
	fmt.Printf("splitbft-replica %d listening on %s (app=%s, confidential=%v)\n",
		*id, node.Addr(), *appName, *confidential)
	if ma := node.MetricsAddr(); ma != "" {
		fmt.Printf("splitbft-replica %d metrics on http://%s/metrics\n", *id, ma)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if *stats > 0 {
		ticker := time.NewTicker(*stats)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				shutdown(node)
				return
			case <-ticker.C:
				printStats(node)
			}
		}
	}
	<-stop
	shutdown(node)
}

func printStats(node *splitbft.Node) {
	es := node.EnclaveStats()
	fmt.Printf("ops=%d batches=%d suspects=%d ecalls[prep=%d conf=%d exec=%d]\n",
		node.ExecutedOps(), node.Batches(), node.Suspects(),
		es[0].Count, es[1].Count, es[2].Count)
}

func shutdown(node *splitbft.Node) {
	fmt.Println("shutting down")
	node.Stop()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "splitbft-replica: "+format+"\n", args...)
	os.Exit(1)
}
