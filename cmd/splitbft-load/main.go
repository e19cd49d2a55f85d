// Command splitbft-load drives a SplitBFT deployment with the open-loop,
// coordinated-omission-safe generator from experiments/load and emits a
// versioned JSON result suitable for the committed perf trajectory.
//
//	splitbft-load -rate 300 -duration 10s                 # in-process cluster
//	splitbft-load -rate 300 -auth mac -json out.json      # MAC fast path
//	splitbft-load -peers ":7000,:7001,:7002,:7003" ...    # real TCP replicas
//	splitbft-load -json cur.json -compare perf/BENCH_load_sig.json
//
// Without -peers it spins up an in-process 3f+1 cluster (the simulated-
// enclave deployment the benchmark suite uses); with -peers it connects to
// already-running splitbft-replica processes over TCP. -mode closed runs
// the coordinated-omission-PRONE closed loop for comparison. -compare
// gates the fresh run against a committed trajectory point with a noise
// band and exits non-zero on a hard regression.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/experiments/load"
)

func main() {
	mode := flag.String("mode", "open", "generator mode: open (CO-safe) or closed (comparison only)")
	rate := flag.Float64("rate", 300, "open-loop target arrival rate, ops/s")
	arrival := flag.String("arrival", "fixed", "arrival process: poisson or fixed (fixed for calibrated regression runs)")
	duration := flag.Duration("duration", 10*time.Second, "measurement window")
	warmup := flag.Duration("warmup", 2*time.Second, "untimed ramp-up before the window")
	inflight := flag.Int("inflight", 64, "max concurrent outstanding ops")
	queue := flag.Int("queue", 256, "dispatch-queue depth beyond the in-flight bound")
	nclients := flag.Int("clients", 4, "client connections to fan ops over")
	payload := flag.Int("payload", 10, "PUT value size in bytes")
	seed := flag.Int64("seed", 1, "arrival-schedule seed")

	readFrac := flag.Float64("read-frac", 0, "fraction of ops issued as GETs (0.9 = a 90/10 read/write mix)")
	readLeases := flag.Bool("read-leases", false, "enable the lease-anchored local read fast path")
	readConsistency := flag.String("read-consistency", "linearizable", "leased-read consistency: linearizable or session")

	auth := flag.String("auth", "", "agreement authentication: sig or mac; empty is sig in classic and mac in trusted consensus")
	consensus := flag.String("consensus", "classic", "consensus mode: classic (3f+1) or trusted (counter-backed 2f+1)")
	batch := flag.Int("batch", 1, "agreement batch size")
	confidential := flag.Bool("confidential", false, "end-to-end encrypt payloads")

	peers := flag.String("peers", "", "comma-separated replica addresses; empty = in-process cluster")
	n := flag.Int("n", 4, "replica count for the in-process cluster")
	secret := flag.String("secret", "splitbft-dev-secret", "shared deployment secret (TCP mode)")

	jsonPath := flag.String("json", "", "write the versioned result JSON here")
	compare := flag.String("compare", "", "committed trajectory point to gate against")
	band := flag.Float64("band", 0.15, "noise band for -compare (0.15 = ±15%)")
	stageBreakdown := flag.Bool("stage-breakdown", false, "trace request lifecycles and report per-stage latency (in-process cluster only); the JSON result gains an optional stages section")
	flag.Parse()

	wl := load.Workload{
		Transport:    "inproc",
		App:          "kvs",
		Auth:         *auth,
		Confidential: *confidential,
		BatchSize:    *batch,
		ReadFrac:     *readFrac,
		ReadLeases:   *readLeases,
	}
	opts := []splitbft.Option{
		splitbft.WithKVStore(),
		splitbft.WithAgreementAuth(*auth),
		splitbft.WithBatchSize(*batch),
		splitbft.WithReadLeases(*readLeases),
		splitbft.WithReadConsistency(*readConsistency),
	}
	if *consensus == "trusted" {
		// Workload.Consensus stays empty for classic runs so trajectory
		// points committed before the mode existed keep matching.
		wl.Consensus = "trusted"
		opts = append(opts, splitbft.WithConsensusMode("trusted"))
		if *peers == "" && !flagSet("n") {
			*n = 3 // trusted groups are 2f+1; shrink the in-process default
		}
	}
	if *confidential {
		opts = append(opts, splitbft.WithConfidential())
	}
	if *stageBreakdown {
		if *peers != "" {
			// TCP replicas run in other processes; scrape their /metrics
			// endpoints (splitbft-replica -metrics-addr) instead.
			fatalf("-stage-breakdown needs the in-process cluster (drop -peers, or scrape the replicas' -metrics-addr endpoints)")
		}
		opts = append(opts, splitbft.WithObservability())
	}

	var invokers []load.Invoker
	var cluster *splitbft.Cluster
	if *peers == "" {
		var err error
		cluster, err = splitbft.NewCluster(*n, opts...)
		if err != nil {
			fatalf("start cluster: %v", err)
		}
		defer cluster.Close()
		for i := 0; i < *nclients; i++ {
			cl, err := cluster.NewClient(uint32(100 + i))
			if err != nil {
				fatalf("client %d: %v", i, err)
			}
			if err := cl.Attest(); err != nil {
				fatalf("client %d attestation: %v", i, err)
			}
			invokers = append(invokers, cl)
		}
	} else {
		wl.Transport = "tcp"
		addrs := splitbft.SplitAddrs(*peers)
		tcpOpts := append(opts,
			splitbft.WithTransportTCP(addrs...),
			splitbft.WithKeySeed([]byte(*secret)))
		for i := 0; i < *nclients; i++ {
			cl, err := splitbft.NewClient(uint32(100+i), tcpOpts...)
			if err != nil {
				fatalf("client %d: %v", i, err)
			}
			defer cl.Close()
			if err := cl.Attest(); err != nil {
				fatalf("client %d attestation: %v", i, err)
			}
			invokers = append(invokers, cl)
		}
	}

	value := make([]byte, *payload)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	cfg := load.Config{
		Rate:        *rate,
		Arrival:     load.Arrival(*arrival),
		Warmup:      *warmup,
		Duration:    *duration,
		MaxInFlight: *inflight,
		QueueDepth:  *queue,
		Clients:     invokers,
		MakeOp: func(worker int, seq uint64) []byte {
			// One key per worker: overwrites keep the KVS flat while every
			// op still traverses full agreement.
			return splitbft.EncodePut(fmt.Sprintf("load-w%d", worker), value)
		},
		MakeRead: func(worker int, seq uint64) []byte {
			// Reads target the same per-worker key the writes churn, so a
			// mixed run exercises real read-after-write traffic rather
			// than cold misses.
			return splitbft.EncodeGet(fmt.Sprintf("load-w%d", worker))
		},
		ReadFrac:   *readFrac,
		Payload:    *payload,
		Seed:       *seed,
		ClosedLoop: *mode == "closed",
	}
	if *mode != "open" && *mode != "closed" {
		fatalf("unknown -mode %q (want open or closed)", *mode)
	}

	fmt.Printf("splitbft-load: %s loop, %s transport, auth=%s, target %.0f ops/s, window %v (+%v warmup)\n",
		*mode, wl.Transport, *auth, *rate, *duration, *warmup)
	st, err := load.Run(cfg)
	if err != nil {
		fatalf("run: %v", err)
	}
	res := load.NewResult(cfg, st, wl)
	if *stageBreakdown && cluster != nil {
		res.Stages = load.NodeStages(cluster.Node(0))
	}
	printResult(st, res)
	if len(res.Stages) > 0 {
		fmt.Printf("stage latency breakdown (primary's view):\n%s", load.FormatStages(res.Stages))
	}

	if *jsonPath != "" {
		if err := load.WriteResult(*jsonPath, res); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *compare != "" {
		prev, err := load.ReadResult(*compare)
		if err != nil {
			fatalf("%v", err)
		}
		report := load.CompareTrajectory(prev, res, *band)
		fmt.Print(report.String())
		if !report.Pass() {
			os.Exit(1)
		}
	}
}

func printResult(st load.Stats, res load.Result) {
	fmt.Printf("offered  %6d ops (%.0f ops/s)\n", res.Offered, res.OfferedRate)
	fmt.Printf("achieved %6d ops (%.0f ops/s), %d dropped, %d errors\n",
		res.Achieved, res.AchievedRate, res.Dropped, res.Errors)
	fmt.Printf("latency  mean %v  p50 %v  p90 %v  p95 %v  p99 %v  p99.9 %v  max %v\n",
		res.Latency.Mean.Round(time.Microsecond),
		res.Latency.P50.Round(time.Microsecond),
		res.Latency.P90.Round(time.Microsecond),
		res.Latency.P95.Round(time.Microsecond),
		res.Latency.P99.Round(time.Microsecond),
		res.Latency.P999.Round(time.Microsecond),
		res.Latency.Max.Round(time.Microsecond))
	if res.ReadLatency != nil {
		fmt.Printf("reads    %6d ops (%.0f ops/s)  p50 %v  p99 %v  max %v\n",
			res.ReadOps, res.ReadRate,
			res.ReadLatency.P50.Round(time.Microsecond),
			res.ReadLatency.P99.Round(time.Microsecond),
			res.ReadLatency.Max.Round(time.Microsecond))
		fmt.Printf("writes   %6d ops (%.0f ops/s)  p50 %v  p99 %v  max %v\n",
			res.WriteOps, res.WriteRate,
			res.WriteLatency.P50.Round(time.Microsecond),
			res.WriteLatency.P99.Round(time.Microsecond),
			res.WriteLatency.Max.Round(time.Microsecond))
	}
	if st.TailWait > 0 {
		fmt.Printf("drain    %v past the window (in-flight completions)\n", st.TailWait.Round(time.Millisecond))
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "splitbft-load: "+format+"\n", args...)
	os.Exit(1)
}
