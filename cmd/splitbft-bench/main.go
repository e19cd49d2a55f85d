// Command splitbft-bench regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4):
//
//	splitbft-bench -exp table1          # fault-model comparison
//	splitbft-bench -exp table2          # TCB sizes (LOC per enclave)
//	splitbft-bench -exp fig3a           # throughput/latency, unbatched
//	splitbft-bench -exp fig3b           # throughput/latency, batched
//	splitbft-bench -exp fig4            # per-compartment ecall latency
//	splitbft-bench -exp auth            # sig-vs-MAC agreement authentication
//	splitbft-bench -exp consensus       # classic-vs-trusted consensus mode
//	splitbft-bench -exp readlease       # local read fast path vs agreement reads
//	splitbft-bench -exp all             # everything
//
// Use -quick for a fast smoke run with fewer client counts and shorter
// measurement windows. With -json <dir>, each experiment additionally
// writes its raw results to <dir>/BENCH_<exp>.json for machine-readable
// perf trajectories.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/splitbft/splitbft/experiments/bench"
	"github.com/splitbft/splitbft/experiments/faultmodel"
	"github.com/splitbft/splitbft/experiments/loc"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig3a, fig3b, fig4, ablation, recovery, auth, consensus, readlease, all")
	quick := flag.Bool("quick", false, "fast smoke run (fewer clients, shorter windows)")
	f := flag.Int("f", 1, "fault threshold for table1")
	root := flag.String("root", ".", "repository root for table2")
	measure := flag.Duration("measure", time.Second, "measurement window per point")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_<exp>.json results into")
	trace := flag.Bool("trace", false, "enable request-lifecycle tracing and print per-stage latency tables (readlease experiment)")
	flag.Parse()

	run := func(name string, fn func() error) {
		fmt.Printf("=== %s ===\n\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	writeJSON := func(expName string, v any) error {
		if *jsonDir == "" {
			return nil
		}
		path, err := bench.WriteJSON(*jsonDir, expName, v)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	clients := []int{1, 10, 20, 40, 80, 120, 150}
	if *quick {
		clients = []int{1, 10, 40}
		if *measure == time.Second {
			*measure = 400 * time.Millisecond
		}
	}

	all := *exp == "all"
	if all || *exp == "table1" {
		run("Table 1 — fault-model comparison", func() error {
			fmt.Print(faultmodel.FormatTable(faultmodel.Table1(*f)))
			return nil
		})
	}
	if all || *exp == "table2" {
		run("Table 2 — TCB sizes", func() error {
			rows, err := loc.Table2(*root)
			if err != nil {
				return err
			}
			fmt.Print(loc.FormatTable2(rows))
			return nil
		})
	}
	if all || *exp == "fig3a" {
		run("Figure 3(a) — throughput & latency, not batched", func() error {
			series, err := runFigure3(clients, false, *measure)
			if err != nil {
				return err
			}
			return writeJSON("fig3a", series)
		})
	}
	if all || *exp == "fig3b" {
		run("Figure 3(b) — throughput & latency, batched", func() error {
			series, err := runFigure3(clients, true, *measure)
			if err != nil {
				return err
			}
			return writeJSON("fig3b", series)
		})
	}
	if all || *exp == "fig4" {
		run("Figure 4 — ecall latency per compartment", func() error {
			return runFigure4(*measure)
		})
	}
	if all || *exp == "auth" {
		run("Ablation — agreement authentication (sig vs MAC fast path)", func() error {
			authClients := 40
			if *quick {
				authClients = 10
			}
			pts, err := bench.AuthAblation(authClients, *measure)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatAuthAblation(pts))
			return writeJSON("auth", pts)
		})
	}
	if all || *exp == "consensus" {
		run("Ablation — consensus mode (classic vs trusted counter)", func() error {
			cClients := 40
			if *quick {
				cClients = 10
			}
			pts, err := bench.ConsensusAblation(cClients, *measure)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatConsensusAblation(pts))
			return writeJSON("consensus", pts)
		})
	}
	if all || *exp == "readlease" {
		run("Ablation — lease-anchored local reads (90/10 GET/PUT mix)", func() error {
			rClients := 40
			if *quick {
				rClients = 10
			}
			pts, err := bench.ReadLeaseAblation(rClients, *measure, *trace)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatReadLeaseAblation(pts))
			return writeJSON("readlease", pts)
		})
	}
	if all || *exp == "ablation" {
		run("Ablations — transition cost & batch size", func() error {
			tc, err := bench.TransitionCostAblation([]uint64{0, 4000, 8640, 20000, 40000}, 8, *measure)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatTransitionAblation(tc))
			fmt.Println()
			bs, err := bench.BatchSizeAblation([]int{1, 10, 50, 100, 200, 400}, 8, *measure)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatBatchAblation(bs))
			return nil
		})
	}
	if all || *exp == "recovery" {
		run("Ablation — crash recovery (sealed WAL + snapshots)", func() error {
			dir, err := os.MkdirTemp("", "splitbft-recovery-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			ops := 64
			if *quick {
				ops = 24
			}
			res, err := bench.RecoveryAblation(dir, ops)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatRecovery(res))
			return writeJSON("recovery", res)
		})
	}
}

func runFigure3(clients []int, batched bool, measure time.Duration) (map[bench.System][]bench.Result, error) {
	systems := bench.AllSystems()
	if batched {
		systems = []bench.System{bench.SplitKVS, bench.PBFTKVS, bench.SplitBlockchain, bench.PBFTBlockchain}
	}
	series := make(map[bench.System][]bench.Result)
	for _, sys := range systems {
		fmt.Printf("  running %s over %v clients...\n", sys, clients)
		rs, err := bench.Sweep(sys, clients, batched, measure)
		if err != nil {
			return nil, err
		}
		series[sys] = rs
	}
	fmt.Println()
	fmt.Print(bench.FormatFigure3(series, clients, batched))

	ratios := bench.SpeedupVsBaseline(series[bench.SplitKVS], series[bench.PBFTKVS])
	fmt.Printf("\nSplitBFT/PBFT KVS throughput ratio per client count: ")
	for _, r := range ratios {
		fmt.Printf("%.2f ", r)
	}
	fmt.Println()
	if bc, ok := series[bench.SplitBlockchain]; ok {
		ratios = bench.SpeedupVsBaseline(bc, series[bench.PBFTBlockchain])
		fmt.Printf("SplitBFT/PBFT Blockchain throughput ratio per client count: ")
		for _, r := range ratios {
			fmt.Printf("%.2f ", r)
		}
		fmt.Println()
	}
	return series, nil
}

func runFigure4(measure time.Duration) error {
	// Figure 4 uses 40 clients on the KVS, measured on the leader.
	unb, err := bench.Run(bench.RunConfig{System: bench.SplitKVS, Clients: 40, Batched: false, Measure: measure})
	if err != nil {
		return err
	}
	bat, err := bench.Run(bench.RunConfig{System: bench.SplitKVS, Clients: 40, Batched: true, Measure: measure})
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFigure4(unb, bat))
	return nil
}
