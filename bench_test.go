package splitbft_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/splitbft/splitbft/experiments/bench"
	"github.com/splitbft/splitbft/experiments/faultmodel"
	"github.com/splitbft/splitbft/experiments/loc"
)

// This file holds one benchmark per table and figure of the paper's
// evaluation (§6). The full sweeps (all client counts, 1 s windows) run
// via `go run ./cmd/splitbft-bench`; these testing.B versions use a fixed
// 40-client point and short windows so `go test -bench=.` completes in
// minutes while still reporting the shapes (SplitBFT vs PBFT throughput
// ratio, compartment ecall profile).

// benchPoint runs one experiment point and reports throughput and latency
// as benchmark metrics.
func benchPoint(b *testing.B, sys bench.System, clients int, batched bool) bench.Result {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.RunConfig{
			System:  sys,
			Clients: clients,
			Batched: batched,
			Warmup:  200 * time.Millisecond,
			Measure: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Throughput, "ops/s")
	b.ReportMetric(float64(last.MeanLat)/1e6, "ms/op-mean")
	b.ReportMetric(float64(last.P99Lat)/1e6, "ms/op-p99")
	return last
}

// BenchmarkTable1FaultModel regenerates the Table 1 comparison.
func BenchmarkTable1FaultModel(b *testing.B) {
	var rows []faultmodel.Row
	for i := 0; i < b.N; i++ {
		rows = faultmodel.Table1(1)
	}
	if len(rows) != 3 {
		b.Fatalf("table has %d rows", len(rows))
	}
	b.Logf("\n%s", faultmodel.FormatTable(rows))
}

// BenchmarkTable2TCBSizes regenerates the Table 2 LOC analysis over this
// repository.
func BenchmarkTable2TCBSizes(b *testing.B) {
	var rows []loc.TableRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = loc.Table2(".")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", loc.FormatTable2(rows))
}

// Figure 3(a) — unbatched throughput/latency at the 40-client point, one
// sub-benchmark per series.
func BenchmarkFig3aUnbatched(b *testing.B) {
	results := make(map[bench.System]bench.Result)
	for _, sys := range bench.AllSystems() {
		sys := sys
		b.Run(sys.String(), func(b *testing.B) {
			results[sys] = benchPoint(b, sys, 40, false)
		})
	}
	if split, ok := results[bench.SplitKVS]; ok {
		if base, ok := results[bench.PBFTKVS]; ok && base.Throughput > 0 {
			b.Logf("SplitBFT/PBFT KVS throughput ratio @40 clients: %.2f (paper: 0.43-0.74)",
				split.Throughput/base.Throughput)
		}
	}
}

// Figure 3(b) — batched (200/10 ms, 40 outstanding per client).
func BenchmarkFig3bBatched(b *testing.B) {
	results := make(map[bench.System]bench.Result)
	for _, sys := range []bench.System{bench.SplitKVS, bench.PBFTKVS, bench.SplitBlockchain, bench.PBFTBlockchain} {
		sys := sys
		b.Run(sys.String(), func(b *testing.B) {
			results[sys] = benchPoint(b, sys, 40, true)
		})
	}
	if split, ok := results[bench.SplitKVS]; ok {
		if base, ok := results[bench.PBFTKVS]; ok && base.Throughput > 0 {
			b.Logf("SplitBFT/PBFT KVS throughput ratio @40 clients batched: %.2f (paper: ~0.64)",
				split.Throughput/base.Throughput)
		}
	}
}

// BenchmarkAblationTransitionCost sweeps the enclave-boundary cost on the
// SplitBFT KVS (0 = simulation mode; 8640 = HotCalls default; higher =
// conservative TEEs), isolating the share of overhead attributable to
// transitions (the paper estimates ~20%).
func BenchmarkAblationTransitionCost(b *testing.B) {
	var points []bench.TransitionCostPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = bench.TransitionCostAblation(
			[]uint64{0, 8640, 40000}, 8, 400*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Result.Throughput, fmt.Sprintf("ops/s-%dcyc", p.TransitionCycles))
	}
	b.Logf("\n%s", bench.FormatTransitionAblation(points))
}

// BenchmarkAblationBatchSize fills in the batching curve between the
// paper's two operating points (1 and 200).
func BenchmarkAblationBatchSize(b *testing.B) {
	var points []bench.BatchSizePoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = bench.BatchSizeAblation(
			[]int{10, 50, 200}, 8, 400*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Result.Throughput, fmt.Sprintf("ops/s-b%d", p.BatchSize))
	}
	b.Logf("\n%s", bench.FormatBatchAblation(points))
}

// Figure 4 — mean ecall latency per compartment on the leader with 40
// clients, batched and unbatched.
func BenchmarkFig4EcallLatency(b *testing.B) {
	for _, mode := range []struct {
		name    string
		batched bool
	}{{"NotBatched", false}, {"Batched", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					System:  bench.SplitKVS,
					Clients: 40,
					Batched: mode.batched,
					Warmup:  200 * time.Millisecond,
					Measure: 500 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			for _, cs := range last.Compartments {
				b.ReportMetric(float64(cs.Mean)/1e3, fmt.Sprintf("us/ecall-%s", cs.Name))
			}
			b.Logf("mode=%s compartments=%+v", mode.name, last.Compartments)
		})
	}
}

// BenchmarkAgreementAuth compares the Ed25519 baseline against the
// MAC-authenticated fast path (WithAgreementAuth) on the same cluster
// shape: the protocol and scheduling are identical, only the normal-case
// authentication primitive changes. The sig run also reports the verify-
// CPU fraction the MAC run removes.
func BenchmarkAgreementAuth(b *testing.B) {
	results := make(map[string]bench.Result)
	for _, mode := range []string{"sig", "mac"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					System:        bench.SplitKVS,
					Clients:       40,
					Batched:       false,
					Warmup:        200 * time.Millisecond,
					Measure:       500 * time.Millisecond,
					AgreementAuth: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Throughput, "ops/s")
			b.ReportMetric(float64(last.MeanLat)/1e6, "ms/op-mean")
			b.ReportMetric(float64(last.SigVerifies), "sig-verifies")
			b.ReportMetric(100*last.SigCPUFraction, "verify-cpu-%")
			results[mode] = last
		})
	}
	sig, mac := results["sig"], results["mac"]
	if sig.Throughput > 0 && mac.Throughput > 0 {
		b.Logf("MAC fast path speedup: %.2fx (%.0f -> %.0f ops/s; sig run spent %.0f%% of the window in Ed25519 verify)",
			mac.Throughput/sig.Throughput, sig.Throughput, mac.Throughput, 100*sig.SigCPUFraction)
	}
}
