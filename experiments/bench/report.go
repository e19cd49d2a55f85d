package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// EnvelopeSchema versions the machine-readable benchmark file format.
// Bump it when the envelope shape changes incompatibly; trajectory tooling
// refuses files whose schema it does not understand rather than
// misinterpreting them.
const EnvelopeSchema = "splitbft-bench/v1"

// Envelope is the on-disk shape of a BENCH_<exp>.json file: the raw
// experiment results wrapped with a schema tag and the environment
// metadata that makes trajectory points comparable across machines and
// PRs.
type Envelope struct {
	Schema  string `json:"schema"`
	Exp     string `json:"exp"`
	Env     Env    `json:"env"`
	Results any    `json:"results"`
}

// WriteJSON writes one experiment's results as indented JSON to
// dir/BENCH_<exp>.json (creating dir if needed) and returns the path —
// the machine-readable sibling of the Format* renderers. Results are
// wrapped in a versioned Envelope with environment metadata so the files
// can be committed under perf/, not just uploaded as throwaway CI
// artifacts.
func WriteJSON(dir, exp string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: json output dir: %w", err)
	}
	env := Envelope{Schema: EnvelopeSchema, Exp: exp, Env: CollectEnv(), Results: v}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal %s results: %w", exp, err)
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return path, nil
}

// FormatFigure3 renders a sweep as the two panels of Figure 3: throughput
// (ops/s) and latency (ms) per client count, one column per system.
func FormatFigure3(series map[System][]Result, clients []int, batched bool) string {
	var sb strings.Builder
	label := "Figure 3(a) — not batched"
	if batched {
		label = "Figure 3(b) — batched (200 / 10ms, 40 outstanding per client)"
	}
	systems := AllSystems()
	if batched {
		// The paper's 3(b) omits the simulation/single-thread series.
		systems = []System{SplitKVS, PBFTKVS, SplitBlockchain, PBFTBlockchain}
	}

	sb.WriteString(label + "\n\nThroughput (ops/s)\n")
	fmt.Fprintf(&sb, "%-9s", "#clients")
	for _, sys := range systems {
		fmt.Fprintf(&sb, " %26s", sys)
	}
	sb.WriteString("\n")
	for i, c := range clients {
		fmt.Fprintf(&sb, "%-9d", c)
		for _, sys := range systems {
			rs := series[sys]
			if i < len(rs) {
				fmt.Fprintf(&sb, " %26.0f", rs[i].Throughput)
			} else {
				fmt.Fprintf(&sb, " %26s", "-")
			}
		}
		sb.WriteString("\n")
	}

	sb.WriteString("\nLatency (ms, mean)\n")
	fmt.Fprintf(&sb, "%-9s", "#clients")
	for _, sys := range systems {
		fmt.Fprintf(&sb, " %26s", sys)
	}
	sb.WriteString("\n")
	for i, c := range clients {
		fmt.Fprintf(&sb, "%-9d", c)
		for _, sys := range systems {
			rs := series[sys]
			if i < len(rs) {
				fmt.Fprintf(&sb, " %26.2f", float64(rs[i].MeanLat)/float64(time.Millisecond))
			} else {
				fmt.Fprintf(&sb, " %26s", "-")
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatFigure4 renders the per-compartment ecall profile for the leader,
// batched and unbatched, as in Figure 4.
func FormatFigure4(unbatched, batched Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 4 — mean ecall latency per compartment (leader, KVS, 40 clients)\n\n")
	fmt.Fprintf(&sb, "%-12s %-14s %-12s %-12s\n", "Mode", "Compartment", "Mean ecall", "Calls")
	sb.WriteString(strings.Repeat("-", 54) + "\n")
	for _, pair := range []struct {
		mode string
		res  Result
	}{{"Not Batched", unbatched}, {"Batched", batched}} {
		for _, cs := range pair.res.Compartments {
			fmt.Fprintf(&sb, "%-12s %-14s %-12s %-12d\n", pair.mode, cs.Name, cs.Mean.Round(time.Microsecond), cs.Calls)
		}
	}
	return sb.String()
}

// SpeedupVsBaseline returns the SplitBFT-to-PBFT throughput ratio per
// client count: the headline overhead numbers of §6 (e.g. unbatched KVS
// 43–74 %).
func SpeedupVsBaseline(split, baseline []Result) []float64 {
	n := len(split)
	if len(baseline) < n {
		n = len(baseline)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if baseline[i].Throughput == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, split[i].Throughput/baseline[i].Throughput)
	}
	return out
}
