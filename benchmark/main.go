// Command benchmark is the repository's yardstick: four workloads, the
// end-to-end metrics an operator sees, and per-layer attribution measured
// from outside the program. BENCHMARK.json at the repository root names
// the metrics and bounds; README.md in this directory defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// manifest is the part of BENCHMARK.json the program reads: it is the one
// place that names what the last output line carries and what each
// end-to-end metric may lose before a change counts as a regression.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var firstErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

func main() {
	var (
		name         = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the arrival schedule and key sequence")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		repeat       = flag.Int("repeat", 0, "run the end-to-end suite N times with seeds seed..seed+N-1 and check the spread against the bounds")
		out          = flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.json and trace-<workload>.jsonl")
		manifestPath = flag.String("manifest", "", "path of BENCHMARK.json (default: ./ then ../)")
	)
	flag.Parse()
	m, err := loadManifest(*manifestPath)
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, setups: 3, out: *out}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(m.RunSeconds)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		os.Exit(runRepeat(selected, cfg, m, *repeat))
	}
	os.Exit(runSuite(selected, cfg, m, *trace))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
