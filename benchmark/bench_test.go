package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload both ways with one-second runs and holds
// the output against BENCHMARK.json: the workloads carry the declared
// names, every declared metric is measured on every workload with the
// declared unit, every emitted name is well-formed, the gates pass, and
// the traced pass leaves a span file.
func TestSmoke(t *testing.T) {
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	cfg := config{seed: 1, seconds: 1, setups: 1, out: t.TempDir()}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, m.Workloads[i].Name, w.name)
		}
		endToEnd, err := runEndToEnd(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := runLayers(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*result{endToEnd, layers} {
			if !r.Correct || r.Failed > 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d violations=%v", w.name, r.Correct, r.Attempted, r.Failed, r.Violations)
			}
			for name, v := range r.Metrics {
				if !wellFormed.MatchString(name) || v.Unit == "" {
					t.Errorf("%s: metric %q (unit %q) is not well-formed", w.name, name, v.Unit)
				}
			}
		}
		for _, e := range m.EndToEnd {
			if got, ok := endToEnd.Metrics[e.Name]; !ok || got.Unit != e.Unit || !(got.Value > 0) {
				t.Errorf("%s: end-to-end metric %s: got %+v (measured %v), want a positive value in %s", w.name, e.Name, got, ok, e.Unit)
			}
		}
		for _, e := range m.PerLayer {
			if got, ok := layers.Metrics[e.Name]; !ok || got.Unit != e.Unit {
				t.Errorf("%s: per-layer metric %s: got %+v (measured %v), want unit %s", w.name, e.Name, got, ok, e.Unit)
			}
		}
		if st, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", w.name, err)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
