package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"github.com/splitbft/splitbft"
)

// env stamps a results file with what produced it; a number without its
// machine, commit and cost model cannot be compared with another.
type env struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataDirFS  string `json:"data_dir_fs"`
	CostModel  string `json:"cost_model"`
	Network    string `json:"network"`
}

func collectEnv() env {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	cm := splitbft.DefaultCostModel()
	return env{
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDirFS:  fsType(os.TempDir()),
		CostModel:  fmt.Sprintf("DefaultCostModel %+v, simulated TEE (spin-wait transitions, no real SGX)", cm),
		Network:    "no message delay injected: SimNet instant delivery or kernel loopback, so latency is processor and scheduler time only",
	}
}

// fsType names the filesystem holding dir, which decides what an fsync
// costs on the persistent workload.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// lastLine is the benchmark contract's result object.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print lists every metric of r by name with its unit, then the result
// object restricted to the names declared in BENCHMARK.json.
func (r *result) print(declared []string) error {
	for _, name := range r.names {
		m := r.Metrics[name]
		fmt.Printf("%-14s %-36s %14.4f %s\n", r.Workload, name, m.Value, m.Unit)
	}
	for _, p := range r.Passes {
		fmt.Printf("# %-12s %s\n", r.Workload, p)
	}
	for _, v := range r.Violations {
		fmt.Printf("%-14s VIOLATION %s\n", r.Workload, v)
	}
	line := lastLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metric)}
	for _, name := range declared {
		m, ok := r.Metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured (did a pass complete nothing?)", r.Workload, name)
		}
		line.Metrics[name] = m
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func (m *manifest) endToEndNames() []string {
	var out []string
	for _, e := range m.EndToEnd {
		out = append(out, e.Name)
	}
	return out
}

func (m *manifest) perLayerNames() []string {
	var out []string
	for _, e := range m.PerLayer {
		out = append(out, e.Name)
	}
	return out
}

// writeResults writes the stamped results file of this invocation.
func writeResults(dir string, e env, runs []*result) error {
	data, err := json.MarshalIndent(struct {
		Env  env       `json:"env"`
		Runs []*result `json:"runs"`
	}{e, runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644)
}

// runSuite runs each workload end to end (trace 0), per layer (trace 1) or
// both, and returns the exit code: non-zero if any gate failed.
func runSuite(selected []workload, cfg config, m *manifest, trace int) int {
	e := collectEnv()
	fmt.Printf("# %s; GOMAXPROCS %d of %d CPUs; %s\n", e.Network, e.GOMAXPROCS, e.NumCPU, e.CostModel)
	var runs []*result
	code := 0
	for _, w := range selected {
		var r *result
		var declared []string
		if trace != 1 {
			var err error
			if r, err = runEndToEnd(w, cfg); err != nil {
				fatal(err)
			}
			declared = m.endToEndNames()
		}
		if trace != 0 {
			lr, err := runLayers(w, cfg)
			if err != nil {
				fatal(err)
			}
			if r == nil {
				r = lr
			} else {
				r.merge(lr)
			}
			declared = append(declared, m.perLayerNames()...)
		}
		if err := r.print(declared); err != nil {
			fatal(err)
		}
		if !r.Correct {
			code = 1
		}
		runs = append(runs, r)
	}
	if err := writeResults(cfg.out, e, runs); err != nil {
		fatal(err)
	}
	return code
}

// merge folds a per-layer run of the same workload into an end-to-end one.
func (r *result) merge(o *result) {
	for _, name := range o.names {
		m := o.Metrics[name]
		r.set(name, m.Unit, m.Value)
	}
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Violations = append(r.Violations, o.Violations...)
	r.Passes = append(r.Passes, o.Passes...)
}

// runRepeat is the repeatability mode: n end-to-end runs per workload on
// consecutive seeds, then min / median / max of every metric and the
// spread between its quartiles as a share of the median, against the
// metric's bound. It exits non-zero if a spread exceeds its bound or a run
// was incorrect.
func runRepeat(selected []workload, cfg config, m *manifest, n int) int {
	if n < 2 {
		fatal(fmt.Errorf("-repeat needs at least 2 runs to measure a spread"))
	}
	code := 0
	var runs []*result
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			r, err := runEndToEnd(w, c)
			if err != nil {
				fatal(err)
			}
			if err := r.print(m.endToEndNames()); err != nil {
				fatal(err)
			}
			if !r.Correct || r.Failed > 0 {
				code = 1
			}
			for name, v := range r.Metrics {
				values[name] = append(values[name], v.Value)
			}
			runs = append(runs, r)
		}
		for _, e := range m.EndToEnd {
			v := sorted(values[e.Name])
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / median(v)
			verdict := "ok"
			// setup_s is exempt: its spread is not part of the acceptance
			// rule, only a shift of its median is.
			if spread > e.Bound && e.Name != "setup_s" {
				verdict = "SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("repeat %-14s %-14s min %10.4f median %10.4f max %10.4f %-5s spread %6.2f %% of bound %5.1f %%  %s\n",
				w.name, e.Name, v[0], median(v), v[len(v)-1], e.Unit, 100*spread, 100*e.Bound, verdict)
		}
	}
	if err := writeResults(cfg.out, collectEnv(), runs); err != nil {
		fatal(err)
	}
	return code
}
