package load

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/splitbft/splitbft/experiments/bench"
)

// ResultSchema versions the on-disk load-result format. Trajectory tooling
// refuses files with a schema it does not understand.
const ResultSchema = "splitbft-load/v1"

// LatencySummary is the quantile digest of one run. Durations marshal as
// integer nanoseconds.
type LatencySummary struct {
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
}

// Workload echoes the system configuration a run measured, so a trajectory
// point is only ever compared against its like. Points committed before the
// verify-worker pool was deleted still carry a "verify_workers" key; decoding
// ignores it.
type Workload struct {
	Transport    string `json:"transport"` // "inproc" | "tcp"
	App          string `json:"app"`
	Auth         string `json:"auth"`
	Confidential bool   `json:"confidential"`
	BatchSize    int    `json:"batch_size"`
	// Consensus is "trusted" for the counter-backed 2f+1 mode and empty
	// for classic — omitted from the JSON so trajectory points committed
	// before the mode existed keep comparing equal to fresh classic runs.
	Consensus string `json:"consensus,omitempty"`
	// ReadFrac and ReadLeases describe mixed read/write runs; both zero
	// values are omitted for the same backward-comparability reason as
	// Consensus, and both are comparable so Workload equality (the gate's
	// like-for-like check) keeps working with ==.
	ReadFrac   float64 `json:"read_frac,omitempty"`
	ReadLeases bool    `json:"read_leases,omitempty"`
}

// Result is the versioned machine-readable outcome of one load run — the
// unit of the committed perf trajectory (perf/BENCH_load_*.json).
type Result struct {
	Schema  string  `json:"schema"`
	Mode    string  `json:"mode"`    // "open" | "closed"
	Arrival string  `json:"arrival"` // "poisson" | "fixed" ("" when closed)
	Target  float64 `json:"target_rate_ops"`

	Clients  int           `json:"clients"`
	InFlight int           `json:"in_flight"`
	Queue    int           `json:"queue_depth"`
	Payload  int           `json:"payload_bytes"`
	Warmup   time.Duration `json:"warmup_ns"`
	Window   time.Duration `json:"window_ns"`

	Offered      uint64  `json:"offered_ops"`
	Achieved     uint64  `json:"achieved_ops"`
	Dropped      uint64  `json:"dropped_ops"`
	Errors       uint64  `json:"error_ops"`
	OfferedRate  float64 `json:"offered_ops_per_sec"`
	AchievedRate float64 `json:"achieved_ops_per_sec"`

	Latency  LatencySummary `json:"latency"`
	Workload Workload       `json:"workload"`
	Env      bench.Env      `json:"env"`

	// Per-class split of mixed runs; all omitted on single-class runs so
	// previously committed trajectory points round-trip unchanged.
	ReadOps      uint64          `json:"read_ops,omitempty"`
	WriteOps     uint64          `json:"write_ops,omitempty"`
	ReadRate     float64         `json:"read_ops_per_sec,omitempty"`
	WriteRate    float64         `json:"write_ops_per_sec,omitempty"`
	ReadLatency  *LatencySummary `json:"read_latency,omitempty"`
	WriteLatency *LatencySummary `json:"write_latency,omitempty"`

	// Stages is the per-stage request-lifecycle latency breakdown of one
	// replica's tracer (-stage-breakdown runs only). It is omitted when
	// tracing is off so previously committed trajectory points round-trip
	// unchanged, and it is deliberately NOT part of the gate's workload
	// identity: a traced run hard-compares against a committed untraced
	// point, which is exactly how the observability overhead is gated.
	Stages []StageLatency `json:"stages,omitempty"`
}

// StageLatency is one row of a traced run's per-stage latency breakdown.
type StageLatency struct {
	Stage string        `json:"stage"`
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// FormatStages renders the per-stage breakdown as an aligned table.
func FormatStages(stages []StageLatency) string {
	if len(stages) == 0 {
		return "  (no traced spans)\n"
	}
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("  %-16s %10s %12s %12s %12s %12s\n", "stage", "spans", "mean", "p50", "p99", "max"))
	for _, s := range stages {
		sb.WriteString(fmt.Sprintf("  %-16s %10d %12v %12v %12v %12v\n",
			s.Stage, s.Count,
			s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond)))
	}
	return sb.String()
}

// summarize digests a histogram into the quantile summary.
func summarize(h *Histogram) LatencySummary {
	return LatencySummary{
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P90:  h.Quantile(0.90),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Max:  h.Max(),
	}
}

// NewResult stamps raw run stats into a versioned Result.
func NewResult(cfg Config, st Stats, wl Workload) Result {
	r := Result{
		Schema:       ResultSchema,
		Mode:         st.Mode,
		Arrival:      arrivalLabel(cfg, st),
		Target:       cfg.Rate,
		Clients:      len(cfg.Clients),
		InFlight:     cfg.MaxInFlight,
		Queue:        cfg.QueueDepth,
		Payload:      cfg.Payload,
		Warmup:       cfg.Warmup,
		Window:       st.Window,
		Offered:      st.Offered,
		Achieved:     st.Achieved,
		Dropped:      st.Dropped,
		Errors:       st.Errors,
		OfferedRate:  st.OfferedRate(),
		AchievedRate: st.AchievedRate(),
		Latency:      summarize(&st.Hist),
		Workload:     wl,
		Env:          bench.CollectEnv(),
	}
	if cfg.ReadFrac > 0 {
		r.ReadOps = st.Reads
		r.WriteOps = st.Writes
		r.ReadRate = st.ReadRate()
		r.WriteRate = st.WriteRate()
		rl, wlat := summarize(&st.ReadHist), summarize(&st.WriteHist)
		r.ReadLatency, r.WriteLatency = &rl, &wlat
	}
	return r
}

func arrivalLabel(cfg Config, st Stats) string {
	if st.Mode == "closed" {
		return ""
	}
	return string(cfg.Arrival)
}

// WriteResult writes a Result as indented JSON, creating parent
// directories as needed.
func WriteResult(path string, r Result) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("load: result dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("load: marshal result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("load: write %s: %w", path, err)
	}
	return nil
}

// ReadResult loads a committed trajectory point, refusing unknown schemas.
func ReadResult(path string) (Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Result{}, fmt.Errorf("load: read %s: %w", path, err)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, fmt.Errorf("load: parse %s: %w", path, err)
	}
	if r.Schema != ResultSchema {
		return Result{}, fmt.Errorf("load: %s has schema %q, want %q", path, r.Schema, ResultSchema)
	}
	return r, nil
}

// GateReport is the outcome of comparing a fresh run against a committed
// trajectory point.
type GateReport struct {
	// Hard is true when the environments matched and the thresholds were
	// enforced; false means the comparison ran advisorily (different
	// machine class, different calibration) and cannot fail the gate.
	Hard bool
	// Regressions lists threshold violations (empty = pass).
	Regressions []string
	// Notes carries advisory observations either way.
	Notes []string
}

// Pass reports whether the gate allows the change through: advisory
// comparisons always pass; hard ones pass without regressions.
func (g GateReport) Pass() bool { return !g.Hard || len(g.Regressions) == 0 }

// String renders the report for CI logs.
func (g GateReport) String() string {
	var sb strings.Builder
	if g.Hard {
		sb.WriteString("gate: hard comparison\n")
	} else {
		sb.WriteString("gate: ADVISORY comparison (thresholds not enforced)\n")
	}
	for _, n := range g.Notes {
		sb.WriteString("  note: " + n + "\n")
	}
	for _, r := range g.Regressions {
		sb.WriteString("  REGRESSION: " + r + "\n")
	}
	if g.Pass() {
		sb.WriteString("  result: PASS\n")
	} else {
		sb.WriteString("  result: FAIL\n")
	}
	return sb.String()
}

// latencySlack is the absolute floor on the p99 ceiling's headroom; see
// the comment at its use in CompareTrajectory.
const latencySlack = 100 * time.Millisecond

// CompareTrajectory gates cur against the committed point prev with a
// noise band (0.15 = ±15%, sized for the 1-CPU container's run-to-run
// variance). Throughput must not fall below prev·(1−band); p99 latency
// must not exceed prev·(1+3·band), with at least latencySlack of
// headroom — the tail gets the wider band because a single scheduling
// hiccup lands there first. The gate hardens only
// when the runs are genuinely comparable: same schema, same workload,
// same target rate and same machine class (bench.Env.Comparable);
// anything else downgrades to an advisory report that cannot fail CI —
// noise-awareness means refusing to call a machine swap a regression.
func CompareTrajectory(prev, cur Result, band float64) GateReport {
	var g GateReport
	if band <= 0 {
		band = 0.15
	}
	hard := true
	note := func(format string, args ...any) {
		g.Notes = append(g.Notes, fmt.Sprintf(format, args...))
	}
	if prev.Schema != cur.Schema {
		hard = false
		note("schema changed (%s → %s)", prev.Schema, cur.Schema)
	}
	if prev.Mode != cur.Mode || prev.Arrival != cur.Arrival || prev.Target != cur.Target ||
		prev.Payload != cur.Payload || prev.InFlight != cur.InFlight {
		hard = false
		note("load calibration changed (mode/arrival/target/payload/in-flight differ) — re-seed the trajectory point")
	}
	if prev.Workload != cur.Workload {
		hard = false
		note("workload configuration changed (%+v → %+v) — re-seed the trajectory point", prev.Workload, cur.Workload)
	}
	if !prev.Env.Comparable(cur.Env) {
		hard = false
		note("environments differ (%d CPU %s/%s vs %d CPU %s/%s) — cross-machine numbers are reported, not gated",
			prev.Env.NumCPU, prev.Env.GOOS, prev.Env.GOARCH,
			cur.Env.NumCPU, cur.Env.GOOS, cur.Env.GOARCH)
	}
	g.Hard = hard

	tputFloor := prev.AchievedRate * (1 - band)
	note("throughput %.0f ops/s vs committed %.0f ops/s (floor %.0f)",
		cur.AchievedRate, prev.AchievedRate, tputFloor)
	if cur.AchievedRate < tputFloor {
		g.Regressions = append(g.Regressions,
			fmt.Sprintf("achieved throughput %.0f ops/s below %.0f (committed %.0f ops/s − %.0f%% band)",
				cur.AchievedRate, tputFloor, prev.AchievedRate, band*100))
	}
	latCeil := time.Duration(float64(prev.Latency.P99) * (1 + 3*band))
	// Absolute slack floor: on a small box a single ~60ms scheduling
	// hiccup delays every queued arrival behind it, and with a few
	// thousand samples those ops ARE the p99. A multiplicative band over
	// a millisecond-scale baseline cannot absorb that, so the ceiling
	// never sits closer than latencySlack above the committed p99 —
	// sustained queueing regressions still blow well past it.
	if min := prev.Latency.P99 + latencySlack; latCeil < min {
		latCeil = min
	}
	note("p99 %s vs committed %s (ceiling %s)", cur.Latency.P99, prev.Latency.P99, latCeil)
	if prev.Latency.P99 > 0 && cur.Latency.P99 > latCeil {
		g.Regressions = append(g.Regressions,
			fmt.Sprintf("p99 latency %s above %s (committed %s + %.0f%% band)",
				cur.Latency.P99, latCeil, prev.Latency.P99, 3*band*100))
	}
	if cur.Dropped > 0 || cur.Errors > 0 {
		note("run shed %d ops and saw %d errors", cur.Dropped, cur.Errors)
	}
	if cur.Offered > 0 && prev.Dropped == 0 && cur.Dropped*10 > cur.Offered {
		g.Regressions = append(g.Regressions,
			fmt.Sprintf("dropped %d of %d offered ops (>10%%) where the committed point dropped none",
				cur.Dropped, cur.Offered))
	}
	if !hard {
		// Advisory regressions would be confusing: report them as notes.
		for _, r := range g.Regressions {
			note("would flag under a hard gate: %s", r)
		}
		g.Regressions = nil
	}
	return g
}
