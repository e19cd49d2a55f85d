package load

import (
	"fmt"
	"strings"
	"time"

	"github.com/splitbft/splitbft"
)

// The read-lease ablation measures the lease-anchored local read fast path
// against the agreement baseline: the same 90/10 open-loop read/write mix
// is offered twice — leases off (every GET runs full agreement) and leases
// on (lease-holding Execution compartments answer GETs locally) — and the
// read-class throughput is compared. It lives in this package rather than
// experiments/bench because the acceptance metric is open-loop (bench's
// closed-loop clients would hide the queueing collapse of the baseline),
// and this package owns the open-loop generator.

// ReadLeasePoint is one measurement of the read-lease ablation.
type ReadLeasePoint struct {
	// Leases reports whether the local read fast path was enabled.
	Leases bool `json:"leases"`
	// Result is the full versioned load result for the run.
	Result Result `json:"result"`
	// LocalReads counts reads served on the fast path across the cluster
	// (0 when leases are off — the invariant the ablation also checks).
	LocalReads uint64 `json:"local_reads"`
	// LeaseGrants counts leases issued by the primary's counter enclave.
	LeaseGrants uint64 `json:"lease_grants"`
}

// ReadLeaseConfig parameterizes the ablation. The zero value selects the
// committed defaults: a 4-replica in-process cluster on the load gate's
// calibration (batch 1), a 90/10 mix on a fixed arrival schedule, and an
// offered rate chosen to exceed the agreement path's read capacity so the
// fast path's headroom is visible.
type ReadLeaseConfig struct {
	Replicas int           // cluster size; default 4
	Clients  int           // client connections; default 4
	Rate     float64       // offered ops/s; default 4000
	ReadFrac float64       // read fraction; default 0.9
	Warmup   time.Duration // untimed ramp-up; default 1s
	Measure  time.Duration // measurement window; default 3s
	InFlight int           // worker pool; default 64
	Queue    int           // dispatch queue; default 256
	Seed     int64         // arrival seed; default 1
	// Trace enables request-lifecycle tracing on the cluster; each point's
	// Result gains the primary's per-stage latency breakdown.
	Trace bool
}

func (c ReadLeaseConfig) withDefaults() ReadLeaseConfig {
	if c.Replicas <= 0 {
		c.Replicas = 4
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Rate <= 0 {
		c.Rate = 4000
	}
	if c.ReadFrac <= 0 {
		c.ReadFrac = 0.9
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3 * time.Second
	}
	if c.InFlight <= 0 {
		c.InFlight = 64
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ReadLeaseAblation runs the mixed workload twice — leases off, then on —
// and returns both points. Identical protocol, identical schedule, same
// calibration; only the read path differs.
func ReadLeaseAblation(cfg ReadLeaseConfig) ([]ReadLeasePoint, error) {
	cfg = cfg.withDefaults()
	out := make([]ReadLeasePoint, 0, 2)
	for _, leases := range []bool{false, true} {
		pt, err := runReadLeasePoint(cfg, leases)
		if err != nil {
			return out, fmt.Errorf("read-lease ablation (leases=%v): %w", leases, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

func runReadLeasePoint(cfg ReadLeaseConfig, leases bool) (ReadLeasePoint, error) {
	opts := []splitbft.Option{
		splitbft.WithKVStore(),
		splitbft.WithBatchSize(1),
		splitbft.WithReadLeases(leases),
	}
	if cfg.Trace {
		opts = append(opts, splitbft.WithObservability())
	}
	cluster, err := splitbft.NewCluster(cfg.Replicas, opts...)
	if err != nil {
		return ReadLeasePoint{}, fmt.Errorf("start cluster: %w", err)
	}
	defer cluster.Close()

	invokers := make([]Invoker, 0, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		cl, err := cluster.NewClient(uint32(300 + i))
		if err != nil {
			return ReadLeasePoint{}, fmt.Errorf("client %d: %w", i, err)
		}
		if err := cl.Attest(); err != nil {
			return ReadLeasePoint{}, fmt.Errorf("client %d attestation: %w", i, err)
		}
		invokers = append(invokers, cl)
	}

	value := defaultPayload(10)
	lcfg := Config{
		Rate:        cfg.Rate,
		Arrival:     ArrivalFixed,
		Warmup:      cfg.Warmup,
		Duration:    cfg.Measure,
		MaxInFlight: cfg.InFlight,
		QueueDepth:  cfg.Queue,
		Clients:     invokers,
		MakeOp: func(worker int, seq uint64) []byte {
			return splitbft.EncodePut(fmt.Sprintf("ablate-w%d", worker), value)
		},
		MakeRead: func(worker int, seq uint64) []byte {
			// Reads hit the key the same worker's writes churn, so the mix
			// exercises read-after-write traffic, not cold misses.
			return splitbft.EncodeGet(fmt.Sprintf("ablate-w%d", worker))
		},
		ReadFrac: cfg.ReadFrac,
		Payload:  10,
		Seed:     cfg.Seed,
	}
	st, err := Run(lcfg)
	if err != nil {
		return ReadLeasePoint{}, err
	}
	wl := Workload{
		Transport:  "inproc",
		App:        "kvs",
		Auth:       "sig",
		BatchSize:  1,
		ReadFrac:   cfg.ReadFrac,
		ReadLeases: leases,
	}
	pt := ReadLeasePoint{Leases: leases, Result: NewResult(lcfg, st, wl)}
	for _, n := range cluster.Nodes() {
		pt.LocalReads += n.LocalReads()
	}
	pt.LeaseGrants = cluster.Node(0).CryptoStats().LeaseGrants
	if cfg.Trace {
		pt.Result.Stages = NodeStages(cluster.Node(0))
	}
	return pt, nil
}

// NodeStages converts a traced node's per-stage latency breakdown into the
// load result's JSON shape. The view is that single replica's — here the
// primary's: write stages are complete on it, while with leases on it
// serves only its round-robin share of the reads.
func NodeStages(n *splitbft.Node) []StageLatency {
	stats := n.StageLatencies()
	out := make([]StageLatency, len(stats))
	for i, s := range stats {
		out[i] = StageLatency{Stage: s.Stage, Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99, Max: s.Max}
	}
	return out
}

// ReadLeaseSpeedup is the read-class throughput ratio of the lease-enabled
// run over the baseline (0 when either point is missing or idle).
func ReadLeaseSpeedup(pts []ReadLeasePoint) float64 {
	var off, on float64
	for _, p := range pts {
		if p.Leases {
			on = p.Result.ReadRate
		} else {
			off = p.Result.ReadRate
		}
	}
	if off <= 0 {
		return 0
	}
	return on / off
}

// FormatReadLeaseAblation renders the ablation as an aligned table plus
// the read-throughput speedup line.
func FormatReadLeaseAblation(pts []ReadLeasePoint) string {
	var sb strings.Builder
	sb.WriteString("read-lease ablation — open-loop read/write mix, leases off vs on\n")
	sb.WriteString(fmt.Sprintf("%-7s %10s %10s %10s %9s %9s %9s %8s %11s %7s\n",
		"leases", "offered/s", "reads/s", "writes/s",
		"read p50", "read p99", "write p99", "dropped", "local-reads", "grants"))
	for _, p := range pts {
		mode := "off"
		if p.Leases {
			mode = "on"
		}
		r := p.Result
		var rp50, rp99, wp99 time.Duration
		if r.ReadLatency != nil {
			rp50, rp99 = r.ReadLatency.P50, r.ReadLatency.P99
		}
		if r.WriteLatency != nil {
			wp99 = r.WriteLatency.P99
		}
		sb.WriteString(fmt.Sprintf("%-7s %10.0f %10.0f %10.0f %9s %9s %9s %8d %11d %7d\n",
			mode, r.OfferedRate, r.ReadRate, r.WriteRate,
			rp50.Round(time.Microsecond), rp99.Round(time.Microsecond),
			wp99.Round(time.Microsecond), r.Dropped, p.LocalReads, p.LeaseGrants))
	}
	if s := ReadLeaseSpeedup(pts); s > 0 {
		sb.WriteString(fmt.Sprintf("\nread throughput speedup (leases on / off): %.2fx\n", s))
	}
	for _, p := range pts {
		if len(p.Result.Stages) == 0 {
			continue
		}
		mode := "off"
		if p.Leases {
			mode = "on"
		}
		sb.WriteString(fmt.Sprintf("\nstage latency breakdown, leases %s (primary's view):\n", mode))
		sb.WriteString(FormatStages(p.Result.Stages))
	}
	return sb.String()
}
