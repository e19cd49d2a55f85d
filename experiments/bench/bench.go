// Package bench is the experiment harness reproducing the paper's
// evaluation (§6): throughput/latency sweeps over client counts for
// SplitBFT and the PBFT baseline with KVS and blockchain applications
// (Figure 3a/3b), and per-compartment ecall latency measurements
// (Figure 4). Table 1 and Table 2 are produced by the faultmodel and loc
// packages respectively; cmd/splitbft-bench ties everything together.
package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/splitbft/splitbft"
)

// System enumerates the evaluated configurations — exactly the series of
// Figure 3.
type System int

// The Figure 3 series.
const (
	SplitKVS System = iota
	PBFTKVS
	SplitKVSSimulation   // SGX simulation mode: no transition cost
	SplitKVSSingleThread // all ecalls through one thread
	SplitBlockchain
	PBFTBlockchain
)

// String implements fmt.Stringer with the paper's legend labels.
func (s System) String() string {
	switch s {
	case SplitKVS:
		return "SplitBFT KVS"
	case PBFTKVS:
		return "PBFT KVS"
	case SplitKVSSimulation:
		return "SplitBFT KVS Simulation"
	case SplitKVSSingleThread:
		return "SplitBFT KVS Single Thread"
	case SplitBlockchain:
		return "SplitBFT Blockchain"
	case PBFTBlockchain:
		return "PBFT Blockchain"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// AllSystems returns every Figure 3 series in display order.
func AllSystems() []System {
	return []System{SplitKVS, PBFTKVS, SplitKVSSimulation, SplitKVSSingleThread, SplitBlockchain, PBFTBlockchain}
}

// IsSplit reports whether the system is a SplitBFT variant.
func (s System) IsSplit() bool { return s != PBFTKVS && s != PBFTBlockchain }

// IsBlockchain reports whether the system runs the ledger application.
func (s System) IsBlockchain() bool { return s == SplitBlockchain || s == PBFTBlockchain }

// RunConfig parameterizes one experiment point.
type RunConfig struct {
	System  System
	Clients int
	// Batched selects the Figure 3b configuration: batches of 200 or 10 ms
	// and 40 outstanding requests per client. Unbatched (3a) orders every
	// request alone with one outstanding request per client.
	Batched bool
	// PayloadSize is the request payload in bytes (paper: 10).
	PayloadSize int
	// Warmup and Measure are the untimed ramp-up and the timed window.
	Warmup  time.Duration
	Measure time.Duration
	// CostOverride replaces the system's default enclave cost model
	// (ablations only; nil keeps the per-system default).
	CostOverride *splitbft.CostModel
	// BatchSizeOverride replaces the batched-mode batch size of 200
	// (ablations only; 0 keeps the default).
	BatchSizeOverride int
	// AgreementAuth selects the replica-to-replica authentication mode on
	// SplitBFT systems ("sig" or "mac"; "" keeps the sig default) — the
	// MAC-authenticated fast path of the auth ablation.
	AgreementAuth string
	// ConsensusMode selects the agreement protocol on SplitBFT systems
	// ("classic" or "trusted"; "" keeps the classic default). Trusted runs
	// the counter-backed two-phase protocol on a 2f+1 group — the cluster
	// shrinks from benchN to 2*benchF+1 replicas, matching how the mode
	// would actually be deployed.
	ConsensusMode string
	// ReadLeases turns on the lease-anchored local read fast path on
	// SplitBFT systems — the read-lease ablation.
	ReadLeases bool
	// ReadMix makes every worker send a GET (through InvokeRead) for the
	// key its own PUTs write, with one PUT in every readMixPeriod
	// operations: the 90/10 GET/PUT mix. KVS systems only.
	ReadMix bool
	// Trace turns on request-lifecycle tracing on SplitBFT systems;
	// Result.Stages then carries the leader's per-stage breakdown.
	Trace bool
}

// readMixPeriod makes a ReadMix worker's every tenth operation (its first
// included, so the key exists before it is read) a PUT.
const readMixPeriod = 10

func (c RunConfig) withDefaults() RunConfig {
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.PayloadSize == 0 {
		c.PayloadSize = 10
	}
	if c.Warmup == 0 {
		c.Warmup = 300 * time.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = time.Second
	}
	return c
}

// validate refuses knobs the chosen system would silently ignore: an
// ablation point that ran without its feature must not be reported as one
// that ran with it.
func (c RunConfig) validate() error {
	if c.ReadMix && c.System.IsBlockchain() {
		return fmt.Errorf("bench: ReadMix needs a KVS system, not %v", c.System)
	}
	if (c.ReadLeases || c.Trace) && !c.System.IsSplit() {
		return fmt.Errorf("bench: ReadLeases and Trace need a SplitBFT system, not %v", c.System)
	}
	return nil
}

// Outstanding returns the per-client concurrency (paper: 40 when batched).
func (c RunConfig) Outstanding() int {
	if c.Batched {
		return 40
	}
	return 1
}

// CompartmentStat is one bar of Figure 4. Calls counts trusted-boundary
// crossings; Msgs the messages they delivered (Msgs/Calls is the achieved
// ecall batch amortization).
type CompartmentStat struct {
	Name  string
	Calls uint64
	Msgs  uint64
	Mean  time.Duration
	Total time.Duration
}

// Result is one measured experiment point.
type Result struct {
	System     System
	Clients    int
	Batched    bool
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // ops/s
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	// Compartments holds the leader's per-enclave ecall statistics for
	// SplitBFT systems (Figure 4); nil for the baseline.
	Compartments []CompartmentStat
	// MsgsPerEcall is the achieved ecall amortization on the leader across
	// all compartments — messages delivered per trusted-boundary crossing
	// (0 for the baseline).
	MsgsPerEcall float64
	// VerifyCacheHitRate is the leader's signature-verification cache hit
	// rate during the measure window (0 for the baseline): genuine
	// retransmits and replays.
	VerifyCacheHitRate float64
	// Errors counts failed invocations during the measure window.
	Errors uint64
	// SigVerifies / MACVerifies count the leader's executed Ed25519 and
	// agreement-MAC verifications during the measure window (0 for the
	// baseline); SigCPUFraction is the leader's Ed25519-verify
	// CPU-seconds per wall-clock second — the cost the MAC fast path
	// removes. The three compartments verify concurrently, so on
	// multi-core hosts this can exceed 1.0 (it is CPU load, not a share
	// of the window).
	SigVerifies    uint64
	MACVerifies    uint64
	SigCPUFraction float64
	// CounterCreates / CounterVerifies count the leader's trusted-counter
	// attestations created and verified during the measure window (0 in
	// classic consensus).
	CounterCreates  uint64
	CounterVerifies uint64
	// ReadOps, ReadThroughput, ReadP50Lat and ReadP99Lat split the GETs out
	// of a ReadMix run (zero otherwise). Ops and Throughput count both
	// classes, so the writes are the difference.
	ReadOps        uint64
	ReadThroughput float64
	ReadP50Lat     time.Duration
	ReadP99Lat     time.Duration
	// LocalReads sums the reads every replica served on the lease fast
	// path, and LeaseGrants counts the leases the leader's counter issued,
	// both over the measure window (0 without ReadLeases).
	LocalReads  uint64
	LeaseGrants uint64
	// Stages is the leader's per-stage request latency breakdown (Trace
	// runs only).
	Stages []splitbft.StageLatency
}

// recorder collects latencies from concurrent workers.
type recorder struct {
	mu        sync.Mutex
	latencies []time.Duration
	reads     []time.Duration // the GETs among latencies
	errors    uint64
}

func (r *recorder) record(d time.Duration, read bool) {
	r.mu.Lock()
	r.latencies = append(r.latencies, d)
	if read {
		r.reads = append(r.reads, d)
	}
	r.mu.Unlock()
}

func (r *recorder) fail() {
	r.mu.Lock()
	r.errors++
	r.mu.Unlock()
}

// summarize computes the Result statistics from collected latencies.
func (r *recorder) summarize(res *Result, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res.Ops = uint64(len(r.latencies))
	res.ReadOps = uint64(len(r.reads))
	res.Elapsed = elapsed
	res.Errors = r.errors
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
		res.ReadThroughput = float64(res.ReadOps) / elapsed.Seconds()
	}
	res.ReadP50Lat, res.ReadP99Lat = percentiles(r.reads)
	if len(r.latencies) == 0 {
		return
	}
	var sum time.Duration
	for _, d := range r.latencies {
		sum += d
	}
	res.MeanLat = sum / time.Duration(len(r.latencies))
	res.P50Lat, res.P99Lat = percentiles(r.latencies)
}

// percentiles sorts ds in place and returns its p50 and p99 (0 when empty).
func percentiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], ds[len(ds)*99/100]
}
