package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/splitbft/splitbft"
)

// Ablations isolate the contribution of individual design parameters:
// the enclave-transition cost (how much of SplitBFT's overhead is the
// SGX boundary itself) and the batch size (how transition costs amortize
// over batches, §6's central performance argument).

// TransitionCostPoint is one measurement of the transition-cost ablation.
type TransitionCostPoint struct {
	TransitionCycles uint64
	Result           Result
}

// TransitionCostAblation sweeps the per-transition cycle cost of the
// enclave boundary on the SplitBFT KVS: 0 cycles is simulation mode, 8640
// the HotCalls default, higher values model older or more conservative
// TEE implementations.
func TransitionCostAblation(cycles []uint64, clients int, measure time.Duration) ([]TransitionCostPoint, error) {
	out := make([]TransitionCostPoint, 0, len(cycles))
	for _, c := range cycles {
		cost := splitbft.DefaultCostModel()
		cost.TransitionCycles = c
		res, err := Run(RunConfig{
			System:       SplitKVS,
			Clients:      clients,
			Batched:      false,
			Measure:      measure,
			CostOverride: &cost,
		})
		if err != nil {
			return out, fmt.Errorf("transition ablation @%d cycles: %w", c, err)
		}
		out = append(out, TransitionCostPoint{TransitionCycles: c, Result: res})
	}
	return out, nil
}

// BatchSizePoint is one measurement of the batch-size ablation.
type BatchSizePoint struct {
	BatchSize int
	Result    Result
}

// BatchSizeAblation sweeps the batch size on the SplitBFT KVS with a fixed
// offered load, showing how the per-batch enclave costs amortize (the
// paper jumps from 1 to 200; the sweep fills in the curve).
func BatchSizeAblation(sizes []int, clients int, measure time.Duration) ([]BatchSizePoint, error) {
	out := make([]BatchSizePoint, 0, len(sizes))
	for _, s := range sizes {
		res, err := Run(RunConfig{
			System:            SplitKVS,
			Clients:           clients,
			Batched:           true, // 40 outstanding per client
			Measure:           measure,
			BatchSizeOverride: s,
		})
		if err != nil {
			return out, fmt.Errorf("batch ablation @%d: %w", s, err)
		}
		out = append(out, BatchSizePoint{BatchSize: s, Result: res})
	}
	return out, nil
}

// AuthPoint is one measurement of the agreement-authentication ablation.
type AuthPoint struct {
	Mode   string // "sig" or "mac"
	Result Result
}

// AuthAblation measures the MAC-authenticated agreement fast path against
// the Ed25519 baseline on the SplitBFT KVS: identical protocol, identical
// scheduling, only the normal-case authentication primitive differs. The
// sig-mode replica hot path is Ed25519-bound, so this is the rare
// optimization whose win is visible even on a single core — it removes
// the work instead of parallelizing it.
func AuthAblation(clients int, measure time.Duration) ([]AuthPoint, error) {
	out := make([]AuthPoint, 0, 2)
	for _, mode := range []string{"sig", "mac"} {
		res, err := Run(RunConfig{
			System:        SplitKVS,
			Clients:       clients,
			Batched:       false,
			Measure:       measure,
			AgreementAuth: mode,
		})
		if err != nil {
			return out, fmt.Errorf("auth ablation @%s: %w", mode, err)
		}
		out = append(out, AuthPoint{Mode: mode, Result: res})
	}
	return out, nil
}

// AuthSpeedup returns the mac/sig throughput ratio (0 when either point
// is missing).
func AuthSpeedup(points []AuthPoint) float64 {
	var sig, mac float64
	for _, p := range points {
		switch p.Mode {
		case "sig":
			sig = p.Result.Throughput
		case "mac":
			mac = p.Result.Throughput
		}
	}
	if sig == 0 {
		return 0
	}
	return mac / sig
}

// ReadLeasePoint is one measurement of the read-lease ablation.
type ReadLeasePoint struct {
	Leases bool
	Result Result
}

// ReadLeaseAblation measures the lease-anchored local read fast path
// against agreement reads on the SplitBFT KVS: the same 90/10 GET/PUT mix
// runs twice, leases off (every GET is ordered) and then on (lease-holding
// Execution compartments answer GETs locally). The clients are closed-loop,
// so each point's read ops/s is the read path's capacity. With trace, each
// point also carries the leader's per-stage latency breakdown.
func ReadLeaseAblation(clients int, measure time.Duration, trace bool) ([]ReadLeasePoint, error) {
	out := make([]ReadLeasePoint, 0, 2)
	for _, leases := range []bool{false, true} {
		res, err := Run(RunConfig{
			System:     SplitKVS,
			Clients:    clients,
			Measure:    measure,
			ReadLeases: leases,
			ReadMix:    true,
			Trace:      trace,
		})
		if err != nil {
			return out, fmt.Errorf("read-lease ablation (leases=%v): %w", leases, err)
		}
		out = append(out, ReadLeasePoint{Leases: leases, Result: res})
	}
	return out, nil
}

// ReadLeaseSpeedup returns the leases-on/off read throughput ratio (0 when
// either point is missing).
func ReadLeaseSpeedup(points []ReadLeasePoint) float64 {
	var off, on float64
	for _, p := range points {
		if p.Leases {
			on = p.Result.ReadThroughput
		} else {
			off = p.Result.ReadThroughput
		}
	}
	if off == 0 {
		return 0
	}
	return on / off
}

// FormatReadLeaseAblation renders both points, the read throughput ratio
// and, for traced points, the leader's stage table.
func FormatReadLeaseAblation(points []ReadLeasePoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation — lease-anchored local reads (SplitBFT KVS, unbatched, 90/10 GET/PUT)\n\n")
	fmt.Fprintf(&sb, "%-6s %10s %10s %10s %10s %12s %8s\n",
		"Leases", "reads/s", "writes/s", "read p50", "read p99", "local-reads", "grants")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, p := range points {
		r := p.Result
		fmt.Fprintf(&sb, "%-6s %10.0f %10.0f %10v %10v %12d %8d\n",
			onOff(p.Leases), r.ReadThroughput, r.Throughput-r.ReadThroughput,
			r.ReadP50Lat.Round(time.Microsecond), r.ReadP99Lat.Round(time.Microsecond),
			r.LocalReads, r.LeaseGrants)
	}
	if s := ReadLeaseSpeedup(points); s > 0 {
		fmt.Fprintf(&sb, "\nread throughput ratio (leases on / off): %.2fx\n", s)
	}
	for _, p := range points {
		if len(p.Result.Stages) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "\nstage latency, leases %s (leader's view):\n", onOff(p.Leases))
		fmt.Fprintf(&sb, "  %-16s %10s %12s %12s %12s %12s\n", "stage", "spans", "mean", "p50", "p99", "max")
		for _, s := range p.Result.Stages {
			fmt.Fprintf(&sb, "  %-16s %10d %12v %12v %12v %12v\n", s.Stage, s.Count,
				s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
				s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
		}
	}
	return sb.String()
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// ConsensusPoint is one measurement of the consensus-mode ablation.
type ConsensusPoint struct {
	Consensus string // "classic" or "trusted"
	Auth      string // "sig" or "mac"
	Result    Result
}

// consensusCorners are the three agreement configurations a deployment can
// run: classic consensus with either auth mode, trusted consensus with MAC.
var consensusCorners = []ConsensusPoint{
	{Consensus: "classic", Auth: "sig"},
	{Consensus: "classic", Auth: "mac"},
	{Consensus: "trusted", Auth: "mac"},
}

// ConsensusAblation measures the trusted-counter consensus mode against
// classic SplitBFT in each of the three agreement corners. The trusted row
// replaces the all-to-all Prepare round (and its per-message verification)
// with one counter attestation on each PrePrepare, so on a single core the
// win shows up as removed crypto and messaging work, not as parallelism.
// The group shrinks to 2f+1 alongside, which is the other half of the
// mode's resource argument.
func ConsensusAblation(clients int, measure time.Duration) ([]ConsensusPoint, error) {
	out := make([]ConsensusPoint, 0, len(consensusCorners))
	for _, c := range consensusCorners {
		res, err := Run(RunConfig{
			System:        SplitKVS,
			Clients:       clients,
			Batched:       false,
			Measure:       measure,
			AgreementAuth: c.Auth,
			ConsensusMode: c.Consensus,
		})
		if err != nil {
			return out, fmt.Errorf("consensus ablation @%s/%s: %w", c.Consensus, c.Auth, err)
		}
		c.Result = res
		out = append(out, c)
	}
	return out, nil
}

// TrustedSpeedup returns the trusted/classic throughput ratio under MAC
// agreement, the one auth mode both consensus modes run (0 when either
// point is missing).
func TrustedSpeedup(points []ConsensusPoint) float64 {
	var classic, trusted float64
	for _, p := range points {
		if p.Auth != "mac" {
			continue
		}
		switch p.Consensus {
		case "classic":
			classic = p.Result.Throughput
		case "trusted":
			trusted = p.Result.Throughput
		}
	}
	if classic == 0 {
		return 0
	}
	return trusted / classic
}

// FormatConsensusAblation renders the three agreement corners with the
// leader's crypto-op profile: what verification work the dropped Prepare
// round removed, and what counter-attestation work replaced it.
func FormatConsensusAblation(points []ConsensusPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation — consensus mode (SplitBFT KVS, unbatched; classic n=4, trusted n=3)\n\n")
	fmt.Fprintf(&sb, "%-9s %-5s %12s %14s %12s %12s %11s %11s\n",
		"Consensus", "Auth", "ops/s", "mean latency", "sig-verifies", "MAC-verifies", "ctr-creates", "ctr-verifies")
	sb.WriteString(strings.Repeat("-", 94) + "\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-9s %-5s %12.0f %14v %12d %12d %11d %11d\n",
			p.Consensus, p.Auth, p.Result.Throughput,
			p.Result.MeanLat.Round(time.Microsecond),
			p.Result.SigVerifies, p.Result.MACVerifies,
			p.Result.CounterCreates, p.Result.CounterVerifies)
	}
	if s := TrustedSpeedup(points); s > 0 {
		fmt.Fprintf(&sb, "\ntrusted/classic throughput ratio (mac): %.2fx", s)
	}
	sb.WriteString("\n")
	return sb.String()
}

// FormatAuthAblation renders the sig-vs-MAC comparison with the leader's
// crypto-op profile: how many Ed25519 verifications ran, what share of
// the measure window they consumed, and how many agreement-MAC checks
// replaced them.
func FormatAuthAblation(points []AuthPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation — agreement authentication (SplitBFT KVS, unbatched)\n\n")
	// "verify-CPU" is Ed25519-verify CPU-seconds per wall-clock second on
	// the leader; the compartments verify concurrently, so >100% is
	// possible on multi-core hosts.
	fmt.Fprintf(&sb, "%-6s %12s %14s %12s %12s %12s\n",
		"Mode", "ops/s", "mean latency", "sig-verifies", "verify-CPU", "MAC-verifies")
	sb.WriteString(strings.Repeat("-", 74) + "\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-6s %12.0f %14v %12d %11.1f%% %12d\n",
			p.Mode, p.Result.Throughput,
			p.Result.MeanLat.Round(time.Microsecond),
			p.Result.SigVerifies, 100*p.Result.SigCPUFraction, p.Result.MACVerifies)
	}
	if s := AuthSpeedup(points); s > 0 {
		fmt.Fprintf(&sb, "\nMAC/sig throughput ratio: %.2fx\n", s)
	}
	return sb.String()
}

// FormatTransitionAblation renders the transition-cost sweep.
func FormatTransitionAblation(points []TransitionCostPoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation — enclave transition cost (SplitBFT KVS, unbatched)\n\n")
	fmt.Fprintf(&sb, "%-18s %14s %14s\n", "Transition cycles", "ops/s", "mean latency")
	sb.WriteString(strings.Repeat("-", 50) + "\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-18d %14.0f %14v\n",
			p.TransitionCycles, p.Result.Throughput, p.Result.MeanLat.Round(time.Microsecond))
	}
	return sb.String()
}

// FormatBatchAblation renders the batch-size sweep.
func FormatBatchAblation(points []BatchSizePoint) string {
	var sb strings.Builder
	sb.WriteString("Ablation — batch size (SplitBFT KVS, 40 outstanding per client)\n\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s\n", "Batch size", "ops/s", "mean latency")
	sb.WriteString(strings.Repeat("-", 44) + "\n")
	for _, p := range points {
		fmt.Fprintf(&sb, "%-12d %14.0f %14v\n",
			p.BatchSize, p.Result.Throughput, p.Result.MeanLat.Round(time.Microsecond))
	}
	return sb.String()
}
