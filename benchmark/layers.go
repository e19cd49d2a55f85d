package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/internal/transport"
)

// netCount counts SimNet traffic through the network's observer hook.
type netCount struct{ msgs, bytes atomic.Int64 }

func (c *netCount) observe(_, _ transport.Endpoint, data []byte) {
	c.msgs.Add(1)
	c.bytes.Add(int64(len(data)))
}

// counters is one node's measurement surfaces flattened to name → value:
// the public Node accessors under short names, and — on a node built with
// observability — every series of Node.Metrics() under its own name.
type counters map[string]float64

func nodeCounters(n *splitbft.Node) counters {
	c := counters{}
	for _, s := range n.EnclaveStats() {
		role := s.Role.String()
		c["ecalls."+role] = float64(s.Count)
		c["ecall_msgs."+role] = float64(s.Msgs)
		c["ecall_ns."+role] = float64(s.Total)
	}
	cs := n.CryptoStats()
	c["sig_verifies"] = float64(cs.SigVerifies)
	c["sig_verify_ns"] = float64(cs.SigTime)
	c["mac_verifies"] = float64(cs.MACVerifies)
	c["counter_creates"] = float64(cs.CounterCreates)
	c["counter_verifies"] = float64(cs.CounterVerifies)
	vc := n.VerifyCacheStats()
	c["vcache_hits"] = float64(vc.Hits)
	c["vcache_misses"] = float64(vc.Misses)
	c["batches"] = float64(n.Batches())
	c["executed_ops"] = float64(n.ExecutedOps())
	c["suspects"] = float64(n.Suspects())
	c["local_reads"] = float64(n.LocalReads())
	c["deduped_msgs"] = float64(n.DedupedMsgs())
	for _, m := range n.Metrics() {
		c[m.Name] = m.Value
	}
	return c
}

// snapshot reads every node's counters.
func (g *group) snapshot() []counters {
	out := make([]counters, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = nodeCounters(n)
	}
	return out
}

// delta is after − before, node by node.
func delta(after, before []counters) []counters {
	out := make([]counters, len(after))
	for i := range after {
		out[i] = counters{}
		for name, v := range after[i] {
			out[i][name] = v - before[i][name]
		}
	}
	return out
}

// total sums, over all nodes, every counter whose name starts with prefix
// (a metrics series carries its labels after the name, so a prefix also
// sums over compartments).
func total(per []counters, prefix string) float64 {
	var sum float64
	for _, c := range per {
		for name, v := range c {
			if strings.HasPrefix(name, prefix) {
				sum += v
			}
		}
	}
	return sum
}

// ratio is a/b, and 0 when b is 0: a per-op figure of a pass that
// completed nothing says nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the counter deltas of a measured pass into the
// per-layer work counts, divided by the operations the pass committed.
func counterMetrics(r *result, g *group, d []counters, p *pass, netMsgs, netBytes int64) {
	w := g.w
	_, _, _, completed := p.counts()
	ops := float64(completed)
	completedReads := float64(len(latencies(p.samples, reads)))

	r.set("crypto.sig_verifies_per_op", "count", ratio(total(d, "sig_verifies"), ops))
	r.set("crypto.sig_verify_us_per_op", "us", ratio(total(d, "sig_verify_ns")/1e3, ops))
	r.set("crypto.mac_verifies_per_op", "count", ratio(total(d, "mac_verifies"), ops))
	if w.trusted {
		r.set("crypto.counter_creates_per_op", "count", ratio(total(d, "counter_creates"), ops))
		r.set("crypto.counter_verifies_per_op", "count", ratio(total(d, "counter_verifies"), ops))
	}
	r.set("crypto.vcache_hit_rate", "ratio", ratio(total(d, "vcache_hits"), total(d, "vcache_hits")+total(d, "vcache_misses")))

	r.set("tee.ecalls_per_op", "count", ratio(total(d, "ecalls."), ops))
	r.set("tee.msgs_per_ecall", "count", ratio(total(d, "ecall_msgs."), total(d, "ecalls.")))
	for _, role := range []string{"prep", "conf", "exec"} {
		r.set("tee."+role+"_us_per_op", "us", ratio(total(d, "ecall_ns."+role)/1e3, ops))
	}
	// The busiest single enclave bounds the pipeline: its share of the
	// pass spent inside ecalls approaches 1 at saturation.
	var busiest float64
	for _, c := range d {
		for name, v := range c {
			if strings.HasPrefix(name, "ecall_ns.") && v > busiest {
				busiest = v
			}
		}
	}
	r.set("tee.busy_frac", "ratio", busiest/float64(p.elapsed))

	localReads := total(d, "local_reads")
	r.set("core.ops_per_batch", "count", ratio(ops-localReads, total(d, "batches")))
	r.set("core.dedup_drops_per_kop", "count", ratio(1000*total(d, "deduped_msgs"), ops))
	r.set("core.suspects", "count", total(d, "suspects"))
	if w.readFrac > 0 {
		r.set("core.local_read_frac", "ratio", ratio(localReads, completedReads))
	}
	if !w.tcp {
		r.set("transport.msgs_per_op", "count", ratio(float64(netMsgs), ops))
		r.set("transport.bytes_per_op", "B", ratio(float64(netBytes), ops))
	}
}

// eventMetrics reports what only the observability registry exposes
// (protocol events, WAL counters), from the traced pass.
func eventMetrics(r *result, w workload, d []counters, p *pass) {
	_, _, _, completed := p.counts()
	ops := float64(completed)
	r.set("core.view_changes", "count", total(d, "splitbft_view_changes_total"))
	r.set("core.stall_fetches", "count", total(d, "splitbft_stall_fetches_total"))
	if w.leases {
		r.set("core.lease_refusals_per_kop", "count", ratio(1000*total(d, "splitbft_lease_refusals_total"), ops))
		r.set("core.read_index_rounds_per_kop", "count", ratio(1000*total(d, "splitbft_read_index_rounds_total"), ops))
	}
	if w.persist {
		appends, fsyncs := total(d, "splitbft_wal_appends_total"), total(d, "splitbft_wal_fsyncs_total")
		r.set("store.wal_appends_per_op", "count", ratio(appends, ops))
		r.set("store.wal_fsyncs_per_op", "count", ratio(fsyncs, ops))
		r.set("store.appends_per_fsync", "count", ratio(appends, fsyncs))
	}
}

// stageMetrics reports the primary's per-stage latency table: the median
// of each stage, and its mean. The tracer's quantiles are histogram bucket
// edges, which read identically from run to run; the means are exact, and
// they add up to the end-to-end mean. It returns how many request spans
// the primary's tracer completed.
func stageMetrics(r *result, stages []splitbft.StageLatency) (spans uint64) {
	for _, s := range stages {
		name := s.Stage
		switch name {
		case "end-to-end":
			name = "e2e"
			spans += s.Count
		case "end-to-end-read":
			name = "e2e-read"
			spans += s.Count
		}
		r.set("core.stage."+name+"_us", "us", us(s.P50))
		r.set("core.stage."+name+"_mean_us", "us", us(s.Mean))
	}
	return spans
}

// clientMetrics reports the client-side view the gated metrics leave out:
// the tails with their sample count, the read/write split, and how well
// the generator itself kept its schedule.
func clientMetrics(r *result, w workload, rate, peak *pass, resends uint64) {
	lat := latencies(rate.samples, all)
	attempted, failed, _, completed := rate.counts()
	r.set("client.samples", "count", float64(len(lat)))
	r.set("client.lat_p95_ms", "ms", quantile(lat, 0.95))
	r.set("client.lat_p99_ms", "ms", quantile(lat, 0.99))
	r.set("client.lat_max_ms", "ms", quantile(lat, 1))
	if w.readFrac > 0 {
		rd, wr := latencies(rate.samples, reads), latencies(rate.samples, writes)
		r.set("client.read_p50_ms", "ms", quantile(rd, 0.50))
		r.set("client.read_p99_ms", "ms", quantile(rd, 0.99))
		r.set("client.write_p50_ms", "ms", quantile(wr, 0.50))
		r.set("client.write_p99_ms", "ms", quantile(wr, 0.99))
	}
	r.set("client.peak_lat_p50_ms", "ms", quantile(latencies(peak.samples, all), 0.50))
	r.set("client.resends_per_kop", "count", ratio(1000*float64(resends), float64(completed)))
	r.set("client.dropped_frac", "ratio", ratio(float64(rate.dropped), float64(attempted)))
	r.set("client.fail_frac", "ratio", ratio(float64(failed), float64(attempted)))
	late := make([]float64, len(rate.late))
	for i, d := range rate.late {
		late[i] = us(d)
	}
	r.set("client.sched_late_p99_us", "us", quantile(sorted(late), 0.99))
}

// runtimeStats is the Go runtime's and the kernel's account of the process.
type runtimeStats struct {
	allocBytes uint64
	gcPauseNs  uint64
	maxRSSKB   int64
}

func readRuntime() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero RSS on failure; the metric is informational
	return runtimeStats{allocBytes: m.TotalAlloc, gcPauseNs: m.PauseTotalNs, maxRSSKB: ru.Maxrss}
}

func runtimeMetrics(r *result, before, after runtimeStats, p *pass) {
	_, _, _, completed := p.counts()
	r.set("runtime.alloc_kb_per_op", "KiB", ratio(float64(after.allocBytes-before.allocBytes)/1024, float64(completed)))
	r.set("runtime.gc_pause_ms", "ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
	r.set("runtime.rss_peak_mb", "MiB", float64(after.maxRSSKB)/1024)
	r.set("runtime.goroutines", "count", float64(p.goroutines))
}

// runLayers is the per-layer run. Probes time each layer's public
// functions before any cluster exists. An untraced cluster then gives the
// work counts per committed operation and the client-side tails; a fresh
// cluster built with observability replays the same schedule for the stage
// spans and the registry-only counters, and the difference between the two
// medians is the tracing overhead. Nothing measured here feeds an
// end-to-end metric.
func runLayers(w workload, cfg config) (*result, error) {
	r := newResult(w, cfg.seed)
	var c gate
	if err := runProbes(w, r); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	rateDur := cfg.share(0.35)
	sched := schedule(cfg.seed, w.rate, rateDur, w.readFrac)

	g, err := setup(w, false, true)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer g.close()
	g.warmUp(cfg, 0.1)
	before, rtBefore := g.snapshot(), readRuntime()
	msgs, bytes, resends := g.net.msgs.Load(), g.net.bytes.Load(), g.resends()
	rate := g.openLoop(sched, rateDur, nil)
	after, rtAfter := g.snapshot(), readRuntime()
	msgs, bytes, resends = g.net.msgs.Load()-msgs, g.net.bytes.Load()-bytes, g.resends()-resends
	peak := g.closedLoop(cfg.seed, cfg.share(0.15), w.clients)
	c.checkPass("rate", rate, true)
	c.checkPass("peak", peak, false)
	c.checkQuiet(g)
	g.verify(&c)
	g.close()
	r.tally("rate", rate)
	r.tally("peak", peak)
	counterMetrics(r, g, delta(after, before), rate, msgs, bytes)
	clientMetrics(r, w, rate, peak, resends)
	runtimeMetrics(r, rtBefore, rtAfter, rate)
	// Per-layer times are as the clock read them; this is how slow the host
	// was while it did (speed.go).
	r.set("host.slowdown_x", "ratio", rate.slowdown)

	tg, err := setup(w, true, false)
	if err != nil {
		return nil, fmt.Errorf("%s: traced setup: %w", w.name, err)
	}
	defer tg.close()
	tg.warmUp(cfg, 0.05)
	for _, n := range tg.nodes {
		n.ResetStats() // the tracer's stage table has no other epoch boundary
	}
	tBefore := tg.snapshot()
	traced := tg.openLoop(sched, rateDur, nil)
	tAfter := tg.snapshot()
	stages := tg.nodes[0].StageLatencies()
	c.checkPass("traced", traced, true)
	c.checkQuiet(tg)
	r.tally("traced", traced)
	td := delta(tAfter, tBefore)
	eventMetrics(r, w, td, traced)
	if v := total(td, "splitbft_view_changes_total"); v > 0 {
		c.failf("%v view changes on a fault-free traced pass", v)
	}
	r.set("obs.spans", "count", float64(stageMetrics(r, stages)))
	untracedP50 := quantile(latencies(rate.samples, all), 0.50)
	r.set("obs.trace_overhead_frac", "ratio", (quantile(latencies(traced.samples, all), 0.50)-untracedP50)/untracedP50)
	if err := writeTrace(cfg, w, traced, tBefore, tAfter, stages); err != nil {
		return nil, err
	}
	if w.persist {
		recoveryPass(tg, cfg, r, &c)
	} else {
		tg.verify(&c)
	}
	tg.close()

	if w.pbftRef {
		if err := pbftReference(w, cfg, r, &c, peak.opsPerSec()); err != nil {
			return nil, err
		}
	}
	r.finish(&c)
	return r, nil
}
