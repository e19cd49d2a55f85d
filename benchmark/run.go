package main

import (
	"fmt"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the last line of standard output in
// the form the benchmark contract fixes, plus what explains a failure.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Violations []string          `json:"violations,omitempty"`
	Passes     []string          `json:"passes"`

	names []string // emission order, for printing
}

func newResult(w workload, seed int64) *result {
	return &result{Workload: w.name, Seed: seed, Metrics: make(map[string]metric)}
}

func (r *result) set(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally adds a pass's requests to the run's attempted and failed counts.
func (r *result) tally(name string, p *pass) {
	attempted, failed, wrong, _ := p.counts()
	r.Attempted += attempted
	r.Failed += failed
	r.Passes = append(r.Passes, fmt.Sprintf("%s pass %.1fs: attempted %d, failed %d (dropped at the door %d, wrong results %d)",
		name, p.dur.Seconds(), attempted, failed, p.dropped, wrong))
}

// finish folds the gate's verdict into the result. Wrong replica state
// counts as failed requests too, so it shows in failed/attempted as well
// as in correct.
func (r *result) finish(c *gate) {
	r.Correct = c.ok()
	r.Violations = c.violations
	r.Failed += c.wrong
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
}

// config is what the command line fixes for every run.
type config struct {
	seed    int64
	seconds float64 // measured seconds per run, split between its passes
	setups  int     // setup passes per end-to-end run; setup_s is their median
	out     string
}

// share is a fraction of the run's measured seconds.
func (c config) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// warmSeed separates the warm-up's arrival schedule from the measured one.
const warmSeed = 0x5eed

// warmUp runs the workload's open loop unmeasured: caches fill, the
// runtime sizes its heap, and the lease and batch timers reach their cycle.
func (g *group) warmUp(cfg config, f float64) {
	d := cfg.share(f)
	g.openLoop(schedule(cfg.seed^warmSeed, g.w.rate, d, g.w.readFrac), d, nil)
}

// soloSeed separates the solo pass's key sequence from the peak pass's.
const soloSeed = 0x5010

// maxStolen is the share of the CPU time the VM asked for that the
// hypervisor may withhold during a pass before the pass is measured again.
// Closed-loop passes read 0-5 % (13 % once over TCP) hour after hour; now and
// then, for ten or twenty seconds, the host takes half, everything runs at
// a third of its speed, and no arithmetic afterwards recovers what the
// program did. A second attempt is usually past it; a pass is repeated once
// at most, so a run stays inside its time limit on a host that never calms.
const maxStolen = 0.2

// undisturbed measures a pass, once more if the hypervisor withheld more
// than maxStolen of it, tallies every attempt, and returns the less
// disturbed one.
func undisturbed(r *result, c *gate, name string, measure func() *pass) *pass {
	best := measure()
	r.tally(name, best)
	c.checkPass(name, best, false)
	if best.stolen > maxStolen {
		again := measure()
		r.tally(name+" (again: hypervisor withheld "+fmt.Sprintf("%.0f %%", 100*best.stolen)+")", again)
		c.checkPass(name, again, false)
		if again.stolen < best.stolen {
			best = again
		}
	}
	return best
}

// runEndToEnd is the untraced run: setup (several times, for a steady
// setup_s), warm-up, the solo and peak closed-loop passes, then the
// correctness gate. Closed loops only: they slow down with a slow host
// where an open loop overflows, so no request fails for the neighbours'
// sake. Nothing here observes a layer; the speed probe beside each pass
// observes the host.
func runEndToEnd(w workload, cfg config) (*result, error) {
	r := newResult(w, cfg.seed)
	var g *group
	var setupS, setupRaw []float64
	for i := 0; i < cfg.setups; i++ {
		if g != nil {
			g.close()
		}
		probe, begin := startSpeedProbe(), time.Now()
		var err error
		g, err = setup(w, false, false)
		took := time.Since(begin).Seconds()
		slowdown, _ := probe.stop()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS, setupRaw = append(setupS, took/slowdown), append(setupRaw, took)
	}
	defer g.close()

	g.warmUp(cfg, 0.1)
	var c gate
	solo := undisturbed(r, &c, "solo", func() *pass {
		return g.closedLoop(cfg.seed^soloSeed, cfg.share(0.55), w.soloClients())
	})
	peak := undisturbed(r, &c, "peak", func() *pass {
		return g.closedLoop(cfg.seed, cfg.share(0.45), w.clients)
	})
	c.checkQuiet(g)
	g.verify(&c)

	// Times are divided by the host's slowdown over the same pass (speed.go).
	r.set("setup_s", "s", median(setupS))
	r.set("lat_p50_ms", "ms", solo.windowQuantile(0.50)/solo.slowdown)
	r.set("lat_p90_ms", "ms", solo.windowQuantile(0.90)/solo.slowdown)
	r.set("peak_ops_s", "ops/s", peak.quietOpsPerSec()*peak.slowdown)
	r.set("cpu_ms_per_op", "ms", solo.cpuMsPerOp()/solo.slowdown)
	// The same figures as the clock read them, and the state of the host.
	r.set("host.solo_slowdown_x", "ratio", solo.slowdown)
	r.set("host.peak_slowdown_x", "ratio", peak.slowdown)
	r.set("host.solo_stolen_frac", "ratio", solo.stolen)
	r.set("host.peak_stolen_frac", "ratio", peak.stolen)
	r.set("raw.setup_s", "s", median(setupRaw))
	r.set("raw.lat_p50_ms", "ms", solo.windowQuantile(0.50))
	r.set("raw.lat_p90_ms", "ms", solo.windowQuantile(0.90))
	r.set("raw.peak_ops_s", "ops/s", peak.quietOpsPerSec())
	r.set("raw.cpu_ms_per_op", "ms", solo.cpuMsPerOp())
	r.finish(&c)
	return r, nil
}
