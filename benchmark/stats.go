package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (NaN for no data).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the acceptance rule for this benchmark measures run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	data := sorted(v)
	n := len(data)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the sorted latencies in milliseconds of the completed
// samples that keep selects.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && keep(s) {
			out = append(out, ms(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

func all(sample) bool      { return true }
func reads(s sample) bool  { return s.read }
func writes(s sample) bool { return !s.read }

// window is the length of the slices a pass is cut into.
const window = 250 * time.Millisecond

// windows is the number of whole windows in the pass (at least one).
func (p *pass) windows() int {
	return max(1, int(p.dur/window))
}

// windowQuantile cuts the pass into windows by due time, takes the
// q-quantile of latency inside each, and returns the lower quartile over
// windows. Interference from the machine's other tenants and the system's
// own periodic work (a checkpoint stall every second or two on the durable
// workload) only ever make a window slower, and on the seed they put the
// whole-pass p90 on a cliff: it lands inside or outside the stalls from
// one run to the next. The quiet quartile is the latency of the system
// when nothing else is happening to it, which is what a change to the
// code path moves; the stalls stay visible in client.lat_p99_ms and in the
// whole-pass cpu_ms_per_op.
func (p *pass) windowQuantile(q float64) float64 {
	buckets := make([][]sample, p.windows())
	for _, s := range p.samples {
		i := min(int(s.due/window), len(buckets)-1)
		buckets[i] = append(buckets[i], s)
	}
	var per []float64
	for _, b := range buckets {
		if lat := latencies(b, all); len(lat) > 0 {
			per = append(per, quantile(lat, q))
		}
	}
	return quantile(sorted(per), 0.25)
}

// quietOpsPerSec is the throughput counterpart of windowQuantile: the
// completions of each window of the pass as a rate, and the upper quartile
// over windows (a disk stall or a neighbour only ever empties a window).
func (p *pass) quietOpsPerSec() float64 {
	counts := make([]float64, p.windows())
	width := min(window, p.dur)
	for _, s := range p.samples {
		if i := int(s.done / width); s.ok && i < len(counts) {
			counts[i] += 1 / width.Seconds()
		}
	}
	return quantile(sorted(counts), 0.75)
}

// opsPerSec is the pass's completion rate, start to last completion.
func (p *pass) opsPerSec() float64 {
	_, _, _, completed := p.counts()
	return float64(completed) / p.elapsed.Seconds()
}

// cpuMsPerOp is the process CPU time (user+sys) per completed op.
func (p *pass) cpuMsPerOp() float64 {
	_, _, _, completed := p.counts()
	return ratio(ms(p.cpu), float64(completed))
}

// counts tallies a pass: requests attempted (issued or dropped at the
// door), failed (errors, timeouts, drops, wrong results) and wrong.
func (p *pass) counts() (attempted, failed, wrong, completed int) {
	attempted = len(p.samples) + p.dropped
	for _, s := range p.samples {
		switch {
		case s.ok:
			completed++
		case s.wrong:
			wrong++
		}
	}
	return attempted, attempted - completed, wrong, completed
}
