package main

import (
	"fmt"
	"time"
)

// gate collects correctness violations of one run; any violation marks
// the workload failed and the command exits non-zero.
type gate struct {
	violations []string
	wrong      int // wrong results, also counted as failed requests
}

// maxViolations caps the list: one lost replica is a thousand lost keys.
const maxViolations = 20

func (c *gate) failf(format string, args ...any) {
	switch {
	case len(c.violations) < maxViolations:
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	case len(c.violations) == maxViolations:
		c.violations = append(c.violations, "further violations not listed")
	}
}

func (c *gate) ok() bool { return len(c.violations) == 0 }

// agree waits up to timeout for every replica's application digest to match.
func (g *group) agree(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		stores := g.stores()
		agree := true
		for _, s := range stores[1:] {
			if s.Digest() != stores[0].Digest() {
				agree = false
				break
			}
		}
		if agree || time.Now().After(deadline) {
			return agree
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verify runs the state half of the correctness gate after the load has
// stopped: all replicas' digests are equal, and every key on every replica
// holds a well-formed value no older than its last acknowledged PUT and no
// newer than the last one issued. It returns the number of acknowledged
// writes a replica lacks.
func (g *group) verify(c *gate) (lost int) {
	if !g.agree(10 * time.Second) {
		c.failf("replica digests differ after quiescing")
	}
	ks := g.keys
	for i, s := range g.stores() {
		for k, name := range ks.names {
			val, _ := s.Get(name)
			v, valid := ks.version(k, val)
			switch acked := ks.acked[k].Load(); {
			case !valid:
				c.failf("replica %d holds a malformed value for %s", i, name)
				c.wrong++
			case v < acked:
				c.failf("replica %d lost acknowledged write %s v%d (holds v%d)", i, name, acked, v)
				c.wrong++
				lost++
			case v > ks.sent[k]:
				c.failf("replica %d holds %s v%d, never issued (last v%d)", i, name, v, ks.sent[k])
				c.wrong++
			}
		}
	}
	return lost
}

// checkPass runs the request half of the gate on a finished pass: no
// wrong read results, and (open loop) at least 99 % of the offered requests
// completed. The queue in front of the clients is bounded, so a backlog
// that keeps growing overflows it and shows here as drops.
func (c *gate) checkPass(name string, p *pass, openLoop bool) {
	_, _, wrong, completed := p.counts()
	if wrong > 0 {
		c.failf("%s pass: %d reads returned a value older than one acknowledged before them", name, wrong)
		c.wrong += wrong
	}
	if openLoop && float64(completed) < 0.99*float64(p.offered) {
		c.failf("%s pass: completed %d of %d offered requests (< 99 %%: growing backlog or failures)", name, completed, p.offered)
	}
}

// checkQuiet asserts the failure detector never fired: fault-free passes
// must end without suspicion, so without a view change.
func (c *gate) checkQuiet(g *group) {
	var suspects uint64
	for _, n := range g.nodes {
		suspects += n.Suspects()
	}
	if suspects > 0 {
		c.failf("failure detector fired %d times on a fault-free run", suspects)
	}
}
