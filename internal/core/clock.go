package core

import (
	"sync/atomic"
	"time"
)

// SkewClock is the lease-path time source: real time plus an adjustable
// offset. The protocol's lease safety argument assumes bounded clock skew
// between granter and holders; chaos testing injects skew here — per
// replica — to probe that bound. A nil *SkewClock reads real time, so the
// hook is free when unused.
//
// Only the lease machinery (grant freshness, holder-side validity, the
// new-primary write fence) consults this clock: it is where absolute time
// carries safety weight. Failure-detector and batching timers deliberately
// keep reading real time — skewing those models nothing the timeout
// configuration doesn't already cover.
type SkewClock struct {
	off atomic.Int64 // nanoseconds added to real time
}

// Now returns the possibly-skewed current time.
func (c *SkewClock) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	return time.Now().Add(time.Duration(c.off.Load()))
}

// SetSkew replaces the clock's offset.
func (c *SkewClock) SetSkew(d time.Duration) { c.off.Store(int64(d)) }
