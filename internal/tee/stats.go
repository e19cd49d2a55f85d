package tee

import (
	"sync"
	"time"
)

// ECallStats accumulates per-enclave ecall timing, the instrumentation
// behind Figure 4 (average ecall latency per compartment). A "call" is one
// trusted-boundary crossing (Invoke or InvokeBatch); one call may deliver
// many messages, so messages are counted separately.
type ECallStats struct {
	mu    sync.Mutex
	count uint64 // boundary crossings
	msgs  uint64 // messages delivered across them
	total time.Duration
	max   time.Duration
}

// start records the beginning of a crossing delivering n messages and
// returns the function that completes the measurement. The caller holds
// the enclave execution lock, but stats have their own lock so snapshots
// don't block execution.
func (s *ECallStats) start(n int) func() {
	begin := time.Now()
	return func() {
		d := time.Since(begin)
		s.mu.Lock()
		s.count++
		s.msgs += uint64(n)
		s.total += d
		if d > s.max {
			s.max = d
		}
		s.mu.Unlock()
	}
}

func (s *ECallStats) snapshot() ECallSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := ECallSnapshot{Count: s.count, Msgs: s.msgs, Total: s.total, Max: s.max}
	if s.count > 0 {
		snap.Mean = s.total / time.Duration(s.count)
	}
	return snap
}

func (s *ECallStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count, s.msgs, s.total, s.max = 0, 0, 0, 0
}

// ECallSnapshot is a point-in-time copy of an enclave's ecall statistics.
type ECallSnapshot struct {
	// Count is the number of trusted-boundary crossings; Msgs the number
	// of messages they delivered. Msgs/Count is the achieved amortization
	// (1.0 when every crossing found a single message waiting).
	Count uint64
	Msgs  uint64
	Total time.Duration
	Mean  time.Duration
	Max   time.Duration
}

// MsgsPerCall returns the achieved batch amortization factor.
func (s ECallSnapshot) MsgsPerCall() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Msgs) / float64(s.Count)
}
