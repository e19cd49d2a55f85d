package chaos

import (
	"fmt"
	"sync"
	"time"
)

// history records the live workload's operation history per key and checks
// per-key linearizability online, as each read completes.
//
// The workload gives the checker a tractable shape: each key has a single
// writer that writes strictly increasing integer values and keeps at most
// one write outstanding (it retries a value until acknowledged before
// moving on). Over such a register, linearizability reduces to four
// checkable conditions on every read:
//
//  1. the value returned was actually written (it is ≤ the highest value
//     whose write had begun before the read returned);
//  2. the value is ≥ the highest value acknowledged before the read began
//     (acknowledged writes are visible in real-time order);
//  3. reads ordered in real time are monotonic: a read starting after an
//     earlier read completed must not observe less;
//  4. values regress nowhere else — implied by 1–3 and the single-writer
//     discipline.
//
// Timestamps are taken conservatively (write acknowledgements stamped
// after Invoke returns, read invocations stamped before the call), so
// every condition errs lenient: the checker can miss a marginal
// violation but never fabricates one.
type history struct {
	mu   sync.Mutex
	keys map[string]*keyHistory
}

type keyHistory struct {
	// maxInvoked is the highest value whose write has begun.
	maxInvoked uint64
	// acks is the acknowledgement frontier: (time, value) pairs, both
	// strictly increasing — the single writer acks in value order.
	acks []ackPoint
	// maxObserved is the highest value any completed read returned, and
	// observedAt when that read completed: later-starting reads must not
	// observe less.
	maxObserved uint64
	observedAt  time.Time
}

type ackPoint struct {
	at time.Time
	v  uint64
}

func newHistory() *history {
	return &history{keys: make(map[string]*keyHistory)}
}

func (h *history) forKey(key string) *keyHistory {
	kh := h.keys[key]
	if kh == nil {
		kh = &keyHistory{}
		h.keys[key] = kh
	}
	return kh
}

// writeInvoked records that the writer began writing value v to key.
func (h *history) writeInvoked(key string, v uint64) {
	h.mu.Lock()
	kh := h.forKey(key)
	if v > kh.maxInvoked {
		kh.maxInvoked = v
	}
	h.mu.Unlock()
}

// writeAcked records that the write of value v to key was acknowledged.
func (h *history) writeAcked(key string, v uint64) {
	now := time.Now()
	h.mu.Lock()
	kh := h.forKey(key)
	if len(kh.acks) == 0 || v > kh.acks[len(kh.acks)-1].v {
		kh.acks = append(kh.acks, ackPoint{at: now, v: v})
	}
	h.mu.Unlock()
}

// readDone checks a completed read of key that began at start and
// returned value v (0 = key absent). A nil return means the read is
// consistent; otherwise the returned string describes the offending
// history fragment.
func (h *history) readDone(key string, start time.Time, v uint64) *string {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	kh := h.forKey(key)
	// Condition 1: the value must have been written (invocation order:
	// maxInvoked is read after the read completed, so it can only
	// overestimate what was available — lenient).
	if v > kh.maxInvoked {
		s := fmt.Sprintf("read %q=%d but the highest value ever written is %d — value from nowhere", key, v, kh.maxInvoked)
		return &s
	}
	// Condition 2: every write acknowledged before the read began must be
	// visible. Find the newest ack at or before start.
	floor := uint64(0)
	for i := len(kh.acks) - 1; i >= 0; i-- {
		if !kh.acks[i].at.After(start) {
			floor = kh.acks[i].v
			break
		}
	}
	if v < floor {
		s := fmt.Sprintf("read %q=%d began after value %d was acknowledged — stale read (acked frontier %d entries, maxInvoked %d)",
			key, v, floor, len(kh.acks), kh.maxInvoked)
		return &s
	}
	// Condition 3: reads ordered in real time are monotonic.
	if v < kh.maxObserved && start.After(kh.observedAt) {
		s := fmt.Sprintf("read %q=%d began after an earlier read observed %d — non-monotonic reads", key, v, kh.maxObserved)
		return &s
	}
	if v > kh.maxObserved {
		kh.maxObserved = v
		kh.observedAt = now
	}
	return nil
}

// summary renders the per-key frontier state for violation dumps.
func (h *history) summary() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.keys))
	for key, kh := range h.keys {
		acked := uint64(0)
		if len(kh.acks) > 0 {
			acked = kh.acks[len(kh.acks)-1].v
		}
		out = append(out, fmt.Sprintf("key %q: invoked≤%d acked≤%d observed≤%d", key, kh.maxInvoked, acked, kh.maxObserved))
	}
	return out
}
