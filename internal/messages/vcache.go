package messages

import (
	"sync"
	"sync/atomic"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/genset"
)

// verifyKey identifies one successful signature verification: the signer
// identity plus a digest binding the signed bytes and the signature value.
type verifyKey struct {
	signer crypto.Identity
	sum    crypto.Digest
}

// VerifyCache memoizes successful signature verifications, keyed by
// (digest, signer), so a (message, signature, signer) triple pays the
// Ed25519 cost once. The repeats that profit are retransmits and
// view-change replays (the same Prepares, Commits and
// certificate-embedded PrePrepares verified again and again).
//
// Only successes are cached: a forged signature is recomputed (and
// rejected) every time, so an attacker cannot poison the cache, and a key
// replaced in the Registry cannot resurrect stale failures. Eviction is
// generational (genset.Set) with promotion for entries in active use;
// everything an entry attests is a pure function of (bytes, signature,
// registered key), so eviction is only ever a performance event.
//
// The cache is safe for concurrent use; in SplitBFT each compartment owns
// its own cache, mirroring the paper's rule that compartments share no
// state.
type VerifyCache struct {
	mu         sync.Mutex
	set        *genset.Set[verifyKey]
	hits, miss atomic.Uint64
}

// NewVerifyCache returns a cache holding roughly `entries` verifications.
// entries <= 0 picks a default suited to a replica's in-flight window.
func NewVerifyCache(entries int) *VerifyCache {
	if entries <= 0 {
		entries = 8192
	}
	return &VerifyCache{set: genset.New[verifyKey](entries)}
}

// lookup reports whether k is cached, counting the hit or miss.
func (c *VerifyCache) lookup(k verifyKey) bool {
	c.mu.Lock()
	ok := c.set.ContainsPromote(k)
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.miss.Add(1)
	}
	return ok
}

// store records a successful verification.
func (c *VerifyCache) store(k verifyKey) {
	c.mu.Lock()
	c.set.Add(k)
	c.mu.Unlock()
}

// VerifyCacheStats is a point-in-time snapshot of cache effectiveness:
// hits are signature checks whose Ed25519 scalar multiplication was
// skipped entirely.
type VerifyCacheStats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 when nothing was looked up.
func (s VerifyCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cumulative hit/miss counters.
func (c *VerifyCache) Stats() VerifyCacheStats {
	return VerifyCacheStats{Hits: c.hits.Load(), Misses: c.miss.Load()}
}

// Reset zeroes the hit/miss counters (between benchmark phases). Cached
// entries are kept: resetting effectiveness accounting must not cost
// recomputation.
func (c *VerifyCache) Reset() {
	c.hits.Store(0)
	c.miss.Store(0)
}
