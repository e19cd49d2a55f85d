package main

import (
	"time"

	"github.com/splitbft/splitbft"
)

// recoverySeed separates the recovery pass's schedule from the measured one.
const recoverySeed = 0xc4a5

// recoveryPass measures the one fault that repeats on a shared box: under
// a running open-loop load it crashes a backup (its un-fsynced WAL tail is
// dropped), leaves it down, restarts it over its sealed store, and times
// how long the node takes to hold the last write acknowledged before the
// restart. The correctness gate then runs over all replicas, the
// recovered one included. Per-layer metrics only.
func recoveryPass(g *group, cfg config, r *result, c *gate) {
	victim := g.w.n - 1 // a backup: replica 0 is the primary of view 0
	// The load runs until the node has caught up (state transfer rides on
	// checkpoints, which only traffic produces) and at least its share of
	// the run; catchUpLimit bounds a node that never does.
	const catchUpLimit = 15 * time.Second
	atLeast := cfg.share(0.3)
	longest := atLeast + catchUpLimit
	halt, loaded := make(chan struct{}), make(chan *pass)
	go func() {
		loaded <- g.openLoop(schedule(cfg.seed^recoverySeed, g.w.rate, longest, g.w.readFrac), longest, halt)
	}()
	started := time.Now()
	time.Sleep(cfg.share(0.05))
	g.cluster.CrashNode(victim)
	time.Sleep(cfg.share(0.1))

	// holds waits up to limit for the restarted node to hold an
	// acknowledged write (key<<32 | version, as keyspace.lastAck packs it).
	holds := func(ack uint64, limit time.Duration) bool {
		key, version := int(ack>>32), ack&0xffffffff
		for deadline := time.Now().Add(limit); ; time.Sleep(time.Millisecond) {
			val, _ := g.stores()[victim].Get(g.keys.names[key])
			if v, ok := g.keys.version(key, val); ok && v >= version {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
		}
	}
	target := g.keys.lastAck.Load()
	begin := time.Now()
	var rs splitbft.RecoveryStats
	var catchUp time.Duration
	caughtUp := false
	if err := g.cluster.RestartNode(victim); err != nil {
		c.failf("restart of replica %d: %v", victim, err)
	} else {
		rs = g.nodes[victim].RecoveryStats()
		caughtUp = holds(target, catchUpLimit)
		catchUp = time.Since(begin)
		// State transfer lands the node on a checkpoint; keep the load
		// running until it follows the live stream too, or the writes after
		// that checkpoint never reach it once the load stops.
		for live := false; caughtUp && !live && time.Since(begin) < catchUpLimit; {
			live = holds(g.keys.lastAck.Load(), 100*time.Millisecond)
		}
	}
	time.Sleep(time.Until(started.Add(atLeast)))
	close(halt)
	p := <-loaded
	if !caughtUp {
		c.failf("replica %d did not catch up within %v of its restart", victim, catchUpLimit)
	}
	c.checkPass("recovery", p, true)
	r.tally("recovery", p)
	lost := g.verify(c)

	r.set("store.recovery_total_ms", "ms", ms(rs.Total))
	r.set("store.recovery_replay_ms", "ms", ms(rs.Replay))
	r.set("store.recovery_wal_records", "count", float64(rs.WALRecords))
	r.set("core.catchup_ms", "ms", ms(catchUp))
	r.set("store.lost_acked_writes", "count", float64(lost))
}
