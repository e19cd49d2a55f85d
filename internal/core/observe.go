package core

import (
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/obs"
)

// compartmentRoles is the order NewReplica builds the compartments' enclaves,
// verifiers and caches in, and the emission order of per-compartment series.
var compartmentRoles = [3]crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution}

// EventStats are the protocol-event counters the untrusted environment
// keeps outside the enclaves (the obs registry exposes them as series; this
// struct is the programmatic view). The broker counts each from the messages
// it forwards: its own view estimate, and the type of every Execution
// output, so nothing is read from enclave memory and an output a WAL replay
// discards counts nothing.
type EventStats struct {
	// ViewChanges counts advances of this replica's view estimate —
	// observed NewView messages and its own suspicion-driven bumps.
	ViewChanges uint64
	// LeaseRefusals counts leased reads the Execution compartment refused
	// to serve locally (an absent or expired lease, also one that lapsed
	// while the read waited for its frontier, a full queue, an op that is
	// not read-only) — each one fell back to the agreement path.
	LeaseRefusals uint64
	// ReadIndexes counts read-index confirmation rounds this replica
	// started as lease holder.
	ReadIndexes uint64
	// StallFetches counts the BatchFetches the broker forwarded: Execution
	// held a commit certificate without the batch body at two queries in a
	// row and the broker asked peers for it.
	StallFetches uint64
	// ProbesSent counts the StateProbes the broker forwarded — the rejoin
	// nudge its period query asked for and the ask for state behind a
	// stable certificate — and ProbesAnswered the StateReplys this replica
	// sent in answer to peers' probes.
	ProbesSent     uint64
	ProbesAnswered uint64
}

// Events returns the untrusted-side protocol-event counters.
func (r *Replica) Events() EventStats {
	return EventStats{
		ViewChanges:    r.broker.mViewChanges.Load(),
		LeaseRefusals:  r.broker.mLeaseRefusals.Load(),
		ReadIndexes:    r.broker.mReadIndexes.Load(),
		StallFetches:   r.broker.mStallFetches.Load(),
		ProbesSent:     r.broker.mProbesSent.Load(),
		ProbesAnswered: r.broker.mProbesAnswered.Load(),
	}
}

// compartmentName is the full paper name of a compartment's role, used as
// the metrics label and healthz key; Role.String() is the short wire form.
func compartmentName(role crypto.Role) string {
	switch role {
	case crypto.RolePreparation:
		return "preparation"
	case crypto.RoleConfirmation:
		return "confirmation"
	case crypto.RoleExecution:
		return "execution"
	}
	return role.String()
}

// EnclavesAlive reports per-compartment liveness keyed by the full
// compartment name: false once the enclave was crashed by fault injection
// (a real deployment would ask the hypervisor whether the enclave process
// still runs).
func (r *Replica) EnclavesAlive() map[string]bool {
	out := make(map[string]bool, len(r.enclaves))
	for i, enc := range r.enclaves {
		out[compartmentName(compartmentRoles[i])] = !enc.Crashed()
	}
	return out
}

// WALError returns the first sticky write failure across the
// per-compartment durability stores, nil when persistence is off or
// healthy.
func (r *Replica) WALError() error {
	for _, role := range compartmentRoles {
		cs, ok := r.stores[role]
		if !ok {
			continue
		}
		if err := cs.st.Failed(); err != nil {
			return err
		}
	}
	return nil
}

// ResetAllStats zeroes every stat surface this replica owns in one call:
// the per-compartment ecall statistics, the verify-cache counters (cached
// entries are kept), the crypto-op and local-read counters, the broker's
// message counters, the protocol-event counters, and the request tracer.
// Zeroing them at slightly different times would mix measurement epochs,
// so this is the only reset entry point.
func (r *Replica) ResetAllStats() {
	for _, enc := range r.enclaves {
		enc.ResetStats()
	}
	for _, c := range r.caches {
		c.Reset()
	}
	for _, v := range r.vers {
		v.ResetStats()
	}
	if r.counter != nil {
		r.counter.ResetCreates()
	}
	b := r.broker
	b.mReplies.Store(0)
	b.mBatches.Store(0)
	b.mRefusedWindow.Store(0)
	b.mRefusedFence.Store(0)
	b.mSuspects.Store(0)
	b.mGarbage.Store(0)
	b.mDeduped.Store(0)
	b.mViewChanges.Store(0)
	b.mLocalReads.Store(0)
	b.mLeaseRefusals.Store(0)
	b.mReadIndexes.Store(0)
	b.mStallFetches.Store(0)
	b.mProbesSent.Store(0)
	b.mProbesAnswered.Store(0)
	r.cfg.Obs.Trace().Reset()
}

// registerObs publishes every existing stat surface into the
// observability registry as pull-style collectors: the hot paths keep
// their cheap atomics and the registry reads them only when scraped.
// Called once from NewReplica; on a restart the facade drops the dead
// replica's collectors before the new replica re-registers.
func (r *Replica) registerObs() {
	reg := r.cfg.Obs.Registry()
	if reg == nil {
		return
	}
	reg.Collect(func(emit func(name string, value float64)) {
		for _, role := range compartmentRoles {
			c := compartmentName(role)
			s := r.Enclave(role).Stats()
			emit(obs.Label("splitbft_ecalls_total", "compartment", c), float64(s.Count))
			emit(obs.Label("splitbft_ecall_msgs_total", "compartment", c), float64(s.Msgs))
			emit(obs.Label("splitbft_ecall_time_ns_total", "compartment", c), float64(s.Total))
		}
		for i, v := range r.vers {
			c := compartmentName(compartmentRoles[i])
			s := v.Stats()
			emit(obs.Label("splitbft_sig_verifies_total", "compartment", c), float64(s.SigVerifies))
			emit(obs.Label("splitbft_sig_verify_ns_total", "compartment", c), float64(s.SigTime))
			emit(obs.Label("splitbft_mac_verifies_total", "compartment", c), float64(s.MACVerifies))
			emit(obs.Label("splitbft_counter_verifies_total", "compartment", c), float64(s.CounterVerifies))
			emit(obs.Label("splitbft_lease_verifies_total", "compartment", c), float64(s.LeaseVerifies))
		}
		for i, vc := range r.caches {
			c := compartmentName(compartmentRoles[i])
			s := vc.Stats()
			emit(obs.Label("splitbft_verify_cache_hits_total", "compartment", c), float64(s.Hits))
			emit(obs.Label("splitbft_verify_cache_misses_total", "compartment", c), float64(s.Misses))
		}
		for _, role := range compartmentRoles {
			cs, ok := r.stores[role]
			if !ok {
				continue
			}
			c := compartmentName(role)
			s := cs.st.Stats()
			emit(obs.Label("splitbft_wal_appends_total", "compartment", c), float64(s.Appended))
			emit(obs.Label("splitbft_wal_fsyncs_total", "compartment", c), float64(s.Fsyncs))
			emit(obs.Label("splitbft_wal_segments", "compartment", c), float64(s.Segments))
			emit(obs.Label("splitbft_wal_snapshot_index", "compartment", c), float64(s.SnapshotIndex))
		}
		emit("splitbft_executed_ops_total", float64(r.ExecutedOps()))
		emit("splitbft_batches_total", float64(r.Batches()))
		emit(obs.Label("splitbft_batches_refused_total", "reason", "window"), float64(r.broker.mRefusedWindow.Load()))
		emit(obs.Label("splitbft_batches_refused_total", "reason", "fence"), float64(r.broker.mRefusedFence.Load()))
		emit("splitbft_suspects_total", float64(r.Suspects()))
		emit("splitbft_dedup_drops_total", float64(r.DedupedMsgs()))
		emit("splitbft_garbage_drops_total", float64(r.DroppedGarbage()))
		emit("splitbft_view_changes_total", float64(r.broker.mViewChanges.Load()))
		emit("splitbft_persisted_blocks_total", float64(r.PersistedBlocks()))
		emit("splitbft_lease_grants_total", float64(r.LeaseGrants()))
		emit("splitbft_counter_creates_total", float64(r.CounterCreates()))
		emit("splitbft_local_reads_total", float64(r.LocalReads()))
		ev := r.Events()
		emit("splitbft_lease_refusals_total", float64(ev.LeaseRefusals))
		emit("splitbft_read_index_rounds_total", float64(ev.ReadIndexes))
		emit("splitbft_stall_fetches_total", float64(ev.StallFetches))
		emit("splitbft_state_probes_sent_total", float64(ev.ProbesSent))
		emit("splitbft_state_probes_answered_total", float64(ev.ProbesAnswered))
		emit("splitbft_recovery_snapshots", float64(r.recovery.Snapshots))
		emit("splitbft_recovery_wal_records", float64(r.recovery.WALRecords))
		emit("splitbft_recovery_replay_ns", float64(r.recovery.Replay))
	})
	reg.OnReset(r.ResetAllStats)
}
