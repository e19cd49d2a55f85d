package splitbft

import (
	"errors"
	"fmt"
	"time"

	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/core"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/transport"
)

// Node is one SplitBFT replica: three compartment enclaves (Preparation,
// Confirmation, Execution) plus the untrusted broker, bound to a
// transport. Build standalone TCP nodes with NewNode; in-process groups
// with NewCluster.
type Node struct {
	id      uint32
	opts    options
	reg     *crypto.Registry
	app     Application
	replica *core.Replica

	started bool
	stopped bool
	tcp     *transport.TCPNode
	conn    transport.Conn

	// observer is the node's observability spine (nil without
	// WithObservability); it survives restarts so measurement epochs span
	// a node's whole lifetime, while each rebuilt replica re-registers its
	// collectors against it. metrics is the opt-in HTTP introspection
	// endpoint (nil without WithMetricsAddr or while not started).
	observer *obs.Observer
	metrics  *obs.Server

	// clock and disk are the chaos fault-injection handles. Both live on
	// the Node, not the replica, so injected skew and disk faults survive
	// Restart (each rebuilt replica is handed the same objects) — a chaos
	// plan that skews a clock and later restarts the node keeps the skew,
	// matching a machine whose system clock is simply wrong.
	clock *compartment.SkewClock
	disk  *store.FaultInjector
}

// EnclaveStat is one compartment's ecall profile (the Figure 4
// instrumentation). Count is the number of trusted-boundary crossings;
// Msgs the messages they delivered — a crossing carries everything that
// was queued for the compartment when it started (up to a fixed cap), so
// Msgs/Count is the achieved amortization: 1.0 on an idle replica, higher
// under load.
type EnclaveStat struct {
	Role  Role
	Count uint64
	Msgs  uint64
	Mean  time.Duration
	Total time.Duration
}

// MsgsPerEcall returns the achieved ecall amortization factor (0 before
// any traffic).
func (s EnclaveStat) MsgsPerEcall() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Msgs) / float64(s.Count)
}

// VerifyCacheStats reports how effective a node's signature-verification
// caches are: hits are signature checks whose Ed25519 cost was skipped
// because an identical (message, signature, signer) triple had already
// verified: retransmits and view-change replays.
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

// NewNode builds replica id of a deployment. The transport comes from
// WithTransportTCP (standalone processes; requires WithKeySeed so separate
// processes agree on enclave keys). For in-process groups use NewCluster,
// which wires nodes to a shared simulated network instead.
//
// The node is inert until Start.
func NewNode(id uint32, opts ...Option) (*Node, error) {
	o := buildOptions(opts)
	if o.simnet == nil && len(o.tcpAddrs) == 0 {
		return nil, errors.New("splitbft: NewNode requires WithTransportTCP (or construction through NewCluster)")
	}
	if len(o.tcpAddrs) > 0 && len(o.keySeed) == 0 {
		return nil, errors.New("splitbft: the TCP transport requires WithKeySeed — separate processes cannot otherwise agree on enclave keys")
	}
	if err := o.resolveGroup(); err != nil {
		return nil, err
	}
	if int(id) >= o.n {
		return nil, fmt.Errorf("splitbft: node id %d out of range [0, %d)", id, o.n)
	}
	if o.persistDir != "" && len(o.keySeed) == 0 {
		return nil, errors.New("splitbft: WithPersistence requires WithKeySeed — sealed state must be recoverable under re-derived enclave keys")
	}
	reg := o.registry
	if reg == nil {
		reg = crypto.NewRegistry()
	}
	if len(o.keySeed) > 0 {
		// Pre-register every replica's derived enclave keys. Beyond the
		// multi-process case this matters for recovery: a node restarted
		// before its peers (e.g. a whole cluster rebooting over existing
		// data directories) must be able to verify peer signatures while
		// replaying its WAL.
		if err := core.RegisterDeterministicKeys(reg, o.keySeed, o.n); err != nil {
			return nil, err
		}
	}
	n := &Node{id: id, opts: o, reg: reg, clock: new(compartment.SkewClock), disk: new(store.FaultInjector)}
	if o.obsOn {
		n.observer = obs.NewObserver(o.traceSample)
	}
	if err := n.buildReplica(); err != nil {
		return nil, err
	}
	return n, nil
}

// buildReplica constructs the node's core replica (a fresh application
// instance plus three enclaves); with persistence enabled, construction
// runs recovery before returning.
func (n *Node) buildReplica() error {
	o := &n.opts
	application := o.application()
	// A rebuilt replica registers fresh stat collectors; drop the dead
	// replica's first so the registry never reads freed state (no-op on a
	// nil observer or first build).
	n.observer.Registry().DropCollectors()
	replica, err := core.NewReplica(core.Config{
		Config: compartment.Config{
			N: o.n, F: o.f, ID: n.id,
			MACSecret:          o.secret(),
			Confidential:       o.confidential,
			CheckpointInterval: o.checkpointInterval,
			ReadLeases:         o.readLeases,
			LeaseTTL:           o.leaseTTL,
			Clock:              n.clock,
		},
		Registry:       n.reg,
		KeySeed:        o.keySeed,
		App:            application,
		AgreementAuth:  o.auth,
		ConsensusMode:  o.consensus,
		Cost:           o.costModel(),
		SingleThread:   o.singleThread,
		DataDir:        o.nodeDataDir(n.id),
		BatchSize:      o.batchSize,
		RequestTimeout: o.requestTimeout,
		Obs:            n.observer,
		DiskFaults:     n.disk,
	})
	if err != nil {
		return err
	}
	n.app = application
	n.replica = replica
	return nil
}

// Start attaches the node to its transport and begins processing. It is
// idempotent while running. After Stop or Crash the broker threads are
// gone for good — use Restart, which rebuilds the replica (recovering
// from the durability store when WithPersistence is set) before starting
// again.
func (n *Node) Start() error {
	if n.stopped {
		return errors.New("splitbft: node cannot Start after Stop or Crash — use Restart")
	}
	if n.started {
		return nil
	}
	if n.opts.simnet != nil {
		conn, err := n.opts.simnet.Join(transport.ReplicaEndpoint(n.id), n.replica.Handler())
		if err != nil {
			return err
		}
		n.conn = conn
	} else {
		addrs := make(map[uint32]string, n.opts.n)
		for i, a := range n.opts.tcpAddrs {
			addrs[uint32(i)] = a
		}
		listen := n.opts.listenAddr
		if listen == "" {
			listen = addrs[n.id]
		}
		tcp, err := transport.ListenTCP(transport.ReplicaEndpoint(n.id), listen, addrs, n.replica.Handler())
		if err != nil {
			return fmt.Errorf("splitbft: node %d listen on %q: %w (use WithListenAddr when the advertised address is not locally bindable)", n.id, listen, err)
		}
		n.tcp = tcp
		n.conn = tcp
		n.observeTransport(tcp)
	}
	n.replica.Start(n.conn)
	n.started = true
	if err := n.startMetrics(); err != nil {
		n.Stop()
		return fmt.Errorf("splitbft: node %d metrics endpoint on %q: %w", n.id, n.opts.metricsAddr, err)
	}
	return nil
}

// Stop terminates the node's broker threads, flushes and closes its
// durability stores, and detaches its transport. A stopped node cannot
// Start again, but with WithPersistence it can Restart: recovery rebuilds
// the replica from the sealed stores.
func (n *Node) Stop() {
	n.stopMetrics()
	// A never-started replica still owns resources (durability stores and
	// their directory locks), so release runs regardless of started;
	// stopping an idle broker is a no-op.
	if !n.stopped {
		n.replica.Stop()
	}
	if n.started {
		_ = n.conn.Close()
		n.started = false
	}
	n.stopped = true
}

// Crash kills the node abruptly — the SIGKILL-equivalent fault-injection
// handle behind the recovery scenarios. Unlike Stop, nothing is flushed:
// the durability stores drop their un-fsynced tail — the records whose
// crossings emitted nothing since the last output or snapshot — exactly
// what a real kill would lose. Use Restart to bring the node back.
func (n *Node) Crash() {
	n.stopMetrics()
	if !n.stopped {
		n.replica.Crash()
	}
	if n.started {
		_ = n.conn.Close()
		n.started = false
	}
	n.stopped = true
}

// Restart brings a stopped or crashed node back: it rebuilds the replica —
// with WithPersistence, recovering compartment state from the newest
// sealed snapshot plus a WAL replay — and reattaches the transport. The
// remaining gap (whatever committed while the node was down, plus any
// un-fsynced tail a crash lost) is closed through the ordinary
// checkpoint/state-transfer path once peers' traffic flows again. Without
// persistence the node comes back empty and state-transfers everything,
// like a brand-new replica.
func (n *Node) Restart() error {
	// Always release the previous replica first — even one that never
	// started holds the durability stores open, and two live stores must
	// never own one WAL directory.
	n.Stop()
	if err := n.buildReplica(); err != nil {
		return fmt.Errorf("splitbft: restart node %d: %w", n.id, err)
	}
	n.stopped = false
	n.tcp = nil
	return n.Start()
}

// RecoveryStats reports what the node reconstructed from its durability
// stores when its replica was last built (all zeros without
// WithPersistence, or before any restart wrote state).
type RecoveryStats struct {
	// Snapshots is how many compartments restored a sealed snapshot (0–3).
	Snapshots int
	// WALRecords is the number of write-ahead-log records replayed.
	WALRecords uint64
	// Replay is the time spent replaying them through the enclaves.
	Replay time.Duration
	// Total is the end-to-end recovery time (open, unseal, import,
	// replay).
	Total time.Duration
}

// ReplayOpsPerSec returns the WAL replay throughput (0 before any replay).
func (s RecoveryStats) ReplayOpsPerSec() float64 {
	if s.Replay <= 0 || s.WALRecords == 0 {
		return 0
	}
	return float64(s.WALRecords) / s.Replay.Seconds()
}

// RecoveryStats returns the node's last recovery profile.
func (n *Node) RecoveryStats() RecoveryStats {
	s := n.replica.Recovery()
	return RecoveryStats{
		Snapshots:  s.Snapshots,
		WALRecords: s.WALRecords,
		Replay:     s.Replay,
		Total:      s.Total,
	}
}

// ID returns the node's replica ID.
func (n *Node) ID() uint32 { return n.id }

// Addr returns the TCP listen address ("" for in-process nodes), useful
// when listening on an ephemeral port.
func (n *Node) Addr() string {
	if n.tcp == nil {
		return ""
	}
	return n.tcp.Addr()
}

// App returns this node's application instance, for state inspection in
// tests and examples (e.g. asserting replica digests agree).
func (n *Node) App() Application { return n.app }

// CrashEnclave kills one compartment enclave — the fault-injection handle
// behind the paper's Figure 1 scenario: SplitBFT stays safe with one
// faulty enclave of each type on different replicas, more faults than
// classical BFT's f whole replicas.
func (n *Node) CrashEnclave(role Role) { n.replica.CrashEnclave(role) }

// ExecutedOps returns the number of client operations this node replied
// to.
func (n *Node) ExecutedOps() uint64 { return n.replica.ExecutedOps() }

// Batches returns the number of batches submitted for ordering.
func (n *Node) Batches() uint64 { return n.replica.Batches() }

// Suspects returns how many times the failure detector fired.
func (n *Node) Suspects() uint64 { return n.replica.Suspects() }

// PersistedBlocks returns the number of sealed blocks written through the
// persistence ocall (zero for non-persisting applications).
func (n *Node) PersistedBlocks() int { return n.replica.PersistedBlocks() }

// EnclaveStats returns the per-compartment ecall profile in pipeline order
// (Preparation, Confirmation, Execution).
func (n *Node) EnclaveStats() []EnclaveStat {
	snap := n.replica.EnclaveStats()
	out := make([]EnclaveStat, 0, 3)
	for _, role := range CompartmentRoles() {
		s := snap[role]
		out = append(out, EnclaveStat{Role: role, Count: s.Count, Msgs: s.Msgs, Mean: s.Mean, Total: s.Total})
	}
	return out
}

// VerifyCacheStats returns the node's summed signature-verification cache
// counters across its three compartments.
func (n *Node) VerifyCacheStats() VerifyCacheStats {
	s := n.replica.VerifyCacheStats()
	return VerifyCacheStats{Hits: s.Hits, Misses: s.Misses}
}

// CryptoStats reports the node's agreement-crypto workload, summed over
// its three compartments: how many Ed25519 verifications actually ran
// (cache hits excluded), the wall time they consumed, and how many
// agreement-MAC (HMAC) verifications ran. The sig/MAC split is what the
// `splitbft-bench -exp auth` ablation reports: with WithAgreementAuth
// ("mac") the Ed25519 verify load of the normal case collapses to the
// view-change path. The counter pair instruments the trusted consensus
// mode (`-exp consensus`): attestations the node's counter enclave
// created, and attestation checks that stood in for Prepare quorums.
//
// The snapshot is assembled from atomic counters (and the counter
// enclave's internal lock), so Node.CryptoStats is safe to call from
// concurrent readers while traffic flows; each field is individually
// consistent, the set is not an atomic cut.
type CryptoStats struct {
	SigVerifies     uint64
	SigTime         time.Duration
	MACVerifies     uint64
	CounterCreates  uint64
	CounterVerifies uint64
	// LeaseGrants counts read leases this node's counter enclave issued
	// (non-zero only on a primary with WithReadLeases); LeaseVerifies
	// counts lease attestations its Execution compartment checked.
	LeaseGrants   uint64
	LeaseVerifies uint64
}

// SigCPUFraction returns Ed25519-verify CPU-seconds per wall-clock
// second over the interval (0 when elapsed is unknown or nothing ran).
// SigTime sums over the three compartments, which verify concurrently,
// so on multi-core hosts the value can exceed 1.0 — it is a CPU-load
// figure, not a share of the window; only on a single core do the two
// coincide.
func (s CryptoStats) SigCPUFraction(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.SigTime) / float64(elapsed)
}

// CryptoStats returns the node's crypto-op counters (reset together with
// the enclave statistics).
func (n *Node) CryptoStats() CryptoStats {
	s := n.replica.VerifierStats()
	return CryptoStats{
		SigVerifies:     s.SigVerifies,
		SigTime:         s.SigTime,
		MACVerifies:     s.MACVerifies,
		CounterCreates:  n.replica.CounterCreates(),
		CounterVerifies: s.CounterVerifies,
		LeaseGrants:     n.replica.LeaseGrants(),
		LeaseVerifies:   s.LeaseVerifies,
	}
}

// LocalReads returns how many read operations this node's Execution
// compartment served on the lease-anchored fast path — locally, with no
// agreement round (always zero without WithReadLeases).
func (n *Node) LocalReads() uint64 { return n.replica.LocalReads() }

// DedupedMsgs returns how many byte-identical retransmits the untrusted
// classify stage dropped before they paid for an enclave crossing.
func (n *Node) DedupedMsgs() uint64 { return n.replica.DedupedMsgs() }

// DroppedGarbage returns how many malformed inbound messages the
// untrusted classify stage dropped before they paid for an enclave
// crossing.
func (n *Node) DroppedGarbage() uint64 { return n.replica.DroppedGarbage() }
