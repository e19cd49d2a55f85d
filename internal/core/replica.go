package core

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// verifyCacheEntries sizes each compartment's signature-verification
// cache; it comfortably covers a watermark window of in-flight messages.
const verifyCacheEntries = 1 << 13

// replayChunk is how many recovered WAL records one trusted-boundary
// crossing replays (the recovery analog of maxCrossing; larger because no
// output waits behind a replayed crossing).
const replayChunk = 64

// Replica is one SplitBFT replica: three enclaves (Preparation,
// Confirmation, Execution) plus the untrusted broker. Create all replicas
// of a group with the same Registry before starting any of them — NewReplica
// registers this replica's enclave public keys (the deployment-time
// attestation step).
type Replica struct {
	cfg    Config
	prep   *tee.Enclave
	conf   *tee.Enclave
	exec   *tee.Enclave
	broker *broker
	// caches are the per-compartment verification caches, for stats. Each
	// compartment owns its own cache — compartments share no state (§3.2),
	// so a cache is enclave-local.
	caches []*messages.VerifyCache
	// vers are the per-compartment verifiers, kept for crypto-op stats.
	vers []*messages.Verifier
	// stores are the per-compartment durability stores (nil without
	// DataDir); recovery holds what NewReplica reconstructed from them.
	stores   map[crypto.Role]*comStore
	recovery RecoveryStats
	// counter is the trusted monotonic counter enclave (trusted consensus
	// mode or read leases; nil otherwise).
	counter *tee.TrustedCounter
	// execCode is the Execution compartment's protocol code, kept for the
	// read-lease statistics (LocalReads).
	execCode *execution
}

// RecoveryStats describes what a replica reconstructed from its durability
// stores at construction time.
type RecoveryStats struct {
	// Snapshots is how many compartments restored a sealed state snapshot
	// (0–3).
	Snapshots int
	// WALRecords is the total number of write-ahead-log records replayed
	// across the three compartments.
	WALRecords uint64
	// Replay is the time spent re-invoking the replayed records.
	Replay time.Duration
	// Total is the full recovery time: store opening, unsealing, state
	// import and replay.
	Total time.Duration
}

// ReplayOpsPerSec returns the WAL replay throughput (0 before any replay).
func (r RecoveryStats) ReplayOpsPerSec() float64 {
	if r.Replay <= 0 || r.WALRecords == 0 {
		return 0
	}
	return float64(r.WALRecords) / r.Replay.Seconds()
}

// NewReplica launches the three compartment enclaves and wires the broker.
func NewReplica(cfg Config) (*Replica, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// One verifier per compartment: each carries its own
	// signature-verification cache so the compartments stay share-nothing.
	// Self identifies the compartment: its MAC-vector slots, and which
	// signers are co-located with it.
	var vers [3]*messages.Verifier
	var caches []*messages.VerifyCache
	compartmentRoles := [3]crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution}
	for i := range vers {
		ver, err := messages.NewVerifierMode(cfg.N, cfg.F, cfg.Registry, messages.SplitScheme(), cfg.ConsensusMode, cfg.AgreementAuth)
		if err != nil {
			return nil, err
		}
		ver.Cache = messages.NewVerifyCache(verifyCacheEntries)
		ver.Self = crypto.Identity{ReplicaID: cfg.ID, Role: compartmentRoles[i]}
		caches = append(caches, ver.Cache)
		vers[i] = ver
	}

	rng := func(role crypto.Role) io.Reader {
		if len(cfg.KeySeed) == 0 {
			return nil
		}
		return enclaveKeyStream(cfg.KeySeed, cfg.ID, role)
	}

	// Trusted consensus mode — and the read-lease fast path, which anchors
	// leases in the same counter enclave — launch the counter and register
	// its Ed25519 and X25519 keys before any compartment sees traffic. With
	// a KeySeed both derive from the counter's own stream so peer processes
	// can compute them (RegisterDeterministicKeys mirrors the derivation).
	// The counter attests with pairwise HMACs, keyed by the same
	// attested-ECDH establishment the compartments use; its Ed25519 key
	// signs lease grants.
	var counter *tee.TrustedCounter
	if cfg.ConsensusMode == messages.ConsensusTrusted || cfg.ReadLeases {
		ctrID := crypto.Identity{ReplicaID: cfg.ID, Role: crypto.RoleCounter}
		var err error
		counter, err = tee.NewTrustedCounterWithRand(ctrID, rng(crypto.RoleCounter))
		if err != nil {
			return nil, fmt.Errorf("launch counter enclave: %w", err)
		}
		cfg.Registry.Register(ctrID, counter.PublicKey())
		cfg.Registry.RegisterECDH(ctrID, counter.ECDHPublicKey())
		counter.AttestWithMACs(pairwiseMACStore(counter, cfg.Registry), messages.CounterAuthReceivers(cfg.N))
	}

	prepCode := newPreparation(cfg, vers[0], counter)
	confCode := newConfirmation(cfg, vers[1])
	execCode, err := newExecution(cfg, vers[2])
	if err != nil {
		return nil, fmt.Errorf("launch execution compartment: %w", err)
	}
	prep, err := tee.NewEnclaveWithRand(cfg.ID, crypto.RolePreparation, prepCode, cfg.Cost, rng(crypto.RolePreparation))
	if err != nil {
		return nil, fmt.Errorf("launch preparation enclave: %w", err)
	}
	conf, err := tee.NewEnclaveWithRand(cfg.ID, crypto.RoleConfirmation, confCode, cfg.Cost, rng(crypto.RoleConfirmation))
	if err != nil {
		return nil, fmt.Errorf("launch confirmation enclave: %w", err)
	}
	exec, err := tee.NewEnclaveWithRand(cfg.ID, crypto.RoleExecution, execCode, cfg.Cost, rng(crypto.RoleExecution))
	if err != nil {
		return nil, fmt.Errorf("launch execution enclave: %w", err)
	}

	// Register the enclaves' identity and X25519 keys: in a real
	// deployment the operators verify attestation quotes and exchange
	// these out of band. The X25519 keys seed the pairwise agreement-MAC
	// channels of the MAC fast path.
	for _, enc := range []*tee.Enclave{prep, conf, exec} {
		cfg.Registry.Register(enc.Identity(), enc.PublicKey())
		cfg.Registry.RegisterECDH(enc.Identity(), enc.ECDHPublicKey())
	}

	// Pairwise key establishment: each compartment derives the MAC key it
	// shares with any peer compartment lazily, from its enclave's X25519 key
	// and the peer's registered public key — both ends of a pair compute the
	// same key without it ever leaving the two enclaves. MAC mode keys its
	// agreement vectors from the store; sig mode keys only the hop between
	// compartments of this replica (Verifier.HopAuth).
	for i, enc := range []*tee.Enclave{prep, conf, exec} {
		vers[i].MACs = pairwiseMACStore(enc, cfg.Registry)
	}

	r := &Replica{cfg: cfg, prep: prep, conf: conf, exec: exec, caches: caches, vers: vers[:], counter: counter, execCode: execCode}

	// Durability: open the per-compartment stores and recover — sealed
	// snapshot first, then WAL replay — before any broker thread runs.
	// What the local log cannot cover (the un-fsynced tail) is closed
	// later through the ordinary checkpoint/state-transfer path once the
	// replica rejoins its peers.
	if cfg.DataDir != "" {
		begin := time.Now()
		r.stores = make(map[crypto.Role]*comStore, 3)
		for _, enc := range []*tee.Enclave{prep, conf, exec} {
			role := enc.Identity().Role
			st, recovered, err := store.Open(
				filepath.Join(cfg.DataDir, role.String()),
				store.Options{Sealer: enc, FsyncInterval: cfg.FsyncInterval, Faults: cfg.DiskFaults},
			)
			if err != nil {
				r.closeStores()
				return nil, fmt.Errorf("core: open %v store: %w", role, err)
			}
			cs := &comStore{st: st, enc: enc}
			r.stores[role] = cs
			if recovered.Snapshot != nil {
				if err := enc.UnsealState(recovered.Snapshot); err != nil {
					r.closeStores()
					return nil, fmt.Errorf("core: restore %v snapshot: %w", role, err)
				}
				r.recovery.Snapshots++
				cs.lastEpoch.Store(enc.StateEpoch())
			}
			replayBegin := time.Now()
			// Replay mirrors the live delivery path: records go through
			// InvokeBatch so the per-crossing transition cost amortizes
			// over replayChunk messages instead of being paid per record.
			// Outputs are discarded: everything a replayed handler would
			// emit was either already delivered before the crash or is
			// retransmittable on demand.
			for lo := 0; lo < len(recovered.Records); lo += replayChunk {
				hi := lo + replayChunk
				if hi > len(recovered.Records) {
					hi = len(recovered.Records)
				}
				_, _ = enc.InvokeBatch(recovered.Records[lo:hi])
			}
			r.recovery.Replay += time.Since(replayBegin)
			r.recovery.WALRecords += uint64(len(recovered.Records))
		}
		execCode.finishRecovery()
		r.recovery.Total = time.Since(begin)
	}

	r.broker = newBroker(cfg, prep, conf, exec, r.stores)

	// Persisting applications (app.Persister) write sealed state through an
	// ocall (§6: one ocall per block written encrypted to untrusted
	// storage).
	if p, ok := cfg.App.(app.Persister); ok {
		exec.RegisterOcall("fs.write", r.broker.persistBlock)
		p.SetPersist(func(block []byte) error {
			sealed, err := exec.Seal(nil, block)
			if err != nil {
				return err
			}
			_, err = exec.Ocall("fs.write", sealed)
			return err
		})
	}

	// Observability: publish every stat surface as pull-style collectors.
	// No-op when cfg.Obs is nil.
	r.registerObs()
	return r, nil
}

// pairwiseKeyer is an enclave that can establish attested pairwise MAC
// keys: a compartment enclave or the counter enclave.
type pairwiseKeyer interface {
	Identity() crypto.Identity
	PairwiseMAC(peerPub [32]byte) (crypto.MACKey, error)
}

// pairwiseMACStore builds an enclave's derived agreement-MAC store: key
// material comes from the enclave's X25519 exchange with each registered
// peer, and the registry epoch invalidates cached keys when a peer
// re-registers (restart with fresh keys).
func pairwiseMACStore(enc pairwiseKeyer, reg *crypto.Registry) *crypto.MACStore {
	return crypto.NewDerivedMACStore(enc.Identity(), func(peer crypto.Identity) (crypto.MACKey, error) {
		pub, err := reg.LookupECDH(peer)
		if err != nil {
			return crypto.MACKey{}, err
		}
		return enc.PairwiseMAC(pub)
	}, reg.ECDHEpoch)
}

// Handler returns the transport handler for this replica's endpoint.
func (r *Replica) Handler() transport.Handler { return r.broker.handler }

// Start begins processing with the given connection.
func (r *Replica) Start(conn transport.Conn) { r.broker.start(conn) }

// Stop terminates the broker threads, then flushes and closes the
// durability stores (a graceful shutdown loses nothing). Enclaves are
// passive after that.
func (r *Replica) Stop() {
	r.broker.stopAll()
	r.closeStores()
}

// Crash kills the replica abruptly — the SIGKILL analog used by the
// recovery scenarios: every enclave is crashed so drained backlog stops
// mutating state, the stores drop their un-fsynced group-commit tail
// (exactly what a real kill would lose), and the broker threads stop.
func (r *Replica) Crash() {
	r.prep.Crash()
	r.conf.Crash()
	r.exec.Crash()
	for _, cs := range r.stores {
		cs.st.Crash()
	}
	r.broker.stopAll()
	// Join in-flight background snapshot writes: a restart must never
	// find the old replica's writer still touching the directory the new
	// store is about to own. (The write itself cannot be aborted; its
	// result is simply ignored on a crashed store.)
	for _, cs := range r.stores {
		cs.drain()
	}
}

func (r *Replica) closeStores() {
	for _, cs := range r.stores {
		cs.drain()
		_ = cs.st.Close()
	}
}

// Recovery reports what this replica reconstructed from its durability
// stores at construction (zero value without persistence).
func (r *Replica) Recovery() RecoveryStats { return r.recovery }

// ExecutedOps returns the number of client operations this replica has
// replied to.
func (r *Replica) ExecutedOps() uint64 { return r.broker.mReplies.Load() }

// Batches returns the number of batches the environment submitted for
// ordering.
func (r *Replica) Batches() uint64 { return r.broker.mBatches.Load() }

// Suspects returns how many times the failure detector fired.
func (r *Replica) Suspects() uint64 { return r.broker.mSuspects.Load() }

// DedupedMsgs returns how many byte-identical retransmits the untrusted
// classify stage dropped before they paid for an enclave crossing.
func (r *Replica) DedupedMsgs() uint64 { return r.broker.mDeduped.Load() }

// DroppedGarbage returns how many malformed inbound messages the
// untrusted classify stage dropped before they paid for an enclave
// crossing.
func (r *Replica) DroppedGarbage() uint64 { return r.broker.mGarbage.Load() }

// VerifyCacheStats returns the summed signature-verification cache
// counters across the three compartments.
func (r *Replica) VerifyCacheStats() messages.VerifyCacheStats {
	var out messages.VerifyCacheStats
	for _, c := range r.caches {
		s := c.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
	}
	return out
}

// VerifierStats returns the summed crypto-op counters across the three
// compartments: executed Ed25519 verifications and their wall time, plus
// agreement-MAC verifications (the auth ablation's instrumentation).
func (r *Replica) VerifierStats() messages.VerifierStats {
	var out messages.VerifierStats
	for _, v := range r.vers {
		s := v.Stats()
		out.SigVerifies += s.SigVerifies
		out.SigTime += s.SigTime
		out.MACVerifies += s.MACVerifies
		out.CounterVerifies += s.CounterVerifies
		out.LeaseVerifies += s.LeaseVerifies
	}
	return out
}

// LeaseGrants returns the number of read leases this replica's counter
// enclave granted since boot or the last stats reset (zero when read
// leases are off or this replica was never primary).
func (r *Replica) LeaseGrants() uint64 {
	if r.counter == nil {
		return 0
	}
	return r.counter.LeaseGrants()
}

// LocalReads returns the number of reads this replica's Execution
// compartment served locally under a lease, without agreement.
func (r *Replica) LocalReads() uint64 { return r.execCode.localReads.Load() }

// CounterCreates returns the number of counter attestations this replica's
// counter enclave created since boot or the last stats reset (zero in
// classic consensus mode).
func (r *Replica) CounterCreates() uint64 {
	if r.counter == nil {
		return 0
	}
	return r.counter.Creates()
}

// PersistedBlocks returns the number of sealed blockchain blocks the
// environment stored (zero for non-blockchain applications).
func (r *Replica) PersistedBlocks() int { return r.broker.persistedBlocks() }

// EnclaveStats returns per-compartment ecall statistics (the Figure 4
// instrumentation).
func (r *Replica) EnclaveStats() map[crypto.Role]tee.ECallSnapshot {
	return map[crypto.Role]tee.ECallSnapshot{
		crypto.RolePreparation:  r.prep.Stats(),
		crypto.RoleConfirmation: r.conf.Stats(),
		crypto.RoleExecution:    r.exec.Stats(),
	}
}

// CrashEnclave kills one compartment (fault injection: the environment can
// crash an enclave at any time). Role must be one of the three compartment
// roles.
func (r *Replica) CrashEnclave(role crypto.Role) {
	switch role {
	case crypto.RolePreparation:
		r.prep.Crash()
	case crypto.RoleConfirmation:
		r.conf.Crash()
	case crypto.RoleExecution:
		r.exec.Crash()
	}
}

// Enclave exposes a compartment's enclave for tests and fault injection.
func (r *Replica) Enclave(role crypto.Role) *tee.Enclave {
	switch role {
	case crypto.RolePreparation:
		return r.prep
	case crypto.RoleConfirmation:
		return r.conf
	case crypto.RoleExecution:
		return r.exec
	default:
		return nil
	}
}
