package splitbft

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// Defaults applied when the corresponding option is not given. They are
// shared with the internal replica and client packages, so the public
// surface and the protocol engine cannot drift apart.
const (
	// DefaultBatchSize is the batched-mode batch size (paper §6).
	DefaultBatchSize = defaults.BatchSize
	// DefaultBatchTimeout bounds how long a primary waits to fill a batch.
	DefaultBatchTimeout = defaults.BatchTimeout
	// DefaultRequestTimeout is the replica failure-detector timeout.
	DefaultRequestTimeout = defaults.RequestTimeout
	// DefaultRetransmitInterval is the client resend period, aligned with
	// DefaultRequestTimeout so one resend reaches the backups per
	// failure-detector period.
	DefaultRetransmitInterval = defaults.RetransmitInterval
	// DefaultInvokeTimeout bounds one client invocation end-to-end.
	DefaultInvokeTimeout = defaults.InvokeTimeout
	// DefaultCheckpointInterval is the distance between checkpoints.
	DefaultCheckpointInterval = defaults.CheckpointInterval
)

// Option configures a Node, Client or Cluster. Options that don't apply to
// the entity being built are ignored, so one option list can parameterize a
// whole deployment (NewCluster forwards its options to every Node and to
// clients created through Cluster.NewClient).
type Option func(*options)

// options is the resolved configuration shared by the three constructors.
type options struct {
	n, f int

	newApp       func() Application
	confidential bool
	cost         CostModel
	costSet      bool
	singleThread bool

	agreementAuth string
	consensusMode string
	// consensus and auth are the two strings above, resolved and checked by
	// resolveGroup.
	consensus messages.ConsensusMode
	auth      messages.AuthMode

	readLeases bool
	leaseTTL   time.Duration

	batchSize          int
	requestTimeout     time.Duration
	checkpointInterval uint64

	keySeed []byte

	persistDir string

	obsOn       bool
	metricsAddr string
	traceSample int

	tcpAddrs   []string
	listenAddr string

	invokeTimeout time.Duration
	retransmit    time.Duration

	netSeed int64

	// Wiring installed by NewCluster: in-process deployments share one
	// simulated network, key registry and MAC secret.
	simnet    *transport.SimNet
	registry  *crypto.Registry
	macSecret []byte
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// resolveGroup resolves the consensus and agreement-auth options and the
// replica-group shape (n, f), and checks them together with
// messages.ValidConsensus. When n was not fixed by a cluster it comes from
// the TCP address list; f is the largest threshold the group tolerates.
func (o *options) resolveGroup() error {
	if o.n == 0 {
		o.n = len(o.tcpAddrs)
	}
	if o.n == 0 {
		return errors.New("splitbft: group size unknown — use WithTransportTCP or build through NewCluster")
	}
	var err error
	if o.consensus, err = o.consensusModeVal(); err != nil {
		return err
	}
	if o.auth, err = o.agreementAuthMode(o.consensus); err != nil {
		return err
	}
	o.f = messages.MaxFaults(o.consensus, o.n)
	if err := messages.ValidConsensus(o.consensus, o.auth, o.n, o.f); err != nil {
		return fmt.Errorf("splitbft: %w", err)
	}
	if len(o.tcpAddrs) > 0 && len(o.tcpAddrs) != o.n {
		return fmt.Errorf("splitbft: WithTransportTCP needs one address per replica (%d addresses, n=%d)", len(o.tcpAddrs), o.n)
	}
	return nil
}

// secret returns the shared MAC secret for this deployment.
func (o *options) secret() []byte {
	if len(o.macSecret) > 0 {
		return o.macSecret
	}
	return o.keySeed
}

// costModel returns the enclave cost model, defaulting to the hardware
// model (real enclave-transition costs).
func (o *options) costModel() CostModel {
	if o.costSet {
		return o.cost
	}
	return tee.DefaultCostModel()
}

// application instantiates this replica's application, defaulting to a
// fresh key-value store.
func (o *options) application() Application {
	if o.newApp != nil {
		return o.newApp()
	}
	return NewKVStore()
}

// WithApp installs the replicated application. The factory runs once per
// replica: every replica needs its own state-machine instance. Default:
// NewKVStore.
func WithApp(newApp func() Application) Option {
	return func(o *options) { o.newApp = newApp }
}

// WithBlockchain selects the blockchain (distributed ledger) application
// with the given block size; blockSize <= 0 means DefaultBlockSize. Blocks
// are sealed inside the Execution enclave and persisted through an ocall.
func WithBlockchain(blockSize int) Option {
	return func(o *options) {
		o.newApp = func() Application { return NewBlockchain(blockSize, nil) }
	}
}

// WithConfidential enables end-to-end encrypted requests and replies
// (paper §4.1). Clients must Attest before invoking: the attestation
// handshake verifies every Execution enclave and provisions the session
// key.
func WithConfidential() Option {
	return func(o *options) { o.confidential = true }
}

// WithCostModel replaces the enclave cost model. Default:
// DefaultCostModel (hardware transition costs); SimulationCostModel
// removes them; ZeroCostModel disables all charging.
func WithCostModel(m CostModel) Option {
	return func(o *options) { o.cost = m; o.costSet = true }
}

// WithBatchSize sets how many requests are ordered per batch; 1 disables
// batching. Default DefaultBatchSize.
func WithBatchSize(n int) Option {
	return func(o *options) { o.batchSize = n }
}

// WithRequestTimeout sets the replica failure-detector timeout: how long an
// ordered request may stay unexecuted before the primary is suspected and a
// view change begins. Default DefaultRequestTimeout.
func WithRequestTimeout(d time.Duration) Option {
	return func(o *options) { o.requestTimeout = d }
}

// WithCheckpointInterval sets the distance between checkpoints. Default
// DefaultCheckpointInterval.
func WithCheckpointInterval(n uint64) Option {
	return func(o *options) { o.checkpointInterval = n }
}

// WithSingleThread serializes all ecalls of a replica through one
// dispatcher thread (the paper's single-threaded configuration,
// Figure 3a).
func WithSingleThread() Option {
	return func(o *options) { o.singleThread = true }
}

// WithAgreementAuth selects how replicas authenticate normal-case
// agreement traffic (PrePrepare/Prepare/Commit/Checkpoint) to each other:
//
//   - "sig" (the default in classic consensus): every message carries an
//     Ed25519 signature from its sending compartment — the paper's
//     baseline, transferable to third parties.
//   - "mac" (the default, and the only mode, in trusted consensus): the
//     trusted-compartment fast path. Attested agreement enclaves derive
//     pairwise symmetric keys from the X25519 exchange performed at
//     registration and authenticate with HMAC vectors (~100× cheaper than
//     Ed25519 on the verify side). Ed25519 remains where third-party
//     verifiability is required — ViewChange/NewView — and the
//     certificates they carry become single enclave-signed digests of the
//     locally validated quorum instead of 2f+1 signature bundles.
//
// All nodes of a deployment must use the same mode; "sig" beside
// WithConsensusMode("trusted") is a construction error. MAC mode leans on
// the compartment trust model: a fully compromised (not merely crashed)
// agreement enclave could vouch for quorums it never saw; see the README
// authentication section for what degrades.
func WithAgreementAuth(mode string) Option {
	return func(o *options) { o.agreementAuth = mode }
}

// agreementAuthMode resolves the option string; "" is the consensus mode's
// default.
func (o *options) agreementAuthMode(consensus messages.ConsensusMode) (messages.AuthMode, error) {
	switch o.agreementAuth {
	case "":
		return messages.DefaultAuth(consensus), nil
	case "sig":
		return messages.AuthSig, nil
	case "mac":
		return messages.AuthMAC, nil
	default:
		return messages.AuthSig, fmt.Errorf("splitbft: unknown agreement auth mode %q (want \"sig\" or \"mac\")", o.agreementAuth)
	}
}

// WithConsensusMode selects the agreement variant:
//
//   - "classic" (the default): three-phase PBFT over n = 3f+1 replicas —
//     PrePrepare, an all-to-all Prepare round, Commit — with 2f+1 quorums.
//     Safety holds even if whole replicas (including their enclaves) are
//     byzantine, up to f of them.
//   - "trusted": the hybrid fast path in the MinBFT/CheapBFT lineage. Each
//     replica gains a trusted monotonic counter enclave; the leader binds
//     every PrePrepare to the next counter value, and because counter
//     values are gap-free and never reusable, a counter-valid proposal
//     cannot be equivocated — replicas commit directly off it, skipping
//     the Prepare round (one full all-to-all phase plus its verification)
//     entirely. Groups shrink to n = 2f+1 with f+1 quorums.
//
// All nodes of a deployment must use the same mode. Trusted mode implies
// WithAgreementAuth("mac"): the counter attestation is a pairwise HMAC
// vector (one entry per verifying Preparation and Confirmation
// compartment), prepare certificates exported into a ViewChange are
// vouched for by an enclave signature in place of the non-transferable
// attestation, and the normal case runs no Ed25519 at all; read-lease
// grants stay signed. It composes with WithPersistence and leans on the
// compartment trust model — see the README consensus section for what
// degrades if a counter enclave is compromised rather than crashed.
func WithConsensusMode(mode string) Option {
	return func(o *options) { o.consensusMode = mode }
}

// consensusModeVal resolves the option string ("" defaults to classic).
func (o *options) consensusModeVal() (messages.ConsensusMode, error) {
	switch o.consensusMode {
	case "", "classic":
		return messages.ConsensusClassic, nil
	case "trusted":
		return messages.ConsensusTrusted, nil
	default:
		return messages.ConsensusClassic, fmt.Errorf("splitbft: unknown consensus mode %q (want \"classic\" or \"trusted\")", o.consensusMode)
	}
}

// WithReadLeases toggles the leased local read fast path. When on:
//
//   - The primary's trusted counter enclave issues time-bounded read leases
//     to every replica, piggybacked on proposal and checkpoint traffic and
//     renewed on a dedicated lease clock. Grants are ack-fenced: real
//     (installable) grants go out only while 2f+1 holders have freshly
//     acked, so a primary partitioned into a minority cannot keep
//     extending leases.
//   - A lease-holding replica's Execution compartment serves Client read
//     operations locally: no PrePrepare, no quorum, one attested reply.
//     Reads spread round-robin across the group, so read throughput scales
//     with n instead of being serialized through agreement. Every leased
//     read is linearizable: it is confirmed with a batched read-index round
//     to the primary (the read waits until local execution reaches the
//     primary's proposal frontier sampled after the read arrived), so it
//     observes every write acknowledged before it began.
//   - Replicas fail closed. A leaseless or expiring replica, or one whose
//     read-index round stalls, refuses and the client transparently
//     re-issues the read through the agreement path, so reads are never
//     stale — at worst slower.
//
// Leases are signed by the same trusted counter enclave that orders proposals
// (and revoked by view changes: a new primary additionally fences writes
// for 2.5× the lease TTL so no old-view lease can miss a new-view write),
// so the fast path leans on the compartment trust model exactly as the
// trusted consensus mode does. Cross-view safety assumes bounded clock
// skew between replicas (see WithLeaseTTL); within a view the read index
// makes no timing assumption. It works in either consensus mode. All
// nodes of a deployment must agree on the setting. See the README
// read-path section for the soundness argument.
func WithReadLeases(on bool) Option {
	return func(o *options) { o.readLeases = on }
}

// WithLeaseTTL bounds a read lease's validity from its grant time (leases
// renew at a quarter of it; holders stop serving a clock-skew margin of
// an eighth before expiry). Shorter TTLs tighten the window in which a
// deposed primary's final leases can linger; longer ones tolerate more
// clock skew between replicas. The TTL is clamped to a quarter of the
// request timeout — a lease must never outlive failure detection, and the
// new primary's 2.5×TTL write fence has to fit inside one detection
// period — and defaults to that maximum. Only meaningful with
// WithReadLeases.
func WithLeaseTTL(d time.Duration) Option {
	return func(o *options) { o.leaseTTL = d }
}

// WithObservability enables the node's observability layer: the metrics
// registry (every stat surface published as Prometheus-style series) and
// the request-lifecycle tracer, which stamps each sampled request at the
// untrusted compartment boundaries (classify, ecall enqueue, PrePrepare,
// prepare-certificate, commit, execute, reply — and for leased reads:
// arrive, read-index, serve). Spans carry protocol identifiers only —
// client ID, timestamp, sequence number — never operation payloads, so
// traces leak nothing the untrusted broker cannot already see.
//
// Off (the default), every instrumentation hook degrades to a nil check
// and the request path allocates nothing for observability.
func WithObservability() Option {
	return func(o *options) { o.obsOn = true }
}

// WithTraceSample records every nth request in the lifecycle tracer
// (1 — the default — traces everything). Sampling bounds tracer overhead
// under sustained load; metrics are unaffected. Implies WithObservability
// for n >= 1.
func WithTraceSample(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.obsOn = true
		}
		o.traceSample = n
	}
}

// WithMetricsAddr starts the node's HTTP introspection endpoint on addr
// at Start, serving /metrics (Prometheus text format), /healthz (JSON;
// 200 only while every peer answers a connectivity probe, all three
// compartment enclaves are alive and the durability store has not
// failed — 503 otherwise) and /debug/trace (recent sampled spans as
// JSON). ":0" picks a free port — read it back with Node.MetricsAddr.
// Implies WithObservability.
func WithMetricsAddr(addr string) Option {
	return func(o *options) {
		o.metricsAddr = addr
		if addr != "" {
			o.obsOn = true
		}
	}
}

// WithKeySeed derives all enclave keys and client MAC keys
// deterministically from seed, standing in for the attestation-based
// key-exchange ceremony of a real SGX deployment. Every node and client of
// one deployment must share the seed. Required for the TCP transport
// (separate processes cannot otherwise agree on keys); in-process clusters
// may omit it to get fresh random keys.
func WithKeySeed(seed []byte) Option {
	return func(o *options) { o.keySeed = append([]byte(nil), seed...) }
}

// WithPersistence enables the sealed durability subsystem: each node keeps
// a per-compartment write-ahead log plus sealed state snapshots under
// dir/replica-<id>/, fsynced once per crossing before its outputs leave
// (and at each snapshot and shutdown), and garbage collected at stable
// checkpoints. NewNode — and Node.Restart — recover
// compartment state from the newest sealed snapshot, replay the log, and
// close any remaining gap through peer state transfer once the node
// rejoins. Everything on disk is AEAD-sealed under keys derived from the
// enclave identities, so WithPersistence requires WithKeySeed (a restarted
// process must re-derive the same sealing keys, and without the seed
// nothing on disk can be read).
func WithPersistence(dir string) Option {
	return func(o *options) { o.persistDir = dir }
}

// nodeDataDir returns the per-replica durability directory ("" when
// persistence is off).
func (o *options) nodeDataDir(id uint32) string {
	if o.persistDir == "" {
		return ""
	}
	return filepath.Join(o.persistDir, fmt.Sprintf("replica-%d", id))
}

// WithTransportTCP deploys over TCP: addrs lists every replica's address,
// indexed by replica ID. A Node listens on the address at its own ID
// (override with WithListenAddr); a Client dials all of them. The group
// size n is taken from len(addrs); surrounding whitespace per address is
// ignored. Requires WithKeySeed.
func WithTransportTCP(addrs ...string) Option {
	return func(o *options) {
		o.tcpAddrs = make([]string, 0, len(addrs))
		for _, a := range addrs {
			o.tcpAddrs = append(o.tcpAddrs, strings.TrimSpace(a))
		}
	}
}

// SplitAddrs splits a comma-separated replica address list into the form
// WithTransportTCP takes — a convenience for CLI wrappers taking the list
// as one flag. An empty string yields nil.
func SplitAddrs(list string) []string {
	if list == "" {
		return nil
	}
	return strings.Split(list, ",")
}

// WithListenAddr overrides the address a TCP Node binds, when it differs
// from the advertised address in the WithTransportTCP list (e.g. binding
// ":7000" while peers dial "host:7000").
func WithListenAddr(addr string) Option {
	return func(o *options) { o.listenAddr = addr }
}

// WithInvokeTimeout bounds one client invocation end-to-end, across
// retransmissions and view changes. Default DefaultInvokeTimeout.
func WithInvokeTimeout(d time.Duration) Option {
	return func(o *options) { o.invokeTimeout = d }
}

// WithRetransmitInterval sets how long a client waits for a reply quorum
// before resending to all replicas. Default DefaultRetransmitInterval.
func WithRetransmitInterval(d time.Duration) Option {
	return func(o *options) { o.retransmit = d }
}

// WithNetworkSeed seeds the in-process simulated network's fault
// randomness (NewCluster only), making fault schedules reproducible.
func WithNetworkSeed(seed int64) Option {
	return func(o *options) { o.netSeed = seed }
}

// withClusterWiring is how NewCluster shares its network, registry and MAC
// secret with the nodes and clients it builds. Appended after user options
// so it always wins.
func withClusterWiring(n int, netw *transport.SimNet, reg *crypto.Registry, secret []byte) Option {
	return func(o *options) {
		o.n = n
		o.simnet = netw
		o.registry = reg
		o.macSecret = secret
		o.tcpAddrs = nil
	}
}
