// Package splitbft is a from-scratch Go reproduction of "SplitBFT:
// Improving Byzantine Fault Tolerance Safety Using Trusted Compartments"
// (Messadi et al., MIDDLEWARE 2022), packaged as a usable library.
//
// SplitBFT compartmentalizes PBFT into three independently-failing trusted
// compartments per replica — Preparation, Confirmation and Execution —
// each running in its own (simulated) SGX enclave with its own keys, log
// and view state. Compartments change state only on quorum certificates,
// so a compromise of one compartment type cannot undo agreement reached by
// the others; the untrusted broker handles networking, batching and timers
// and can only hurt liveness, never safety.
//
// # Public API
//
// Three entry points cover every deployment shape, all configured through
// functional options. Cluster is an in-process N-replica deployment over a
// simulated network, for tests, examples and benchmarks:
//
//	cluster, err := splitbft.NewCluster(4, splitbft.WithConfidential())
//	defer cluster.Close()
//	cl, err := cluster.NewClient(100)
//	err = cl.Attest() // verify enclaves, provision the session key
//	res, err := cl.Put("balance", []byte("42"))
//
// Node is one replica over TCP, for distributed deployments
// (cmd/splitbft-replica is a thin wrapper):
//
//	node, err := splitbft.NewNode(0,
//		splitbft.WithTransportTCP(":7000", ":7001", ":7002", ":7003"),
//		splitbft.WithKeySeed(secret))
//	err = node.Start()
//
// Client talks to a deployment from anywhere (cmd/splitbft-client wraps
// it):
//
//	cl, err := splitbft.NewClient(100,
//		splitbft.WithTransportTCP(":7000", ":7001", ":7002", ":7003"),
//		splitbft.WithKeySeed(secret))
//
// Fault-injection handles live on the same surface: Node.CrashEnclave
// kills one compartment (the paper's Figure 1 scenario — one faulty
// enclave of each type on three different replicas, tolerated where
// classical BFT tolerates only f faulty replicas), and Cluster.Partition
// cuts replicas off to drive view changes.
//
// # The staged agreement pipeline
//
// Each replica's hot path is a three-stage pipeline between the untrusted
// broker and its three enclaves:
//
//	classify → batch ecall → serial apply
//
// Classify runs on the transport threads, in the untrusted environment:
// every inbound message is checked structurally there (messages.Check:
// known type, every length and count inside the frame, no trailing bytes —
// a verdict, not a decode, because the broker only forwards; the enclaves
// decode and authenticate) — malformed input never pays for an enclave
// crossing — and byte-identical retransmits of agreement messages are
// dropped by a bounded, time-rotated filter keyed by a seeded 64-bit hash.
// Both can only cost liveness (a wrong drop is indistinguishable from a
// network drop), never safety. Surviving messages are framed into pooled,
// reference-counted buffers shared across the compartments' duplicated
// input logs (§3.2) and recycled as soon as the enclave runtime has copied
// them in.
//
// Frames move through the environment in runs. transport.Conn.Send takes
// one or more frames for a peer: they reach its handler one by one, in
// order, and over TCP they leave in a single socket write. The broker
// collects the replica-bound outputs of one dispatch run per peer and
// hands each peer's frames over together when the run's outputs are
// exhausted, so a loaded replica pays one write(2) per peer and run where
// it paid one per frame. There is no flush call and no timer: a run of one
// frame is the same call with one argument, and nothing is ever held back
// waiting for more. Inbound, a transport.Handler's data is valid until the
// handler returns — the TCP read loop reuses one frame buffer per
// connection behind a read buffer sized so that a peer's run arrives in
// one read(2) — so a handler copies or decodes before handing off.
//
// Batch ecall amortizes the enclave-transition cost the paper identifies
// as the dominant overhead: each dispatcher delivers whatever is queued
// for its compartment — one message on an idle replica, up to a fixed cap
// of 16 under load — through one trusted-boundary crossing, and with
// persistence on the run shares one WAL sync. There is no option: nothing
// waits to fill a batch, so the idle path is the paper's one message per
// ecall and the loaded path coalesces by itself.
//
// Serial apply preserves the paper's execution model: handlers run to
// completion one at a time in submission order on the enclave's single
// logical protocol thread, and verify what they need when they need it —
// a vote past the quorum, a duplicate, a Prepare for a digest that lost
// its slot is dropped before it costs a signature check. A per-compartment
// verification cache makes retransmits and view-change replays (the same
// certificates verified over and over) nearly free. Every ledger and
// checkpoint digest is byte-identical with one dispatcher per compartment
// or fully serialized with WithSingleThread.
//
// # Agreement authentication: a signature where a proof is handed on, a pairwise MAC where it is not
//
// Every enclave's X25519 key is exchanged at registration — the stand-in
// for the attestation ceremony — beside its Ed25519 identity key, and each
// enclave pair derives from it a symmetric key that never exists outside
// the two enclaves. So every hop can be authenticated two ways: by a
// signature, which any third party can re-verify, or by an HMAC under the
// pairwise key, which proves origin to its one addressee and to nobody
// else (and which that addressee could forge, but only to itself). The
// rule for choosing is the receiver's: if it may ever have to hand the
// message on as part of a proof, it needs the signature; if it only
// consumes the message, the MAC proves all it needs. WithAgreementAuth
// selects how far the rule is taken in classic consensus; trusted
// consensus runs "mac" only.
//
// The decision is one table (authRules in internal/messages/auth.go), read
// by the one site that stamps outgoing messages and the one that checks
// incoming ones: message type → receiver compartments and one of three
// proof forms. Transferable (PrePrepare, Prepare, Checkpoint, ViewChange,
// NewView) may be handed on, so it is the form the mode selects; hop
// (Commit) is broadcast but never exported, so its co-located copy rides on
// a MAC; pair (ReadIndex, ReadIndexReply, LeaseAck) is point-to-point and
// consumed, so it is one pairwise MAC in both modes (see the read path
// below).
//
// "sig" (default) is the paper's protocol: every normal-case message
// (PrePrepare, Prepare, Commit, Checkpoint) carries an Ed25519 signature
// from its sending compartment, and certificates are bundles of
// individually signed messages. Two uses of a message hand nothing on, and
// there the signature is not checked. Per committed operation at n = 4,
// batch 1, fault-free (crypto.sig_verifies_per_op ≈ 24 in the repository
// benchmark, 31 before this rule; 23 is the floor):
//
//	hop                                   checked by        per op  with
//	PrePrepare → backups' Preparation     3 Preparations    3       signature (they vote on it)
//	PrePrepare → every Confirmation       4 Confirmations   4       signature (exported in prepare certificates)
//	Prepare    → every Confirmation       4 Confirmations   8       signature (2f each; exported likewise)
//	Commit     → other replicas' Execution 4 Executions     8–9     signature (crosses machines)
//	Commit     → own replica's Execution  4 Executions      3–4     pairwise MAC (one HMAC, ≈ 0.6 µs)
//	PrePrepare → every Execution (body)   4 Executions      0       hash against the commit certificate
//	Checkpoint → every compartment        12 compartments   ≈ 0.3   signature (exported in checkpoint certificates)
//
// The co-located hop: Confirmation hands its Commit to the Execution
// compartment of its own replica first, then to the network, and that
// in-machine copy carries, beside the signature, one MAC under the two
// enclaves' pairwise key. Execution accepts it on the MAC. That is not one
// compartment vouching for another: the MAC says what the signature would
// say — "Confirmation i cast this vote" — so Execution still counts one
// vote of one Confirmation toward the same 2f+1, a compromised
// Confirmation gains nothing it could not do with its signing key, the
// environment that carries the copy never holds the pairwise key, and
// Execution exports no Commit anywhere (no certificate, ViewChange or
// state transfer contains one). Anything short of the exact slot — absent,
// garbled, made for another compartment, lifted from another replica,
// keyed before a restart, or presented by a remote signer — falls through
// to the signature, and frames between replicas are byte-identical to what
// they were without the rule.
//
// The same hop into Confirmation keeps its signatures, deliberately. A
// PrePrepare and the Prepares behind it are exactly what Confirmation
// exports as a prepare certificate, and PBFT's view change rests on every
// correct Confirmation that sent a Commit being able to prove that
// certificate to the next primary. If Confirmation counted its co-located
// Preparation's Prepare on a MAC, a faulty Preparation (valid MAC, garbage
// signature) could make it commit on a certificate it can never hand on;
// add one faulty Confirmation elsewhere that withholds its own, and a
// ViewChange quorum exists in which no one proves a slot that some
// Execution already executed — safety lost with f faults per compartment
// type. So the receiver decides by message type, never the sender by what
// it attaches.
//
// Execution's bodies: Execution orders by Commits and uses a PrePrepare
// only for the request bodies behind a digest, so it checks the proposal's
// structure (proposer is the view's primary, batch hashes to the header
// digest) and does not authenticate it. A batch executes only when it
// hashes to the digest a 2f+1 Commit certificate names — the rule a
// retransmitted body (BatchReply) was always accepted under, now the only
// one, in both modes. What authentication also did was bound the body
// cache, so the first proposal to add a body at a sequence number in the
// window — or to keep a cached one alive until it — is taken as is, and any
// other for an occupied slot must be a PrePrepare that verifies, as all had
// to before: a forged first arrival can neither displace the real proposal
// nor, re-sent as the window slides, grow memory past one unauthenticated
// body per slot of the window.
//
// "mac" takes the rule to every normal-case hop, on the compartment trust
// model. Normal-case messages carry a vector of HMAC-SHA256
// authenticators, one slot per receiving compartment, in place of a
// signature. HMACs are not transferable, so the protocol keeps Ed25519
// exactly where third-party verifiability is load-bearing: ViewChange and
// NewView messages — and the certificates they carry shrink from 2f+1
// signature bundles to a single enclave signature over the aggregated
// claim ("a prepare certificate for (view, seq, digest) exists"),
// produced by the attested compartment that validated the quorum locally.
// That step *is* one compartment vouching for others, which is why it is a
// mode and not the default: an attested agreement enclave runs
// known-measured code, so its signed claim that it saw a quorum stands in
// for the quorum itself — the leverage other TEE-BFT systems use. What
// degrades if that assumption fails: a crashed or isolated enclave still
// cannot forge anything (vouches are signatures under its protected key),
// but an attacker who fully compromises an agreement enclave — extracts
// keys or alters its logic inside the TEE — could vouch for quorums that
// never existed, a safety loss sig mode would confine to confidentiality.
// Both modes produce byte-identical ledgers on the same workload
// (regression-tested across forced view changes and crash/restart
// recovery); `splitbft-bench -exp auth` measures the throughput gap, which
// on the Ed25519-bound hot path is visible even on a single core because
// the work is removed, not parallelized.
//
// # Consensus modes: classic 3f+1 vs the trusted-counter 2f+1 mode
//
// WithConsensusMode selects how much of the agreement protocol leans on
// the trusted compartments. "classic" (default) is the paper's protocol:
// n = 3f+1 replicas, three phases, 2f+1 quorums, primary equivocation
// caught by the Prepare all-to-all. "trusted" rebuilds the
// MinBFT/CheapBFT lineage on SplitBFT's compartments: each replica's TEE
// hosts a trusted monotonic counter, and a PrePrepare is acceptable only
// with a gap-free counter attestation (the counter enclave's
// authentication of the counter value bound to the proposal digest, with
// the value advancing in lockstep with the sequence number: a vector of
// HMACs — one per verifying Preparation and Confirmation compartment,
// under pairwise keys from the counter's own attested X25519 exchange). A
// primary cannot assign two batches the same counter value and cannot skip
// values unnoticed, so equivocation is prevented at the source: the
// attested PrePrepare is the prepare certificate, the Prepare round (n²
// messages and their verification) leaves the critical path, quorums
// shrink to f+1, and the group shrinks to n = 2f+1. View changes carry
// each replica's highest attested counter and NewView re-pins the counter
// base, so re-issued proposals stay gap-free across views.
//
// Trusted mode implies WithAgreementAuth("mac"), and "sig" beside it is a
// construction error, so three agreement corners exist: classic×sig,
// classic×mac and trusted×mac. A client returns from Invoke after f+1
// matching replies in each. The trade, as with the MAC fast path, is
// throughput bought with the trust the paper already places in attested
// compartments: a fully compromised counter enclave could attest
// conflicting histories and break safety at f+1 quorums, where classic
// mode's cross-checking would catch it. The trusted×mac and classic×sig
// ledgers are byte-identical on the same workload, regression-tested
// across crash/restart and a view change forced over an in-flight slot;
// `splitbft-bench -exp consensus` measures the swap: under MAC agreement
// trusted mode runs at ~1.6x of classic.
//
// What is signed where: the attestation on every PrePrepare (live
// proposals and NewView re-issues alike) is the MAC vector, so the
// trusted×mac normal case runs no Ed25519 at all.
// Signatures stay exactly where a proof is handed to a third party:
// ViewChange and NewView themselves, and the certificates inside them — a
// prepare certificate exported into a ViewChange drops the
// (non-transferable) attestation and carries the exporting Confirmation
// enclave's vouch signature instead, the same mechanism classic×mac
// certificates rest on. Read-lease grants stay signed too (per holder,
// every quarter TTL, off the write path). The trust argument is the one
// the two modes already make: trusted mode assumes compartment and counter
// enclaves fail only by crashing; a pairwise attestation key lets a
// receiver forge an attestation to itself only — the non-transferability
// PrePrepare/Commit authenticator vectors already accept — and an
// environment that garbles some slots stalls exactly the compartments
// they address, as it can for those vectors today.
//
// # The read path: leased local reads with read-index confirmation
//
// WithReadLeases enables a linearizable read fast path that bypasses
// agreement's quorum round. The primary's trusted counter enclave issues
// short-lived read leases to every replica — signed under its attested
// counter key and carrying the view, the granting counter value and an
// expiry. Grants piggyback on PrePrepare and Checkpoint traffic and
// renew on a dedicated lease clock (every TTL/4), so an idle cluster
// keeps its leases fresh. A lease-holding replica's Execution
// compartment answers a read-only request locally: one MAC'd request
// from the client to one replica, one attested reply — no PrePrepare, no
// quorum, no client broadcast. Client.InvokeRead (and Get, which routes
// through it) spreads reads round-robin over the replicas, so read
// throughput scales with the group instead of being serialized through
// agreement.
//
// Why this is linearizable: the lease alone only proves the granter was
// the primary recently — it says nothing about writes committed after
// the grant. So a linearizable read is confirmed with a read index, the
// Raft §6.4 construction: when the read arrives, the holder queries the
// primary's Preparation compartment for its current proposal frontier
// (the highest sequence it has assigned, sampled after the read
// arrived), and serves the read only once its own execution has reached
// that frontier. Every write acknowledged to any client before the read
// began was proposed before the frontier was sampled, so the read
// observes it. Queries are batched — one in flight covers every read
// that arrived before it was sent; reads arriving later wait for the
// next round — so the steady-state cost is one tiny Preparation round
// trip amortized over the batch, not per read.
//
// What authenticates each read-path message follows the rule of the
// agreement-authentication section, identically in both auth modes.
// ReadRequest and ReadReply travel between a client and one Execution
// enclave under the client MAC. ReadIndex, ReadIndexReply and LeaseAck
// travel between a holder's Execution and the primary's Preparation
// enclave and are consumed there — no certificate, ViewChange or state
// transfer ever carries one — so each carries exactly one MAC under the two
// enclaves' attested pairwise key (the "pair" proof form) and no signature:
// a leased read costs no Ed25519 at all. Anything but that one slot — absent,
// garbled, doubled, made for another enclave or by another sender, keyed
// before a peer re-registered — drops the message, which costs the read its
// fast path and nothing else. LeaseGrant keeps the counter enclave's Ed25519
// signature: n per renewal round, off the per-read path, tied to the counter
// position.
//
// The holder is bound: a frontier is only as fresh as the query it answers,
// so ReadIndexReply names the holder it answers inside its authenticated
// bytes and is keyed to that holder's enclave (one addressed slot, not a
// MAC-mode vector, which would verify at every Execution), and query epochs
// count from a base drawn fresh at every boot. Otherwise the environment
// could answer holder B's query — or A's first query after a restart — with
// the older frontier the primary reported to holder A.
//
// The lease bounds the other failure axis: a deposed primary answering
// read-index queries with a stale frontier. Grants are fenced by
// acknowledgment — every holder acks each grant back to the granter, and
// the granter issues real (installable) grants only while it holds 2f+1
// fresh acks, falling back to non-installable probe grants otherwise. A
// primary partitioned into a minority can therefore not extend leases
// beyond one TTL, while the majority side must wait out that TTL before
// electing a new primary whose writes could go unseen — enforced by the
// new primary's write fence (2.5×TTL after installing its view, parked
// batches flush when it lifts). WithLeaseTTL is clamped to
// RequestTimeout/4 so fence plus TTL fit inside one failure-detection
// period. Expiry is signed by the counter enclave and holders refuse
// inside a clock-skew guard margin of TTL/8 before expiry, so bounded skew
// between granter and holder cannot stretch a lease past its revocation
// window; a view change additionally invalidates all outstanding leases
// immediately (leaseValid requires the granter to be the current view's
// primary).
//
// Every leased read takes the read index: there is one read contract,
// linearizable, and no weaker level to opt into. Leases are deliberately
// ephemeral — never written to the WAL or sealed state — so a restarted
// replica is leaseless until the primary re-grants.
//
// The degradation story is fail-closed: a replica with no lease, an
// expired lease, a deposed view or an application that cannot prove the
// operation read-only refuses explicitly, and the client falls back to
// full agreement (Invoke) — a read is never served stale, it just gets
// slower. Replayed ReadRequests are dropped by a per-client timestamp
// watermark before MAC verification, and leased reads bypass the
// per-client exactly-once records (they are side-effect-free, so
// retransmission is harmless), keeping read-heavy workloads from growing
// server-side client state. `splitbft-bench -exp readlease` measures
// the effect on a closed-loop 90/10 GET/PUT mix: perf/BENCH_readlease.json
// (40 clients, 2 vCPU) records 9869 reads/s on the fast path against
// 1207 through agreement, an 8.2× ratio.
//
// # Sealed durability and crash recovery
//
// WithPersistence(dir) gives every replica a per-compartment durable
// store under dir/replica-<id>/: an append-only, segment-rotated
// write-ahead log of the compartment's delivered input messages plus
// sealed state snapshots, both AEAD-encrypted under keys derived from the
// enclave identities (which is why WithPersistence requires WithKeySeed —
// a restarted process must re-derive the same sealing keys). Appends are
// group-committed (one fsync covers a burst of records) and the log is
// garbage collected at stable checkpoints, when a fresh sealed snapshot
// of the compartment state is written.
//
// What is sealed: every WAL record and every snapshot. What is replayed:
// on Node.Restart — or NewNode over an existing directory — each
// compartment restores the newest intact snapshot and re-invokes the
// records after it; compartments are deterministic state machines, so the
// replayed input log reconstructs the pre-crash state up to the last
// durable record. What comes from peers: the un-fsynced tail a crash
// loses and everything committed during the outage, closed through the
// ordinary checkpoint/state-transfer path (plus targeted BatchFetch
// retransmission of committed-but-missing request bodies) once the node
// rejoins. A recovered replica also nudges: while it may still be
// behind, its broker tick broadcasts a StateProbe announcing how far it
// got, and any peer whose stable checkpoint is ahead answers with the
// certified snapshot — so the outage gap closes even on an idle cluster
// where no client traffic would otherwise reveal it. Sub-checkpoint
// gaps — too recent for any peer to own a newer stable checkpoint — are
// closed by the probe too: Confirmation compartments answer with
// re-authenticated Commits for committed slots above the prober's
// watermark (slot state is retained until checkpoint garbage
// collection), and the prober fetches the missing request bodies over
// the self-certifying BatchFetch path.
//
// A checkpoint snapshot carries the application state and, per client,
// the executed window Execution stores as its exactly-once record: the
// highest executed timestamp and a 128-bit map of which timestamps in the
// window below it executed (everything older counts as executed). That is
// exactly what decides whether a retransmitted request is skipped, and
// nothing else is encoded — not the per-replica reply bodies, which the
// record holds only for timestamps its window marks — so replicas with the
// same exactly-once state vote the same checkpoint digest however they
// reached it, state transfers included. The sealed export writes the same
// window with the same codec, then the held bodies.
//
// State is encoded once, into the buffer it leaves in: the key-value store
// keeps its sorted key order between checkpoints and encodes its snapshot
// straight into the checkpoint buffer; a message handed to co-located
// compartments and to the network is marshalled once, its outputs sharing
// the read-only payload; sealed exports encode embedded messages in place;
// and a sealed blob, WAL records included, is built in the buffer it is
// written from. The on-disk sealed-blob and WAL-frame layouts do not depend
// on it.
//
// Each store also keeps a sealed tail marker pinning the highest
// fsync-durable WAL record (refreshed at snapshots and clean close);
// recovery that finds less log than the marker promises refuses with
// store.ErrTailRollback instead of reading a malicious truncation as an
// ordinary crash artifact. The marker never overstates durability, so
// honest crashes with un-fsynced tails are not flagged.
//
// Node.Crash is the SIGKILL-equivalent fault-injection handle (the
// durability stores drop their unflushed tail), Cluster.CrashNode and
// Cluster.RestartNode drive the scenario in-process, and
// Node.RecoveryStats reports snapshots restored, WAL records replayed and
// replay throughput. The recovery ablation is `splitbft-bench -exp
// recovery`.
//
// # Benchmarking and the perf trajectory
//
// The repository benchmark (benchmark/, a module of its own, run by
// benchmark/run.sh and declared in BENCHMARK.json) is the one source of
// performance numbers: four workloads, five gated end-to-end metrics and
// the per-layer metrics of a traced run. The evaluation harness under
// experiments/bench drives closed-loop clients through cmd/splitbft-bench
// to reproduce the paper's tables and figures and to run the ablations
// (auth, consensus, read leases, recovery); its -json output is the
// splitbft-bench/v1 envelope committed under perf/ (see README
// "Benchmarking & perf trajectory").
//
// # Observability
//
// WithObservability turns on a unified metrics-and-tracing layer;
// WithMetricsAddr additionally serves it over HTTP (/metrics in
// Prometheus text format, /healthz, /debug/trace — stdlib only). All
// instrumentation records on the untrusted side at compartment
// boundaries: the enclaves stay minimal, and what the layer reports is
// exactly the evidence the untrusted environment can see anyway —
// requests classified, batches entering the Preparation ecall, the
// replica's own PrePrepares and Commits leaving, replies going out.
// Request lifecycles become sampled spans over the write chain
// (classify → enqueue → preprepare → prepare-cert → commit → execute →
// reply) and the leased-read chain (arrive → read-index → serve);
// Node.Metrics, Node.StageLatencies and Node.MetricsAddr are the
// programmatic views. Confidential payloads never appear in traces or
// metric labels. Disabled, every hook is a nil-receiver no-op pinned at
// zero allocations by a test; enabled, counters stay lock-free atomics
// read only at scrape time. The repository benchmark's traced pass
// measures the overhead on every workload as obs.trace_overhead_frac.
// One Node.ResetStats call zeroes every surface — enclave counters,
// protocol counters, tracer — as a single measurement epoch.
//
// # Chaos testing
//
// experiments/chaos (driven by cmd/splitbft-chaos) runs a live workload
// against a Cluster while executing a seeded fault plan over four
// surfaces — network (per-link drop/duplication/reordering/delay,
// symmetric and asymmetric partitions, client-stranding partitions via
// Cluster.PartitionWithClients), disk (Node.DiskFaults write/fsync
// errors and stalls against the sticky-failure barrier), clock
// (Node.SetClockSkew on the lease-safety paths) and enclave/process
// (CrashEnclave, Crash/Restart) — while checking three safety
// invariants online and at quiescence: ledger-prefix parity of a
// chained execution journal across replicas, per-key linearizability of
// the read history, and exactly-once apply across crash-restart. Plans
// are pure functions of (name, seed, shape, duration) and the simulated
// network draws faults from per-link seeded streams, so one seed
// replays one fault sequence exactly; a violation report carries that
// seed, the live plan step and the offending history. See README
// "Chaos testing".
//
// The protocol engine lives under internal/ (internal/core is the
// compartmentalized replica, internal/pbft the monolithic baseline the
// paper compares against); the experiment harness reproducing the paper's
// tables and figures is public under experiments/ and is driven by
// cmd/splitbft-bench. See README.md for the full architecture overview.
package splitbft
