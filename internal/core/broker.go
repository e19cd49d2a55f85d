package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft/internal/compartment/execution"
	"github.com/splitbft/splitbft/internal/compartment/preparation"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/ring"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// broker is the untrusted environment of a SplitBFT replica (§5): a shim
// layer where enclaves register. It handles all I/O for the enclaves —
// network sends, the ecall queues, request batching, and timers. It is
// untrusted: a compromised broker can drop, delay or misroute, costing
// liveness or availability, but never integrity or confidentiality.
//
// The inbound hot path is a staged pipeline: classify (structural check +
// dedup on the transport threads, so garbage and retransmits never pay for
// an enclave crossing) → batch ecall (each dispatcher delivers whatever is
// queued for its compartment, up to maxCrossing messages, in one
// trusted-boundary crossing) → serial apply (handlers run one at a time in
// submission order, verifying what they need when they need it).
type broker struct {
	cfg  Config
	conn transport.Conn

	enclaves map[crypto.Role]*tee.Enclave
	queues   []*queue // one per enclave, or a single shared queue
	dedup    *dedup
	// stores holds the per-compartment durability stores (nil map when
	// persistence is off). The map itself is read-only after construction.
	stores map[crypto.Role]*comStore

	mu           sync.Mutex
	pendingReqs  ring.Buffer[messages.Request]
	batchSince   time.Time
	viewEstimate uint64
	newView      uint64 // highest view a NewView was seen for
	askedView    uint64 // highest view this replica's own ViewChange asked for
	// awaiting is the environment's one record of client requests: every
	// request this replica has seen and not yet seen answered, whether or
	// not it is the primary. An entry clears when the Reply leaves or when
	// Execution's exactly-once records say the request executed (onExecuted).
	// Its body lets a replica that becomes primary mid-request propose it
	// immediately instead of waiting for the client's next (backed-off)
	// retransmit — clients broadcast to all replicas.
	awaiting map[reqKey]*pendingReq
	// The failure detector's one timer (detectLocked): it times the awaited
	// request timed from timerStart, zero while nothing is awaited. askFor
	// is the timer start the last ask to Execution went out under, and
	// asking holds while that ask has not come back.
	timed       reqKey
	timerStart  time.Time
	askFor      time.Time
	asking      bool
	lastRotate  time.Time
	lastLease   time.Time // last lease-clock tick into Preparation
	fetchBudget int       // remaining budgeted forwards this period
	probesLeft  int       // detector periods whose Execution query still probes

	// The refusal hold (onRefused): after Preparation refuses a batch, the
	// batch buffer offers nothing until the bound the refusal named has
	// passed — heldUntil, when the write fence lifts on this clock, or, while
	// heldWindow, the next Checkpoint crossing into Preparation.
	heldUntil  time.Time
	heldWindow bool

	// The Execution query policy's state (queryEvery, forwardFetches),
	// touched only by the dispatcher serving Execution's queue.
	execMsgs int    // messages delivered to Execution
	fetchSeq uint64 // slot the last BatchFetch Execution answered named

	blocksMu sync.Mutex
	blocks   [][]byte // sealed blockchain blocks persisted via ocall

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mReplies atomic.Uint64
	mBatches atomic.Uint64
	// Batches Preparation refused (onRefused), by reason.
	mRefusedWindow atomic.Uint64
	mRefusedFence  atomic.Uint64

	mSuspects    atomic.Uint64
	mGarbage     atomic.Uint64 // malformed inbound messages dropped pre-ecall
	mDeduped     atomic.Uint64 // retransmits dropped pre-ecall
	mViewChanges atomic.Uint64 // view-estimate advances (observed NewView or own suspicion)

	// Execution's protocol events, counted by countEvent from the outputs
	// the broker forwards.
	mLocalReads     atomic.Uint64 // ReadReplys served under a lease
	mLeaseRefusals  atomic.Uint64 // ReadReplys refusing the local read
	mReadIndexes    atomic.Uint64 // ReadIndex frontier queries
	mStallFetches   atomic.Uint64 // BatchFetches for a missing body
	mProbesSent     atomic.Uint64 // StateProbes: rejoin nudges and state asks
	mProbesAnswered atomic.Uint64 // StateReplys answering a peer's probe

	// tr is the request-lifecycle tracer (nil when observability is off).
	// Every stamp below sits behind a nil check; the broker stamps spans at
	// exactly the points where requests cross a compartment boundary it can
	// see — it never looks inside enclaves, only at the traffic between
	// them.
	tr *obs.Tracer
}

// dedupEntries bounds the retransmit filter's generational set.
const dedupEntries = 1 << 13

// fetchBudgetPerPeriod caps how many BatchFetch and StateProbe asks this
// replica serves per failure-detector period. They are unauthenticated and
// their replies carry request bodies or snapshots addressed to the
// *claimed* requester, so without a bound, forged asks would make every
// honest replica reflect amplified traffic at a victim. Genuine recovery needs a
// handful per period; the cap is untrusted-side, so over-dropping costs
// liveness only (a dropped ask is re-sent, and admitted next period).
const fetchBudgetPerPeriod = 128

func newBroker(cfg Config, enclaves [3]*tee.Enclave, stores map[crypto.Role]*comStore) *broker {
	b := &broker{
		cfg:         cfg,
		enclaves:    make(map[crypto.Role]*tee.Enclave, len(enclaves)),
		stores:      stores,
		dedup:       newDedup(dedupEntries),
		awaiting:    make(map[reqKey]*pendingReq),
		fetchBudget: fetchBudgetPerPeriod,
		stop:        make(chan struct{}),
		tr:          cfg.Obs.Trace(),
	}
	for _, enc := range enclaves {
		b.enclaves[enc.Identity().Role] = enc
	}
	b.enclaves[crypto.RoleExecution].RegisterOcall(execution.OcallExecuted, b.onExecuted)
	b.enclaves[crypto.RolePreparation].RegisterOcall(preparation.OcallRefused, b.onRefused)
	if stores != nil {
		// What committed while this replica was down is in no local log, and
		// an idle cluster's traffic would never reveal it: ask the peers.
		b.probesLeft = probePeriods
	}
	if cfg.SingleThread {
		b.queues = []*queue{newQueue()}
	} else {
		b.queues = []*queue{newQueue(), newQueue(), newQueue()}
	}
	return b
}

// queueFor returns the queue serving a compartment.
func (b *broker) queueFor(role crypto.Role) *queue {
	if b.cfg.SingleThread {
		return b.queues[0]
	}
	switch role {
	case crypto.RolePreparation:
		return b.queues[0]
	case crypto.RoleConfirmation:
		return b.queues[1]
	default:
		return b.queues[2]
	}
}

// submit enqueues an ecall for a compartment. pb may be nil for
// caller-owned payloads.
func (b *broker) submit(role crypto.Role, payload []byte, pb *pooledBuf) {
	b.queueFor(role).push(ecall{role: role, payload: payload, pb: pb})
}

// start launches the dispatcher threads (one per enclave, matching the
// paper's "each enclave is associated with a thread that triggers ecalls";
// or a single thread in SingleThread mode) plus the event loop.
func (b *broker) start(conn transport.Conn) {
	b.conn = conn
	for _, q := range b.queues {
		b.wg.Add(1)
		go b.dispatch(q)
	}
	b.wg.Add(1)
	go b.eventLoop()
}

func (b *broker) stopAll() {
	b.once.Do(func() {
		close(b.stop)
		for _, q := range b.queues {
			q.close()
		}
	})
	b.wg.Wait()
}

// maxCrossing bounds how many queued ecalls one trusted-boundary crossing
// delivers. A crossing takes whatever is waiting — one message on an idle
// replica, so nothing is ever held back to fill a batch — and the bound
// keeps the outputs of the first message from waiting behind an unbounded
// backlog.
const maxCrossing = 16

// dispatch drives the enclaves behind q: each round takes what is queued
// (up to maxCrossing) and delivers every run of consecutive ecalls for one
// compartment in a single crossing (cross).
func (b *broker) dispatch(q *queue) {
	defer b.wg.Done()
	var drained []ecall
	var payloads [][]byte
	peers := make([][][]byte, b.cfg.N) // route's scratch
	for {
		var ok bool
		drained, ok = q.drain(drained[:0], maxCrossing)
		if !ok {
			return
		}
		for i := 0; i < len(drained); {
			j := i + 1
			for j < len(drained) && drained[j].role == drained[i].role {
				j++
			}
			payloads = b.cross(drained[i:j], payloads[:0], peers)
			i = j
		}
	}
}

// cross delivers a run of ecalls for one compartment in one crossing — one
// transition, one WAL sync — then routes the run's outputs. payloads and
// peers are the calling dispatcher's scratch; cross returns payloads for
// reuse.
func (b *broker) cross(run []ecall, payloads [][]byte, peers [][][]byte) [][]byte {
	role := run[0].role
	cs := b.stores[role]
	if cs != nil {
		// Write-ahead: the input log hits the WAL before the enclave sees
		// it, so replay covers everything delivered.
		cs.persistRun(run)
	}
	for k := range run {
		payloads = append(payloads, run[k].payload)
	}
	asks, ckpt := false, false
	switch role {
	case crypto.RoleExecution:
		payloads, asks = b.appendQuery(payloads)
	case crypto.RolePreparation:
		ckpt = carriesCheckpoint(payloads)
	}
	out, err := b.enclaves[role].InvokeBatch(payloads)
	for k := range run {
		run[k].release() // payloads were copied into the enclave
	}
	if ckpt {
		b.reofferHeldWindow()
	}
	if asks {
		// The ask came back: its ocall already cleared what executed, and a
		// crashed enclave vouches for nothing, so the detector may now
		// suspect on what is still awaited.
		b.mu.Lock()
		b.asking = false
		b.mu.Unlock()
	}
	if err != nil {
		return payloads // crashed enclave: drop (availability loss only)
	}
	if role == crypto.RoleExecution {
		out = b.forwardFetches(out)
	}
	// Outputs must not escape before the inputs that caused them are
	// durable: a signed PrePrepare surviving a crash that its WAL record did
	// not would let the restarted (amnesiac) enclave sign a conflicting
	// proposal for the same slot — the equivocation the proposal record
	// exists to prevent. So when the log cannot confirm durability (its
	// failure is sticky — a dead disk stays dead), the outputs are dropped:
	// the compartment goes mute, an availability loss, never a safety one.
	// The whole run shares this one Sync; a quiet run's records wait in
	// the store's buffer for the compartment's next output, snapshot or
	// shutdown.
	if cs != nil && len(out) > 0 && cs.st.Sync() != nil {
		out = nil
	}
	b.route(out, peers)
	if cs != nil {
		cs.maybeSnapshot()
	}
	return payloads
}

// route delivers the output messages of one dispatch run. Local outputs are
// enqueued and client-bound ones sent as the run is walked; replica-bound
// ones are collected per peer, in output order, in the calling dispatcher's
// scratch (peers, one entry per replica ID, empty between calls) and leave
// in one Send per peer once the run is exhausted — over TCP one write(2) per
// peer and run instead of one per frame. A run of one output is the same
// path with one frame; nothing waits for a later run.
func (b *broker) route(out []tee.OutMsg, peers [][][]byte) {
	for i := range out {
		m := &out[i]
		b.countEvent(m.Payload)
		switch m.Kind {
		case tee.DestBroadcast:
			b.observeOutbound(m.Payload)
			for id := range peers {
				if uint32(id) != b.cfg.ID {
					peers[id] = append(peers[id], m.Payload)
				}
			}
		case tee.DestReplica:
			b.observeOutbound(m.Payload)
			if int(m.ID) < len(peers) { // else no such endpoint, as Send would find
				peers[m.ID] = append(peers[m.ID], m.Payload)
			}
		case tee.DestClient:
			client, ts, stage, traced := b.noteClientBound(m.Payload)
			if b.conn != nil {
				_ = b.conn.Send(transport.ClientEndpoint(m.ID), m.Payload)
			}
			// The span closes after the transport hand-off, so the final
			// segment (execute → reply) covers the send itself.
			if traced {
				b.tr.Finish(client, ts, stage)
			}
		case tee.DestLocal:
			pb := frameMessage(m.Payload, 1)
			b.submit(m.Local, pb.buf, pb)
		}
	}
	for id, frames := range peers {
		if len(frames) == 0 {
			continue
		}
		if b.conn != nil {
			_ = b.conn.Send(transport.ReplicaEndpoint(uint32(id)), frames...)
		}
		clear(frames) // the payloads are the run's, not the scratch's, to keep alive
		peers[id] = frames[:0]
	}
}

// countEvent counts the protocol event an enclave output stands for, by its
// type byte alone. Only the Execution compartment emits these types, so the
// environment counts its reads, fetches and probes without reading enclave
// memory; outputs it never forwards — a crashed enclave's, a WAL replay's, a
// run whose inputs failed to sync — count nothing.
func (b *broker) countEvent(data []byte) {
	if len(data) == 0 {
		return
	}
	switch messages.Type(data[0]) {
	case messages.TReadReply:
		if _, _, served, ok := messages.ReadReplyHeader(data); ok && served {
			b.mLocalReads.Add(1)
		} else if ok {
			b.mLeaseRefusals.Add(1)
		}
	case messages.TReadIndex:
		b.mReadIndexes.Add(1)
	case messages.TBatchFetch:
		b.mStallFetches.Add(1)
	case messages.TStateProbe:
		b.mProbesSent.Add(1)
	case messages.TStateReply:
		b.mProbesAnswered.Add(1)
	}
}

// observeOutbound reads this replica's own outbound protocol traffic — the
// only untrusted-visible evidence of progress inside the enclaves. Its
// ViewChanges and NewViews steer the failure detector and batching duty
// whether or not tracing is on; with tracing on it also stamps lifecycle
// spans, decoding only the message kinds it cares about.
func (b *broker) observeOutbound(data []byte) {
	if len(data) == 0 {
		return
	}
	typ := messages.Type(data[0])
	switch typ {
	case messages.TViewChange:
		// The Confirmation enclave left its view, on its own suspicion or
		// by joining f+1 others: the NewView of the view it asked for will
		// restart the failure detector (observeNewView).
		m, err := messages.Unmarshal(data)
		if err != nil {
			return
		}
		b.mu.Lock()
		b.askedView = max(b.askedView, m.(*messages.ViewChange).NewViewNum)
		b.mu.Unlock()
		return
	case messages.TNewView:
		// This replica is the new primary announcing the view change.
		m, err := messages.Unmarshal(data)
		if err != nil {
			return
		}
		b.observeNewView(m.(*messages.NewView))
		return
	}
	if b.tr == nil {
		return
	}
	switch typ {
	case messages.TPrePrepare:
		// Own proposal leaving the Preparation compartment: link the batch
		// members to their sequence number (followers link in handler).
		m, err := messages.Unmarshal(data)
		if err != nil {
			return
		}
		pp := m.(*messages.PrePrepare)
		for i := range pp.Batch.Requests {
			r := &pp.Batch.Requests[i]
			b.tr.Link(pp.Seq, r.ClientID, r.Timestamp)
		}
	case messages.TCommit:
		// Own Commit leaving the Confirmation compartment proves it holds a
		// prepare certificate; it also counts toward the commit quorum.
		m, err := messages.Unmarshal(data)
		if err != nil {
			return
		}
		c := m.(*messages.Commit)
		b.tr.StampSeq(c.Seq, obs.StagePrepareCert)
		b.tr.CommitVote(c.Seq, b.cfg.N-b.cfg.F)
	case messages.TReadIndex:
		// A frontier query leaving the Execution compartment confirms every
		// read pending at this moment (queries are batched per epoch).
		b.tr.StampActiveReads(obs.StageReadIndex)
	}
}

// noteClientBound inspects outbound client traffic to clear awaited requests
// and count executed operations. The broker may read these envelopes — the
// confidential payload inside is ciphertext. For a Reply or ReadReply it
// returns the request identity and the stage its span closes at, so route
// can close the span after the send; ok is false for other traffic.
func (b *broker) noteClientBound(data []byte) (client uint32, ts uint64, stage obs.Stage, ok bool) {
	if len(data) == 0 {
		return 0, 0, 0, false
	}
	switch messages.Type(data[0]) {
	case messages.TReply:
		// Only the request identity is needed, and it sits in the fixed
		// header: no decode of a frame the broker merely forwards.
		if client, ts, ok = messages.ReplyIdentity(data); !ok {
			return 0, 0, 0, false
		}
		b.mReplies.Add(1)
		b.mu.Lock()
		delete(b.awaiting, reqKey{client: client, ts: ts})
		b.mu.Unlock()
		// The reply emerging from the Execution compartment is the
		// untrusted side's proof the operation was applied.
		b.tr.Stamp(client, ts, obs.StageExecute)
		return client, ts, obs.StageReply, true
	case messages.TReadReply:
		client, ts, _, ok = messages.ReadReplyHeader(data)
		return client, ts, obs.StageReadServe, ok
	}
	return 0, 0, 0, false
}

// routeRow is what the untrusted environment does with one replica-bound
// message type: the compartments whose input logs get a copy (the §3.2
// duplication); whether byte-identical retransmits are dropped before they
// pay for an enclave crossing (agreement traffic only: the attest and
// state-transfer exchanges rely on identical re-asks getting through);
// whether it spends fetchBudget; and whether it is read-lease traffic,
// which persistRun keeps out of the WAL — leases, acks and read-index
// exchanges are deliberately ephemeral (a restarted replica must come back
// leaseless and fail closed, and a replayed frontier would be stale) and
// local reads mutate no replicated state.
type routeRow struct {
	to                   []crypto.Role
	dedup, budget, lease bool
}

var (
	toAll      = []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution}
	toPrepConf = []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation}
	toConfExec = []crypto.Role{crypto.RoleConfirmation, crypto.RoleExecution}
	toPrep     = []crypto.Role{crypto.RolePreparation}
	toConf     = []crypto.Role{crypto.RoleConfirmation}
	toExec     = []crypto.Role{crypto.RoleExecution}
)

// inboundRoutes is the broker's one list of the message types a replica
// accepts from the network, with a row for every Type value; a type whose
// row names no compartment is dropped. Client requests are not routed but
// batched (onClientRequest). The table lives here rather than in
// internal/messages because routing is the environment's job, and every
// enclave links the messages package.
var inboundRoutes = [256]routeRow{
	// Preparation prepares a PrePrepare, Confirmation matches it against
	// Prepares, Execution takes the request bodies from it.
	messages.TPrePrepare:    {to: toAll, dedup: true},
	messages.TPrepare:       {to: toConf, dedup: true},
	messages.TCommit:        {to: toExec, dedup: true},
	messages.TCheckpoint:    {to: toAll, dedup: true},
	messages.TViewChange:    {to: toPrepConf, dedup: true},
	messages.TNewView:       {to: toAll, dedup: true},
	messages.TAttestRequest: {to: toExec},
	messages.TProvisionKey:  {to: toExec},
	messages.TStateReply:    {to: toExec},
	messages.TBatchFetch:    {to: toExec, budget: true},
	messages.TBatchReply:    {to: toExec},
	// Confirmation answers with its Commit tail, Execution with a newer
	// stable snapshot: together they close gaps of any size.
	messages.TStateProbe: {to: toConfExec, budget: true},
	// Read-lease fast path, not deduplicated: a resent read meets the
	// enclave's replay guard; grants are unique by expiry, replies by epoch.
	messages.TLeaseGrant:     {to: toExec, lease: true},
	messages.TReadRequest:    {to: toExec, lease: true},
	messages.TLeaseAck:       {to: toPrep, lease: true},
	messages.TReadIndex:      {to: toPrep, lease: true},
	messages.TReadIndexReply: {to: toExec, lease: true},
}

// handler is the transport inbound path — the classify stage of the
// pipeline. It checks every message's structure in the untrusted
// environment (on the transport threads, off the dispatcher hot path) so
// malformed input never pays for an enclave crossing, then applies the
// type's row of inboundRoutes. It forwards, so it needs a verdict and not a
// message: it decodes only what it reads a field of — client requests, a
// NewView's view, and with the tracer on the sequence numbers and batch
// members the spans are keyed by. data is the transport's (see
// transport.Handler); every path below copies it (frameMessage) or decodes
// it before returning.
func (b *broker) handler(_ transport.Endpoint, data []byte) {
	if len(data) == 0 {
		return
	}
	t := messages.Type(data[0])
	if t == messages.TRequest {
		b.onClientRequest(data)
		return
	}
	r := &inboundRoutes[t]
	if r.to == nil {
		return // unknown type, or one no compartment takes from the network
	}
	var m messages.Message // nil on the check-only path
	var err error
	if b.tr != nil || t == messages.TNewView {
		m, err = messages.Unmarshal(data)
	} else {
		err = messages.Check(data)
	}
	if err != nil {
		b.mGarbage.Add(1)
		return
	}
	if r.dedup && b.dedup.seen(data) {
		b.mDeduped.Add(1)
		return
	}
	if r.budget {
		b.mu.Lock()
		spent := b.fetchBudget > 0
		if spent {
			b.fetchBudget--
		}
		b.mu.Unlock()
		if !spent {
			return
		}
	}
	// Observation hooks: m is decoded only for them (see above).
	switch m := m.(type) {
	case *messages.PrePrepare:
		// Link the batch members to their sequence number so later
		// per-seq protocol events (commits) reach their spans.
		for i := range m.Batch.Requests {
			req := &m.Batch.Requests[i]
			b.tr.Link(m.Seq, req.ClientID, req.Timestamp)
		}
	case *messages.Commit:
		b.tr.CommitVote(m.Seq, b.cfg.N-b.cfg.F)
	case *messages.ReadRequest:
		b.tr.Begin(m.ClientID, m.Timestamp, true)
	case *messages.NewView:
		b.observeNewView(m)
	}
	// Frame once: the duplicated input logs share one pooled buffer.
	pb := frameMessage(data, int32(len(r.to)))
	for _, role := range r.to {
		b.submit(role, pb.buf, pb)
	}
}
