package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/genset"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/ring"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// comStore pairs a compartment's durable store with its enclave and the
// snapshot-generation bookkeeping. lastEpoch is touched only by the
// dispatcher thread serving the compartment (or the single dispatcher in
// SingleThread mode), so it needs no lock; snapBusy is shared with the
// background snapshot writer.
type comStore struct {
	st  *store.Store
	enc *tee.Enclave
	// lastEpoch is the newest epoch whose snapshot durably landed; it is
	// atomic because the background writer advances it on success while
	// the dispatcher reads it.
	lastEpoch atomic.Uint64
	snapBusy  atomic.Bool
	// wg joins the in-flight background snapshot write: a store handoff
	// (Replica.Stop/Crash followed by a restart) must not leave the old
	// writer racing the new store for the directory.
	wg sync.WaitGroup
}

// drain waits for an in-flight background snapshot write to finish.
func (cs *comStore) drain() { cs.wg.Wait() }

// persistRun appends a run of same-compartment ecall payloads to the WAL
// before they are delivered. Append errors need no handling here: the
// store's failure is sticky, so the pre-route Sync in dispatch sees it
// and suppresses the outputs — a record lost with no output escaping is
// indistinguishable from a crash just before it, and the recovery path
// closes any such gap through peer state transfer. Environment timer
// ticks are skipped: they mutate no replayable state, and persisting one
// per detection period would grow an idle cluster's WAL forever. So is
// read-lease traffic (see routeRow).
func (cs *comStore) persistRun(run []ecall) {
	for k := range run {
		p := run[k].payload
		if len(p) == 1 && p[0] == compartment.EcallTick {
			continue
		}
		if len(p) > 1 && p[0] == compartment.EcallMessage && inboundRoutes[p[1]].lease {
			continue
		}
		_, _ = cs.st.Append(p)
	}
}

// maybeSnapshot seals a state snapshot when the compartment's stable
// checkpoint advanced since the last one — tying snapshot cadence (and
// therefore WAL garbage collection) to the protocol's checkpoints. Only
// the state export runs on the dispatcher; the file write and its fsyncs
// happen on a background goroutine with the coverage index captured now,
// so checkpoint-sized I/O never stalls agreement traffic. One write is in
// flight at a time; a skipped epoch retries at the next advance.
func (cs *comStore) maybeSnapshot() {
	ep := cs.enc.StateEpoch()
	if ep <= cs.lastEpoch.Load() || cs.snapBusy.Load() {
		return
	}
	sealed, err := cs.enc.SealState()
	if err != nil {
		return // e.g. crashed enclave: no snapshot, WAL keeps growing
	}
	index := cs.st.Stats().NextIndex - 1
	cs.snapBusy.Store(true)
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		// The epoch advances only when the snapshot durably landed, so a
		// failed write is retried at the next checkpoint advance rather
		// than silently skipped (which would leave the WAL growing
		// without GC until the crash after next).
		if cs.st.WriteSnapshotAt(sealed, index) == nil {
			cs.lastEpoch.Store(ep)
		}
		cs.snapBusy.Store(false)
	}()
}

// pooledBuf is a reference-counted ecall payload buffer recycled through a
// sync.Pool. Messages duplicated into several compartments' input logs
// (§3.2) share one buffer with one reference per queue; the enclave
// runtime copies payloads across the trusted boundary (and charges for
// it), so the untrusted-side buffer is dead as soon as its last ecall has
// been invoked and can be reused without another allocation — the pooled
// zero-copy path of the staged pipeline.
type pooledBuf struct {
	buf  []byte
	refs atomic.Int32
}

var bufPool = sync.Pool{New: func() any { return new(pooledBuf) }}

// newPooledBuf takes a buffer from the pool with refs references and at
// least sizeHint capacity, length zero.
func newPooledBuf(refs int32, sizeHint int) *pooledBuf {
	pb := bufPool.Get().(*pooledBuf)
	pb.refs.Store(refs)
	if cap(pb.buf) < sizeHint {
		pb.buf = make([]byte, 0, sizeHint)
	} else {
		pb.buf = pb.buf[:0]
	}
	return pb
}

// release drops one reference, returning the buffer to the pool when the
// last holder is done. Oversized one-off buffers (state snapshots) are let
// go to the GC instead so the pool's steady-state footprint stays small.
func (pb *pooledBuf) release() {
	if pb.refs.Add(-1) == 0 {
		if cap(pb.buf) <= 1<<16 {
			bufPool.Put(pb)
		}
	}
}

// frameMessage frames encoded wire-message bytes as an EcallMessage
// payload in a pooled buffer carrying refs references (one per
// destination queue).
func frameMessage(data []byte, refs int32) *pooledBuf {
	pb := newPooledBuf(refs, len(data)+1)
	pb.buf = append(pb.buf, compartment.EcallMessage)
	pb.buf = append(pb.buf, data...)
	return pb
}

// frameMsg is frameMessage for a not-yet-encoded message: it marshals
// straight into the pooled buffer.
func frameMsg(m messages.Message, refs int32) *pooledBuf {
	pb := newPooledBuf(refs, 64)
	pb.buf = append(pb.buf, compartment.EcallMessage)
	pb.buf = messages.AppendMessage(pb.buf, m)
	return pb
}

// frameBatch frames a request batch as an EcallBatch payload (single
// destination: the Preparation compartment).
func frameBatch(b *messages.Batch) *pooledBuf {
	pb := newPooledBuf(1, 64)
	pb.buf = append(pb.buf, compartment.EcallBatch)
	pb.buf = messages.AppendBatch(pb.buf, b)
	return pb
}

// ecall is one queued invocation of a local enclave.
type ecall struct {
	role    crypto.Role
	payload []byte
	pb      *pooledBuf // non-nil when payload is pooled; released post-ecall
}

// release returns a pooled payload to its pool once all sharers are done.
func (e *ecall) release() {
	if e.pb != nil {
		e.pb.release()
	}
}

// queue is an unbounded FIFO of ecalls over a ring buffer (O(1) push and
// pop, backing array reused at the high-water depth). Unboundedness
// removes any possibility of routing deadlock between enclave dispatchers
// (local outputs always enqueue without blocking); memory stays bounded by
// the protocol's watermark window in practice.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ring.Buffer[ecall]
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(e ecall) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		e.release()
		return
	}
	q.items.Push(e)
	q.cond.Signal()
}

// pop blocks until an item is available or the queue closes (a closed
// queue still drains its backlog).
func (q *queue) pop() (ecall, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.items.Pop()
}

// drain blocks like pop, then removes up to max items, appending them to
// dst so the dispatcher reuses one scratch slice across rounds.
func (q *queue) drain(dst []ecall, max int) ([]ecall, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.items.Len() == 0 {
		return dst, false
	}
	return q.items.PopN(dst, max), true
}

func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

func (q *queue) reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items.Reset()
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// dedup is a bounded generational filter over raw inbound message bytes:
// byte-identical retransmits of agreement messages are dropped in the
// untrusted environment before they pay for an enclave crossing. It is
// untrusted-side, so a wrong drop is indistinguishable from a network drop
// (liveness only, never safety); rotation — on fill or on the failure
// detector's clock — guarantees a deliberate retransmission (e.g. a stuck
// replica re-sending its ViewChange) passes through again after at most
// two detection periods (an untouched entry survives one rotation in the
// older generation). Frames are keyed by a 64-bit hash under a seed drawn
// per filter: a collision is one more such drop, and a remote sender cannot
// aim one without the seed.
type dedup struct {
	seed maphash.Seed
	mu   sync.Mutex
	set  *genset.Set[uint64]
}

func newDedup(entries int) *dedup {
	return &dedup{seed: maphash.MakeSeed(), set: genset.New[uint64](entries)}
}

// seen reports whether frame was recently submitted, recording it if not.
// Found entries are deliberately not re-armed: a suppressed resend must
// not extend its own suppression window.
func (d *dedup) seen(frame []byte) bool {
	sum := maphash.Bytes(d.seed, frame)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.set.Contains(sum) {
		return true
	}
	d.set.Add(sum)
	return false
}

// rotate ages the filter (called from the broker's tick).
func (d *dedup) rotate() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.set.Rotate()
}

// reqKey identifies a pending client request for failure detection.
type reqKey struct {
	client uint32
	ts     uint64
}

// pendingReq is a client request awaiting its reply: the body, for
// re-proposal after a view change, and when it first arrived, for the
// failure detector.
type pendingReq struct {
	req   *messages.Request
	since time.Time
}

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
	pendingKeys  map[reqKey]bool
	batchSince   time.Time
	viewEstimate uint64
	newView      uint64 // highest view a NewView was seen for
	askedView    uint64 // highest view this replica's own ViewChange asked for
	// awaiting holds every client request this replica has seen but not yet
	// observed a reply for, whether or not it is the primary. Its arrival
	// time drives the failure detector; its body lets a replica that
	// becomes primary mid-request propose it immediately instead of waiting
	// for the client's next (backed-off) retransmit — clients broadcast to
	// all replicas.
	awaiting map[reqKey]pendingReq
	// replied remembers requests this replica already answered. A copy
	// that arrives after the Reply left (over TCP the client's direct copy
	// can trail the primary's PrePrepare) must not re-arm awaiting — nothing
	// would ever clear it again, and the failure detector would suspect a
	// healthy primary one timeout later. Aged on the failure detector's
	// clock like dedup, so it stays bounded.
	replied     *genset.Set[reqKey]
	lastSuspect time.Time
	lastRotate  time.Time
	lastLease   time.Time // last lease-clock tick into Preparation
	fetchBudget int       // remaining budgeted forwards this period

	blocksMu sync.Mutex
	blocks   [][]byte // sealed blockchain blocks persisted via ocall

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mReplies atomic.Uint64
	mBatches atomic.Uint64

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

// dedupEntries bounds the broker's two generational sets: the retransmit
// filter and the answered-request memory.
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
		pendingKeys: make(map[reqKey]bool),
		awaiting:    make(map[reqKey]pendingReq),
		replied:     genset.New[reqKey](dedupEntries),
		fetchBudget: fetchBudgetPerPeriod,
		stop:        make(chan struct{}),
		tr:          cfg.Obs.Trace(),
	}
	for _, enc := range enclaves {
		b.enclaves[enc.Identity().Role] = enc
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

// submitShared frames data once and enqueues it for several compartments,
// sharing the pooled buffer across their input logs.
func (b *broker) submitShared(data []byte, roles ...crypto.Role) {
	pb := frameMessage(data, int32(len(roles)))
	for _, role := range roles {
		b.submit(role, pb.buf, pb)
	}
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
// compartment in a single crossing — one transition, one WAL sync — then
// routes the run's outputs.
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
			role := drained[i].role
			j := i + 1
			for j < len(drained) && drained[j].role == role {
				j++
			}
			run := drained[i:j]
			i = j
			cs := b.stores[role]
			if cs != nil {
				// Write-ahead: the input log hits the WAL before the
				// enclave sees it, so replay covers everything delivered.
				cs.persistRun(run)
			}
			payloads = payloads[:0]
			for k := range run {
				payloads = append(payloads, run[k].payload)
			}
			out, err := b.enclaves[role].InvokeBatch(payloads)
			for k := range run {
				run[k].release() // payloads were copied into the enclave
			}
			if err != nil {
				continue // crashed enclave: drop (availability loss only)
			}
			// Outputs must not escape before the inputs that caused them
			// are durable: a signed PrePrepare surviving a crash that its
			// WAL record did not would let the restarted (amnesiac) enclave
			// sign a conflicting proposal for the same slot — the
			// equivocation the proposal record exists to prevent. So when
			// the log cannot confirm durability (its failure is sticky — a
			// dead disk stays dead), the outputs are dropped: the
			// compartment goes mute, an availability loss, never a safety
			// one. The whole run shares this one Sync; quiet runs stay on
			// the store's timed group commit.
			if cs != nil && len(out) > 0 && cs.st.Sync() != nil {
				out = nil
			}
			b.route(out, peers)
			if cs != nil {
				cs.maybeSnapshot()
			}
		}
	}
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
			client, ts, kind := b.noteClientBound(m.Payload)
			if b.conn != nil {
				_ = b.conn.Send(transport.ClientEndpoint(m.ID), m.Payload)
			}
			// The span closes after the transport hand-off, so the final
			// segment (execute → reply) covers the send itself.
			switch kind {
			case clientBoundReply:
				b.tr.Finish(client, ts, obs.StageReply)
			case clientBoundReadReply:
				b.tr.Finish(client, ts, obs.StageReadServe)
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

// Outbound client-traffic kinds noted by noteClientBound.
const (
	clientBoundOther = iota
	clientBoundReply
	clientBoundReadReply
)

// noteClientBound inspects outbound client traffic to clear awaited requests
// and count executed operations. The broker may read these envelopes — the
// confidential payload inside is ciphertext. It returns the request
// identity and kind so route can close the lifecycle span after the send.
func (b *broker) noteClientBound(data []byte) (client uint32, ts uint64, kind int) {
	if len(data) == 0 {
		return 0, 0, clientBoundOther
	}
	switch messages.Type(data[0]) {
	case messages.TReply:
		// Only the request identity is needed, and it sits in the fixed
		// header: no decode of a frame the broker merely forwards.
		client, ts, ok := messages.ReplyIdentity(data)
		if !ok {
			return 0, 0, clientBoundOther
		}
		b.mReplies.Add(1)
		b.mu.Lock()
		key := reqKey{client: client, ts: ts}
		delete(b.awaiting, key)
		b.replied.Add(key)
		b.mu.Unlock()
		// The reply emerging from the Execution compartment is the
		// untrusted side's proof the operation was applied.
		b.tr.Stamp(client, ts, obs.StageExecute)
		return client, ts, clientBoundReply
	case messages.TReadReply:
		client, ts, _, ok := messages.ReadReplyHeader(data)
		if !ok {
			return 0, 0, clientBoundOther
		}
		return client, ts, clientBoundReadReply
	}
	return 0, 0, clientBoundOther
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
	b.submitShared(data, r.to...)
}

// observeNewView updates the broker's view estimate so batching
// responsibility follows the primary. The estimate is untrusted and only
// affects liveness. A NewView that actually advances the estimate counts
// as one observed view change (retransmits don't), and voids the
// tracer's pending commit-vote counts — votes from the deposed view
// cannot certify sequence numbers in the new one.
//
// The first NewView of a view re-proposes the awaited requests if this
// replica leads it, even when the failure detector already moved the
// estimate there: that earlier promotion reached a Preparation enclave
// still in the old view, which drops batches it cannot lead. If this
// replica's own ViewChange asked for the view, the NewView also restarts
// the failure detector (as PBFT restarts a backup's timer on entering a
// view); else the detector, still timing the request from the old view,
// fires as soon as a slow or late-joined view change completes, and where
// every live replica is needed for a quorum that deposes the view before
// its first commit. The NewView is unauthenticated here, so a forged one
// can delay suspicion at most once per view this replica asked for.
func (b *broker) observeNewView(nv *messages.NewView) {
	advanced := false
	var promoted *messages.Batch
	b.mu.Lock()
	if nv.View > b.newView {
		b.newView = nv.View
		if nv.View <= b.askedView {
			b.lastSuspect = time.Now()
		}
		if nv.View > b.viewEstimate {
			b.viewEstimate = nv.View
			advanced = true
		}
		promoted = b.promoteAwaitingLocked()
	}
	b.mu.Unlock()
	if advanced {
		b.mViewChanges.Add(1)
		b.tr.OnViewChange()
	}
	if promoted != nil {
		b.submitBatch(promoted)
	}
}

// promoteAwaitingLocked queues every request awaiting a reply for
// proposal if this replica now believes it holds batching duty. Clients
// broadcast each request to all replicas, but only the then-primary queues
// it on arrival — without promotion a new primary sits on a pending
// request until the client's next retransmit, while the failure detector
// keeps advancing views, so post-view-change liveness would hinge on the
// client's (exponentially backed-off) retransmit cadence. Re-proposing a
// request that already committed in an earlier view is safe: ordering it
// twice is filtered by the Execution compartments' exactly-once caches.
// Returns a full batch to submit (nil if below BatchSize — the batch
// timeout flushes the remainder).
func (b *broker) promoteAwaitingLocked() *messages.Batch {
	if !b.believesPrimaryLocked() || len(b.awaiting) == 0 {
		return nil
	}
	for key, p := range b.awaiting {
		if b.pendingKeys[key] {
			continue
		}
		if b.pendingReqs.Len() == 0 {
			b.batchSince = time.Now()
		}
		b.pendingKeys[key] = true
		b.pendingReqs.Push(*p.req)
	}
	if b.pendingReqs.Len() >= b.cfg.BatchSize {
		return b.takeBatchLocked()
	}
	return nil
}

// believesPrimary reports whether this replica's Preparation compartment is
// the primary under the broker's view estimate.
func (b *broker) believesPrimaryLocked() bool {
	return uint32(b.viewEstimate%uint64(b.cfg.N)) == b.cfg.ID
}

// onClientRequest performs untrusted batching (§3.2: "we also place the
// batching of requests into the untrusted environment") and failure
// detection bookkeeping.
func (b *broker) onClientRequest(data []byte) {
	m, err := messages.Unmarshal(data)
	if err != nil {
		b.mGarbage.Add(1)
		return
	}
	req := m.(*messages.Request)
	b.tr.Begin(req.ClientID, req.Timestamp, false)
	key := reqKey{client: req.ClientID, ts: req.Timestamp}
	var submitNow *messages.Batch
	b.mu.Lock()
	// An already-answered request arms nothing; it still goes to batching
	// below, so a genuine retransmit gets its cached reply.
	if _, ok := b.awaiting[key]; !ok && !b.replied.Contains(key) {
		b.awaiting[key] = pendingReq{req: req, since: time.Now()}
	}
	if b.believesPrimaryLocked() && !b.pendingKeys[key] {
		if b.pendingReqs.Len() == 0 {
			b.batchSince = time.Now()
		}
		b.pendingKeys[key] = true
		b.pendingReqs.Push(*req)
		if b.pendingReqs.Len() >= b.cfg.BatchSize {
			submitNow = b.takeBatchLocked()
		}
	}
	b.mu.Unlock()
	if submitNow != nil {
		b.submitBatch(submitNow)
	}
}

// takeBatchLocked removes up to BatchSize requests from the buffer.
func (b *broker) takeBatchLocked() *messages.Batch {
	if b.pendingReqs.Len() == 0 {
		return nil
	}
	take := b.pendingReqs.Len()
	if take > b.cfg.BatchSize {
		take = b.cfg.BatchSize
	}
	batch := &messages.Batch{
		Requests: b.pendingReqs.PopN(make([]messages.Request, 0, take), take),
	}
	for i := range batch.Requests {
		delete(b.pendingKeys, reqKey{
			client: batch.Requests[i].ClientID,
			ts:     batch.Requests[i].Timestamp,
		})
	}
	b.batchSince = time.Now()
	return batch
}

func (b *broker) submitBatch(batch *messages.Batch) {
	b.mBatches.Add(1)
	if b.tr != nil {
		for i := range batch.Requests {
			r := &batch.Requests[i]
			b.tr.Stamp(r.ClientID, r.Timestamp, obs.StageEnqueue)
		}
	}
	pb := frameBatch(batch)
	b.submit(crypto.RolePreparation, pb.buf, pb)
}

// eventLoop drives batch timeouts and the request-timer failure detector.
func (b *broker) eventLoop() {
	defer b.wg.Done()
	tick := b.cfg.BatchTimeout / 2
	if tick <= 0 || tick > 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
			b.onTick(time.Now())
		}
	}
}

func (b *broker) onTick(now time.Time) {
	var batch *messages.Batch
	suspect := false
	var suspectView uint64
	b.mu.Lock()
	if b.pendingReqs.Len() > 0 && now.Sub(b.batchSince) >= b.cfg.BatchTimeout {
		batch = b.takeBatchLocked()
	}
	// Age the retransmit filter on the failure detector's clock so
	// deliberate resends (ViewChange rebroadcasts, NewView retransmits to
	// stragglers) are suppressed for at most two detection periods.
	tick := false
	if now.Sub(b.lastRotate) > b.cfg.RequestTimeout {
		b.lastRotate = now
		b.dedup.rotate()
		b.replied.Rotate()
		b.fetchBudget = fetchBudgetPerPeriod
		tick = true
	}
	leaseTick := false
	if b.cfg.ReadLeases && now.Sub(b.lastLease) > b.cfg.LeaseTTL/8 {
		b.lastLease = now
		leaseTick = true
	}
	// Failure detection: any request pending longer than the timeout.
	if now.Sub(b.lastSuspect) > b.cfg.RequestTimeout {
		for key, p := range b.awaiting {
			if now.Sub(p.since) > 10*b.cfg.RequestTimeout {
				// Stale entry (e.g. pre-dedup retransmit, or a request
				// executed before a state transfer skipped this replica
				// past the reply). A still-live client retransmits well
				// inside this horizon and re-arms it.
				delete(b.awaiting, key)
				continue
			}
			if now.Sub(p.since) > b.cfg.RequestTimeout {
				suspect = true
				suspectView = b.viewEstimate
				break
			}
		}
		if suspect {
			b.lastSuspect = now
			b.viewEstimate++ // batching duty may now be ours in v+1
		}
	}
	var promoted *messages.Batch
	if suspect {
		promoted = b.promoteAwaitingLocked()
	}
	b.mu.Unlock()
	if batch != nil {
		b.submitBatch(batch)
	}
	if promoted != nil {
		b.submitBatch(promoted)
	}
	if tick {
		// Periodic environment nudge into Execution: drives the rejoin
		// probe (and the missing-body stall detector) even when no
		// protocol traffic flows, and ages out parked leased reads.
		// Never persisted — see persistRun.
		b.submit(crypto.RoleExecution, []byte{compartment.EcallTick}, nil)
	}
	if leaseTick {
		// With read leases on, the Preparation compartment runs on its own
		// faster lease clock (TTL/8, well under the TTL/4 renewal period):
		// the primary renews leases on it even when no proposals flow, so
		// an idle cluster keeps serving local reads. Deliberately NOT the
		// Execution tick above — lease renewal must not drain Execution's
		// rejoin-probe budget or distort its stall detector.
		b.submit(crypto.RolePreparation, []byte{compartment.EcallTick}, nil)
	}
	if suspect {
		b.mSuspects.Add(1)
		// The suspect path advanced the view estimate without a NewView
		// (batching duty may already be ours), so it is a view change this
		// replica observed too — and the deposed view's pending commit
		// votes can no more certify the new view here than on the
		// NewView-observing path.
		b.mViewChanges.Add(1)
		b.tr.OnViewChange()
		pb := frameMsg(&messages.Suspect{Replica: b.cfg.ID, View: suspectView}, 1)
		b.submit(crypto.RoleConfirmation, pb.buf, pb)
	}
}

// persistBlock is the "fs.write" ocall target: it stores a sealed
// blockchain block in untrusted memory (standing in for protected-file I/O).
func (b *broker) persistBlock(data []byte) ([]byte, error) {
	b.blocksMu.Lock()
	defer b.blocksMu.Unlock()
	b.blocks = append(b.blocks, data)
	return nil, nil
}

// persistedBlocks returns how many sealed blocks were written.
func (b *broker) persistedBlocks() int {
	b.blocksMu.Lock()
	defer b.blocksMu.Unlock()
	return len(b.blocks)
}
