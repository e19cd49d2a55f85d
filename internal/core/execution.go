package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// execReplyWindow is the span of timestamps below a client's newest executed
// one that Execution tells apart, and so the most reply bodies it holds per
// client; it must exceed the maximum outstanding requests per client (40 in
// the paper's batched configuration). It is the 128 bits of skipWindow.
const execReplyWindow = 128

// skipWindow is a client's executed map over (maxExecuted−execReplyWindow,
// maxExecuted]: bit i%64 of word i/64 is set when maxExecuted−i executed.
type skipWindow [2]uint64

// has reports whether bit i is set; i must be below execReplyWindow.
func (w *skipWindow) has(i uint64) bool { return w[i/64]&(1<<(i%64)) != 0 }

// shift moves the window's top up by s timestamps: bit i becomes bit i+s,
// and bits pushed past the window drop out. Go shifts of 64 or more bits
// give zero, which covers every s.
func (w *skipWindow) shift(s uint64) {
	w[1] = w[1]<<s | w[0]>>(64-s) | w[0]<<(s-64)
	w[0] <<= s
}

// execClient is a client's exactly-once record inside the Execution enclave:
// which of its timestamps executed, and the replies to those still inside
// the window. Batches execute a client's outstanding requests out of order,
// so a single highest-timestamp check would silently drop requests. Every
// timestamp at or below maxExecuted−execReplyWindow counts as executed.
// replies holds a body only for a timestamp whose window bit is set; one
// merged in by state transfer has none, and a duplicate of it is skipped
// silently.
type execClient struct {
	maxExecuted uint64
	window      skipWindow
	replies     map[uint64]*messages.Reply
}

// executed reports whether ts was already executed, returning the cached
// reply when one is held.
func (c *execClient) executed(ts uint64) (*messages.Reply, bool) {
	if ts > c.maxExecuted {
		return nil, false
	}
	if i := c.maxExecuted - ts; i < execReplyWindow && !c.window.has(i) {
		return nil, false
	}
	return c.replies[ts], true
}

// record marks ts executed with reply rep.
func (c *execClient) record(ts uint64, rep *messages.Reply) {
	c.advance(ts)
	i := c.maxExecuted - ts
	if i >= execReplyWindow {
		return // below the window: counted executed already
	}
	c.window[i/64] |= 1 << (i % 64)
	if c.replies == nil {
		c.replies = make(map[uint64]*messages.Reply)
	}
	c.replies[ts] = rep
}

// merge marks executed every timestamp a transferred window topped at
// maxExecuted marks. Bodies already held are kept for resends.
func (c *execClient) merge(maxExecuted uint64, w skipWindow) {
	c.advance(maxExecuted)
	w.shift(c.maxExecuted - maxExecuted)
	c.window[0] |= w[0]
	c.window[1] |= w[1]
}

// advance raises the window's top to maxExecuted, dropping the bodies of
// the timestamps that leave the window.
func (c *execClient) advance(maxExecuted uint64) {
	if maxExecuted <= c.maxExecuted {
		return
	}
	s := maxExecuted - c.maxExecuted
	for i := uint64(execReplyWindow) - min(s, execReplyWindow); i < execReplyWindow; i++ {
		if c.window.has(i) {
			delete(c.replies, c.maxExecuted-i)
		}
	}
	c.window.shift(s)
	c.maxExecuted = maxExecuted
}

// execution is the Execution compartment (§3.2): it collects a quorum of
// Commits (event handler 4), executes authenticated requests against the
// application state it hosts, replies to clients, and originates
// Checkpoints (8). In confidential mode it is the only component that ever
// sees request/reply plaintext: payloads are decrypted after the commit
// certificate is verified and results are encrypted before they leave the
// enclave (opportunity o3).
type execution struct {
	comState
	macs         *crypto.MACStore
	confidential bool
	ckptInterval uint64
	app          app.Application

	// batches caches request bodies by batch digest: PrePrepares are
	// duplicated into this compartment precisely because Commits carry
	// only hashes (§3.2). batchSeq records the highest sequence a digest
	// was proposed at, for watermark-based eviction. A body is only ever
	// executed when it hashes to the digest of a commit certificate, so the
	// cache needs no authentication of its own — held bounds what it can be
	// made to hold instead.
	batches  map[crypto.Digest]*messages.Batch
	batchSeq map[crypto.Digest]uint64
	// held names, per in-window sequence number, the digest of the one body
	// cached for it — or kept alive until it, by a batchSeq raised to it —
	// without authenticating the PrePrepare that did so (the first to
	// arrive). Anything else proposed for an occupied slot must come in an
	// authentic PrePrepare. Not part of the sealed state: a restart may
	// admit one more unauthenticated body per slot, no more.
	held    map[uint64]crypto.Digest
	commits map[uint64]map[uint64]map[uint32]*messages.Commit // view → seq → sender
	// committed maps a sequence number to its decided digest (first valid
	// commit certificate wins; safety guarantees uniqueness).
	committed map[uint64]crypto.Digest
	lastExec  uint64

	clients map[uint32]*execClient
	// sessions is per replica and unordered, so it stays out of clients:
	// the checkpoint snapshot is a function of the ordered history alone.
	sessions map[uint32]clientSession

	snapshots map[uint64][]byte
	// probing/probesLeft drive the rejoin nudge: while armed (set by
	// finishRecovery after a restart), every environment tick broadcasts a
	// StateProbe so peers whose stable checkpoint is ahead push the gap
	// closed even when no protocol traffic flows (the idle-cluster rejoin
	// case). Probing disarms when a state transfer lands or the budget
	// runs out — a recovered replica that was never behind stops nudging
	// after probeBudget unanswered rounds.
	probing    bool
	probesLeft int

	// Read-lease state (ReadLeases deployments). lease is the verified
	// grant currently held — deliberately NOT part of the sealed persistent
	// state: a restarted replica comes back leaseless and refuses local
	// reads (fail-closed) until the primary re-grants. leaseMargin is the
	// near-expiry refusal margin, the clock-skew allowance: this replica
	// stops serving that long before the nominal expiry, so a primary and
	// holder whose clocks disagree by less than the margin never disagree
	// about whether a lease was live.
	leases      bool
	lease       *messages.LeaseGrant
	leaseMargin time.Duration
	clock       *SkewClock
	localReads  atomic.Uint64
	// Protocol-event counters the observability layer reads from the
	// untrusted side (the localReads pattern): plain atomics, never part
	// of the sealed persistent state, safe for the environment to read
	// while the protocol thread writes.
	evLeaseRefusals  atomic.Uint64
	evReadIndexes    atomic.Uint64
	evStallFetches   atomic.Uint64
	evProbesSent     atomic.Uint64
	evProbesAnswered atomic.Uint64
	// readHigh tracks, per client, the highest ReadRequest timestamp already
	// accepted past MAC verification. Clients never reuse a read timestamp,
	// so anything at or below the watermark is a replay (or stale
	// retransmit): it is dropped before any MAC, AEAD or application work —
	// a replayed authenticated read must not burn enclave CPU forever.
	readHigh map[uint32]uint64

	// Read-index confirmation state. A leased read is never served off
	// lease state alone: the holder first asks the primary's Preparation
	// compartment for its proposal frontier with a ReadIndex query sent
	// AFTER the read arrived. Any write acknowledged to any client before
	// the query was proposed at or below that frontier, so once lastExec
	// covers it the read observes every prior acked write. Queries are
	// batched by epoch: one query is in flight at a time, reads arriving
	// meanwhile wait for the next epoch (their frontier must be sampled
	// after their arrival).
	riPending []pendingRead
	// riSentEpoch is the epoch of the last query sent; riInFlight whether
	// its reply is still outstanding. Epochs count up from a base drawn from
	// fresh randomness at every boot (newExecution): the state here is not
	// sealed, so counting from zero would let a reply captured before a
	// restart — same view, same keys in a seeded deployment — confirm a query
	// sent after it against the older frontier.
	riSentEpoch uint64
	riInFlight  bool
	// riAckedEpoch/riAckedFrontier are the newest confirmed epoch and its
	// frontier. The frontier only grows within a view (nextSeq is
	// monotonic), so serving older epochs against the newest frontier is
	// conservative, never unsound.
	riAckedEpoch    uint64
	riAckedFrontier uint64

	// stallSeq/stallTicks drive the missing-body retransmission trigger:
	// when execution blocks on a committed slot whose body is absent,
	// every further ecall ticks the counter, and a fetch goes out each
	// time it crosses the threshold. Commits legitimately overtake their
	// PrePrepare in the input queue all the time — eager fetching on
	// first sight would flood peers with full-body replies for gaps that
	// resolve by themselves a few queue positions later; and the periodic
	// re-fetch (rather than a one-shot) means a request or reply lost to
	// a partition is simply retried under the next burst of traffic.
	stallSeq   uint64
	stallTicks int
}

// missingBodyFetchAfter is how many subsequent ecalls a committed slot may
// stay blocked on a missing body before a BatchFetch goes out (and between
// re-sends while it stays blocked). Transient queue reordering resolves
// well below it; a genuinely lost body (e.g. committed from a recovered
// WAL whose PrePrepare fell in the un-fsynced tail) crosses it as soon as
// any traffic flows.
const missingBodyFetchAfter = 32

// pendingRead is a leased read parked until its read-index epoch is
// confirmed and applied. seenTick ages it out: a read still pending after a
// full failure-detector period is refused — its client has long since
// fallen back to the agreement path.
type pendingRead struct {
	req      *messages.ReadRequest
	epoch    uint64
	seenTick bool
}

// riPendingMax bounds the pending-read queue; admission past it refuses
// immediately (the client falls back to agreement, losing only latency).
const riPendingMax = 4096

// probeBudget bounds how many environment ticks a recovered replica
// broadcasts StateProbes for. Peers answer only while actually ahead, so
// a replica that recovered fully current drains the budget quietly; a
// genuinely behind one is answered on the first delivered probe, and if
// every probe is lost the ordinary traffic-driven checkpoint/state-
// transfer path still covers the gap — probing is a nudge, not the only
// mechanism.
const probeBudget = 32

func newExecution(cfg Config, ver *messages.Verifier) (*execution, error) {
	var boot [8]byte
	if _, err := io.ReadFull(rand.Reader, boot[:]); err != nil {
		return nil, fmt.Errorf("read-index epoch base: %w", err)
	}
	// The top bit stays clear: no run of queries overflows the counter.
	epochBase := binary.LittleEndian.Uint64(boot[:]) >> 1
	e := &execution{
		comState: newComState(cfg.N, cfg.F, cfg.ID, cfg.WatermarkWindow, ver),
		macs: crypto.NewMACStore(cfg.MACSecret,
			crypto.Identity{ReplicaID: cfg.ID, Role: crypto.RoleExecution}),
		confidential: cfg.Confidential,
		ckptInterval: cfg.CheckpointInterval,
		app:          cfg.App,
		leases:       cfg.ReadLeases,
		leaseMargin:  cfg.LeaseTTL / 8,
		clock:        cfg.Clock,
		batches:      make(map[crypto.Digest]*messages.Batch),
		batchSeq:     make(map[crypto.Digest]uint64),
		held:         make(map[uint64]crypto.Digest),
		commits:      make(map[uint64]map[uint64]map[uint32]*messages.Commit),
		committed:    make(map[uint64]crypto.Digest),
		clients:      make(map[uint32]*execClient),
		sessions:     make(map[uint32]clientSession),
		snapshots:    make(map[uint64][]byte),
		readHigh:     make(map[uint32]uint64),
		riSentEpoch:  epochBase,
		riAckedEpoch: epochBase,
	}
	e.snapshots[0] = e.snapshotState()
	return e, nil
}

// snapshotState builds the checkpoint snapshot: every client's executed
// window (appendClientWindow, in ID order) wrapped around the application
// state. Checkpoint digests are compared across replicas, so the encoding is
// canonical: a function of what executed() answers and of the application
// state alone, never of reply bodies (they differ per replica in the Replica
// field and MAC). Without the windows a replica that catches up by state
// transfer would re-execute a client request that the primary re-ordered
// after a retransmit, forking its history from replicas whose records skip
// the duplicate.
//
// The buffer is sized for the windows and the application encodes itself
// into it in place (app.AppendSnapshot): one allocation the size of the
// snapshot, no sort of the application's keys.
func (e *execution) snapshotState() []byte {
	ids := make([]uint32, 0, len(e.clients))
	for id := range e.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	enc := messages.NewEncoder(4 + len(ids)*clientSkipSize + 4)
	enc.U32(uint32(len(ids)))
	for _, id := range ids {
		appendClientWindow(enc, id, e.clients[id])
	}
	enc.VarAppend(func(dst []byte) []byte { return app.AppendSnapshot(dst, e.app) })
	return enc.Bytes()
}

// clientSkipSize is the encoded size of one client's window.
const clientSkipSize = 4 + 8 + execReplyWindow/8

// appendClientWindow encodes a client's executed window as the checkpoint
// snapshot, state transfer and the sealed export all carry it: its ID,
// maxExecuted and the window's words.
func appendClientWindow(enc *messages.Encoder, id uint32, c *execClient) {
	enc.U32(id)
	enc.U64(c.maxExecuted)
	enc.U64(c.window[0])
	enc.U64(c.window[1])
}

// decodeClientWindow reads what appendClientWindow wrote, as a record that
// holds no reply bodies.
func decodeClientWindow(d *messages.Decoder) (uint32, *execClient) {
	id := d.U32()
	c := &execClient{maxExecuted: d.U64()}
	c.window[0], c.window[1] = d.U64(), d.U64()
	return id, c
}

// restoreState installs a checkpoint snapshot produced by snapshotState:
// the application state plus every client's executed window, merged into
// (never replacing) the live records. Every restored timestamp was executed
// in the history the snapshot covers, so skipping it can only be correct;
// held reply bodies stay for resends. A duplicate of a timestamp with no
// body is skipped silently, which is safe: ordering already happened, and
// live replicas answer the retransmit from their records.
func (e *execution) restoreState(snap []byte) error {
	d := messages.NewDecoder(snap)
	n := d.Count(1 << 20)
	restored := make(map[uint32]*execClient, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id, c := decodeClientWindow(d)
		restored[id] = c
	}
	appState := d.VarBytes()
	if err := d.Finish(); err != nil {
		return err
	}
	if err := e.app.Restore(appState); err != nil {
		return err
	}
	for id, c := range restored {
		cl, ok := e.clients[id]
		if !ok {
			cl = &execClient{}
			e.clients[id] = cl
		}
		cl.merge(c.maxExecuted, c.window)
	}
	return nil
}

// Measurement implements tee.Code.
func (e *execution) Measurement() crypto.Digest { return measExecution }

// HandleECall implements tee.Code.
func (e *execution) HandleECall(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) == 1 && raw[0] == ecallTick {
		// Environment timer tick: no message, just the liveness nudges.
		out := e.onProbeTick()
		if more := e.tickStall(); more != nil {
			out = append(out, more...)
		}
		return append(out, e.onReadTick(host)...)
	}
	out := e.handleMessage(host, raw)
	if more := e.tickStall(); more != nil {
		out = append(out, more...)
	}
	if len(e.riPending) > 0 {
		// Any message may have advanced lastExec past a confirmed frontier:
		// serve what became servable.
		out = append(out, e.flushReads()...)
	}
	return out
}

func (e *execution) handleMessage(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) == 0 || raw[0] != ecallMessage {
		return nil
	}
	m, err := messages.Unmarshal(raw[1:])
	if err != nil {
		return nil
	}
	switch msg := m.(type) {
	case *messages.PrePrepare:
		return e.onPrePrepare(host, msg)
	case *messages.Commit:
		return e.onCommit(host, msg)
	case *messages.Checkpoint:
		return e.onCheckpointMsg(host, msg)
	case *messages.NewView:
		return e.onNewView(host, msg)
	case *messages.AttestRequest:
		return e.onAttestRequest(host, msg)
	case *messages.ProvisionKey:
		e.onProvisionKey(host, msg)
	case *messages.StateRequest:
		return e.onStateRequest(msg)
	case *messages.StateReply:
		return e.onStateReply(host, msg)
	case *messages.BatchFetch:
		return e.onBatchFetch(msg)
	case *messages.BatchReply:
		return e.onBatchReply(host, msg)
	case *messages.StateProbe:
		return e.onStateProbe(msg)
	case *messages.LeaseGrant:
		return e.onLeaseGrant(host, msg)
	case *messages.ReadRequest:
		return e.onReadRequest(host, msg)
	case *messages.ReadIndexReply:
		return e.onReadIndexReply(host, msg)
	}
	return nil
}

// onLeaseGrant acknowledges and (for non-probe grants) installs a verified
// read lease addressed to this replica. Grants carry the counter enclave's
// signature, so the untrusted broker cannot mint one; grants for any view
// but the compartment's current one are dead on arrival — neither acked
// nor installed — which is what makes a quorum of acks a proof that the
// granter is the primary of the view 2f+1 Execution compartments actually
// inhabit. A replayed old grant is rejected by the freshness comparison
// (it can only lower the expiry), and its ack cannot refresh the granter's
// reachability record (the echoed expiry is monotonically tracked there).
func (e *execution) onLeaseGrant(host tee.Host, g *messages.LeaseGrant) []tee.OutMsg {
	if !e.leases || g.Holder != e.id {
		return nil
	}
	if err := e.ver.VerifyLease(g); err != nil {
		return nil
	}
	if g.View != e.view {
		return nil
	}
	// Ack every verified current-view grant, probe or real, echoing its
	// expiry as the round nonce: the granter needs a quorum of fresh acks
	// before it may issue servable (non-probe) grants.
	ack := &messages.LeaseAck{Holder: e.id, View: g.View, Expiry: g.Expiry}
	_, ack.Auth = e.authenticate(host, ack)
	var out []tee.OutMsg
	if g.Granter == e.id {
		out = append(out, localOut(crypto.RolePreparation, ack))
	} else if int(g.Granter) < e.n {
		out = append(out, replicaOut(g.Granter, ack))
	}
	if g.Probe {
		return out // reachability probe: acknowledged, never installed
	}
	if cur := e.lease; cur != nil && cur.View == g.View && g.Expiry <= cur.Expiry {
		return out // stale or duplicate grant
	}
	e.lease = g
	return out
}

// leaseValid reports whether the held lease authorizes serving local reads
// right now: it must exist, match the compartment's current view (a view
// change revokes every outstanding lease instantly on correct replicas),
// and be more than the clock-skew margin away from expiry. Fail-closed on
// every branch — a refusal only pushes the client onto the agreement path.
func (e *execution) leaseValid(now time.Time) bool {
	g := e.lease
	if g == nil || g.View != e.view {
		return false
	}
	return now.UnixNano()+int64(e.leaseMargin) < g.Expiry
}

// onReadRequest admits a read under the held lease — the whole point of
// the lease fast path: no PrePrepare, no quorum, one attested reply. The
// read is parked until a read-index frontier sampled after its arrival is
// confirmed and applied. Refusals are explicit (OK=false) so the client
// falls back to agreement immediately. The exactly-once records (clients)
// are deliberately untouched: leased reads are side-effect-free and
// unordered, so recording them would pollute the write path's windows.
func (e *execution) onReadRequest(host tee.Host, r *messages.ReadRequest) []tee.OutMsg {
	if !e.leases {
		return nil
	}
	if r.Timestamp <= e.readHigh[r.ClientID] {
		// Replay (or stale retransmit): clients never reuse a read
		// timestamp, so drop before any MAC, AEAD or application work.
		return nil
	}
	enc := messages.GetEncoder()
	r.AppendAuthenticated(enc)
	err := e.macs.VerifySingle(enc.Bytes(), r.MAC, crypto.Identity{ReplicaID: r.ClientID, Role: crypto.RoleClient})
	messages.PutEncoder(enc)
	if err != nil {
		return nil // unauthenticated: drop, like any forged client traffic
	}
	e.readHigh[r.ClientID] = r.Timestamp
	if _, ok := e.app.(app.ReadExecutor); !ok || !e.leaseValid(e.clock.Now()) || len(e.riPending) >= riPendingMax {
		return []tee.OutMsg{e.readReply(r, false)}
	}
	// The read's epoch names the first query sent at or after its arrival:
	// if no query is in flight one goes out now; otherwise the read waits
	// for the round after the in-flight one — the in-flight query was sent
	// before this read arrived, so its frontier could miss a write acked in
	// between (exactly the stale-read hazard of anchoring reads at grant
	// time).
	var out []tee.OutMsg
	epoch := e.riSentEpoch + 1
	if !e.riInFlight {
		e.riSentEpoch = epoch
		e.riInFlight = true
		out = append(out, e.sendReadIndex(host))
	}
	e.riPending = append(e.riPending, pendingRead{req: r, epoch: epoch})
	return out
}

// readReply answers r: with serve set it runs the serve checks and returns
// the result when they pass; otherwise, or when a check fails, it is an
// explicit OK=false refusal — the client's signal to take the agreement
// path.
func (e *execution) readReply(r *messages.ReadRequest, serve bool) tee.OutMsg {
	rep := &messages.ReadReply{Replica: e.id, ClientID: r.ClientID, Timestamp: r.Timestamp, View: e.view}
	if serve {
		rep.Result, rep.OK = e.serveLocalRead(r)
	}
	if rep.OK {
		e.localReads.Add(1)
	} else {
		e.evLeaseRefusals.Add(1)
	}
	rep.MAC = e.clientMAC(rep, r.ClientID)
	return clientOut(r.ClientID, rep)
}

// clientMAC authenticates a client-bound message to its client, encoding
// the covered bytes in a pooled buffer.
func (e *execution) clientMAC(m interface{ AppendAuthenticated(*messages.Encoder) }, client uint32) [crypto.MACSize]byte {
	enc := messages.GetEncoder()
	m.AppendAuthenticated(enc)
	mac := e.macs.MAC(enc.Bytes(), crypto.Identity{ReplicaID: client, Role: crypto.RoleClient})
	messages.PutEncoder(enc)
	return mac
}

// sendReadIndex (re)transmits the current epoch's frontier query to the
// primary's Preparation compartment.
func (e *execution) sendReadIndex(host tee.Host) tee.OutMsg {
	e.evReadIndexes.Add(1)
	ri := &messages.ReadIndex{Holder: e.id, View: e.view, Epoch: e.riSentEpoch}
	_, ri.Auth = e.authenticate(host, ri)
	if p := e.primary(e.view); p != e.id {
		return replicaOut(p, ri)
	}
	return localOut(crypto.RolePreparation, ri)
}

// onReadIndexReply confirms a frontier for the in-flight epoch, serves
// everything it unblocks, and starts the next round if reads arrived while
// the query was out. Only the answer to this holder's own outstanding query
// counts: a frontier reported to another holder, or to this one before a
// restart, predates writes this query must cover.
func (e *execution) onReadIndexReply(host tee.Host, rep *messages.ReadIndexReply) []tee.OutMsg {
	if !e.leases || rep.Holder != e.id || rep.View != e.view || !e.riInFlight || rep.Epoch != e.riSentEpoch {
		return nil
	}
	if err := e.ver.VerifyReadIndexReply(rep); err != nil {
		return nil
	}
	e.riInFlight = false
	e.riAckedEpoch = rep.Epoch
	e.riAckedFrontier = rep.Frontier
	out := e.flushReads()
	for _, pr := range e.riPending {
		if pr.epoch > e.riAckedEpoch {
			e.riSentEpoch++
			e.riInFlight = true
			out = append(out, e.sendReadIndex(host))
			break
		}
	}
	return out
}

// flushReads settles every pending read whose outcome is now decided:
// refuse all of them the moment the lease stops being valid (fail-closed —
// the client falls back to agreement), serve those whose confirmed frontier
// is applied.
func (e *execution) flushReads() []tee.OutMsg {
	if len(e.riPending) == 0 {
		return nil
	}
	valid := e.leaseValid(e.clock.Now())
	var out []tee.OutMsg
	keep := e.riPending[:0]
	for _, pr := range e.riPending {
		switch {
		case !valid:
			out = append(out, e.readReply(pr.req, false))
		case pr.epoch <= e.riAckedEpoch && e.lastExec >= e.riAckedFrontier:
			out = append(out, e.readReply(pr.req, true))
		default:
			keep = append(keep, pr)
		}
	}
	for i := len(keep); i < len(e.riPending); i++ {
		e.riPending[i] = pendingRead{} // drop refs for GC
	}
	e.riPending = keep
	return out
}

// onReadTick runs read-path maintenance on the environment's
// failure-detector tick: settle what the clock decided, age out reads
// whose client has long since fallen back (anything pending a full
// detector period), and retransmit a lost frontier query.
func (e *execution) onReadTick(host tee.Host) []tee.OutMsg {
	if !e.leases {
		return nil
	}
	out := e.flushReads()
	keep := e.riPending[:0]
	for i := range e.riPending {
		pr := e.riPending[i]
		if pr.seenTick {
			out = append(out, e.readReply(pr.req, false))
			continue
		}
		pr.seenTick = true
		keep = append(keep, pr)
	}
	for i := len(keep); i < len(e.riPending); i++ {
		e.riPending[i] = pendingRead{}
	}
	e.riPending = keep
	if e.riInFlight && len(e.riPending) > 0 {
		out = append(out, e.sendReadIndex(host))
	}
	return out
}

// serveLocalRead runs the serve checks and, when they pass, executes the
// read against the application without ordering it:
//
//   - the application must expose a side-effect-free read path
//     (app.ReadExecutor) — anything else must be ordered;
//   - the lease must be valid at serve time (view match, not near expiry).
//
// The read's other admission — a read-index frontier confirmed after its
// arrival and applied — is enforced by the pending-read machinery before
// this function runs.
func (e *execution) serveLocalRead(r *messages.ReadRequest) ([]byte, bool) {
	ra, ok := e.app.(app.ReadExecutor)
	if !ok {
		return nil, false
	}
	if !e.leaseValid(e.clock.Now()) {
		return nil, false
	}
	op := r.Payload
	var sess *crypto.Session
	if e.confidential {
		if sess = e.sessions[r.ClientID].aead; sess == nil {
			return nil, false
		}
		pt, err := sess.Open(r.Payload, crypto.RequestAD(r.ClientID, r.Timestamp))
		if err != nil {
			return nil, false
		}
		op = pt
	}
	result, ok := ra.ExecuteRead(r.ClientID, op)
	if !ok {
		return nil, false // not a read-only op: it must go through agreement
	}
	if e.confidential {
		result = sess.Seal(result, crypto.ReplyAD(r.ClientID, r.Timestamp))
	}
	return result, true
}

// onPrePrepare caches the full request bodies for later execution. This
// compartment uses a PrePrepare as a body and nothing else — it orders by
// Commits — so the proposal is checked for structure (proposer is the view's
// primary, batch hashes to the header digest) but not authenticated: a body
// executes only when it hashes to the digest a 2f+1 Commit certificate
// names, the rule onBatchReply states, and a forged body matches none. What
// authentication did besides was bound the cache; held does that now. A
// proposal costs memory when it adds a body or when it raises batchSeq, the
// sequence number gc keeps a body until. The first proposal to do either at
// an in-window sequence number claims that slot and is taken as is; any
// other one for an occupied slot must verify, as every one had to before.
// So a forged first arrival cannot displace the real proposal (which then
// pays for its verification and is kept beside it), and every body kept
// without authentication owns the slot at its batchSeq: there is never more
// than one per slot of the window, and re-sending a held body at a higher
// sequence number only moves it to a slot nobody else can then take for free.
func (e *execution) onPrePrepare(host tee.Host, pp *messages.PrePrepare) []tee.OutMsg {
	if !e.inWindow(pp.Seq) {
		return nil
	}
	if err := e.ver.CheckProposalBody(pp); err != nil {
		return nil
	}
	_, cached := e.batches[pp.Digest]
	if !cached || pp.Seq > e.batchSeq[pp.Digest] {
		if _, occupied := e.held[pp.Seq]; !occupied {
			e.held[pp.Seq] = pp.Digest
		} else if e.ver.VerifyPrePrepare(pp, true) != nil {
			return nil
		}
		if !cached {
			b := pp.Batch
			e.batches[pp.Digest] = &b
		}
		if pp.Seq > e.batchSeq[pp.Digest] {
			e.batchSeq[pp.Digest] = pp.Seq
		}
	}
	return e.tryExecute(host)
}

// onCommit is event handler (4): collect 2f+1 matching Commits from
// distinct Confirmation enclaves (P5), then execute in order.
func (e *execution) onCommit(host tee.Host, c *messages.Commit) []tee.OutMsg {
	if !e.inWindow(c.Seq) || c.Seq <= e.lastExec {
		return nil
	}
	if _, done := e.committed[c.Seq]; done {
		return nil
	}
	// Cheap redundancy check before the expensive verification, as in
	// confirmation.onPrepare: a sender slot is only ever occupied by a
	// previously verified Commit, so a re-sent one — same bytes or not —
	// never pays for a signature or MAC check. Lookups only: the sets are
	// created below, for verified Commits alone.
	if _, dup := e.commits[c.View][c.Seq][c.Replica]; dup {
		return nil
	}
	if err := e.ver.VerifyCommit(c); err != nil {
		return nil
	}
	vs, ok := e.commits[c.View]
	if !ok {
		vs = make(map[uint64]map[uint32]*messages.Commit)
		e.commits[c.View] = vs
	}
	set, ok := vs[c.Seq]
	if !ok {
		set = make(map[uint32]*messages.Commit)
		vs[c.Seq] = set
	}
	set[c.Replica] = c
	matching := 0
	for _, cm := range set {
		if cm.Digest == c.Digest {
			matching++
		}
	}
	if matching < e.quorum() {
		return nil
	}
	e.committed[c.Seq] = c.Digest
	delete(vs, c.Seq)
	return e.tryExecute(host)
}

// tryExecute executes committed batches strictly in sequence order,
// producing replies and periodic checkpoints.
func (e *execution) tryExecute(host tee.Host) []tee.OutMsg {
	var out []tee.OutMsg
	for {
		next := e.lastExec + 1
		if next <= e.lowWatermark {
			return out // covered by a stable checkpoint; state transfer
		}
		digest, ok := e.committed[next]
		if !ok {
			return out
		}
		if digest.IsZero() {
			// Null request from a view change: advance without effect.
			delete(e.committed, next)
			e.lastExec = next
			out = append(out, e.maybeCheckpoint(host, next)...)
			continue
		}
		batch, ok := e.batches[digest]
		if !ok {
			// The body never arrived (lost PrePrepare, or it committed
			// while this replica was down): arm the stall detector —
			// tickStall asks peers to retransmit the gap if the slot
			// stays blocked, instead of waiting for the next checkpoint
			// to trigger state transfer.
			if e.stallSeq != next {
				e.stallSeq = next
				e.stallTicks = 0
			}
			return out
		}
		delete(e.committed, next)
		e.lastExec = next
		out = append(out, e.executeBatch(host, batch)...)
		out = append(out, e.maybeCheckpoint(host, next)...)
	}
}

// executeBatch authenticates, decrypts, executes and answers every request
// in a batch.
func (e *execution) executeBatch(host tee.Host, batch *messages.Batch) []tee.OutMsg {
	out := make([]tee.OutMsg, 0, len(batch.Requests))
	for i := range batch.Requests {
		req := &batch.Requests[i]
		entry, ok := e.clients[req.ClientID]
		if !ok {
			entry = &execClient{}
			e.clients[req.ClientID] = entry
		}
		if rep, done := entry.executed(req.Timestamp); done {
			if rep != nil {
				out = append(out, clientOut(req.ClientID, rep))
			}
			continue
		}
		result := e.executeOne(req)
		rep := &messages.Reply{
			View:      e.view,
			ClientID:  req.ClientID,
			Timestamp: req.Timestamp,
			Replica:   e.id,
			Result:    result,
		}
		rep.MAC = e.clientMAC(rep, req.ClientID)
		entry.record(req.Timestamp, rep)
		out = append(out, clientOut(req.ClientID, rep))
	}
	_ = host
	return out
}

// executeOne runs a single request: MAC check, decryption, application
// execution, and reply encryption. Every failure path degrades to a no-op
// result (§4.1) — ordering already happened, so the slot must advance.
func (e *execution) executeOne(req *messages.Request) []byte {
	clientID := crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient}
	slot := e.n + int(e.id) // Execution MACs follow the Preparation block
	enc := messages.GetEncoder()
	req.AppendAuthenticated(enc)
	err := e.macs.VerifyIndexed(enc.Bytes(), req.Auth, slot, clientID)
	messages.PutEncoder(enc)
	if err != nil {
		return app.NoOpResult
	}
	op := req.Payload
	var sess *crypto.Session
	if e.confidential {
		if sess = e.sessions[req.ClientID].aead; sess == nil {
			return app.NoOpResult // no session: cannot decrypt, no-op
		}
		pt, err := sess.Open(req.Payload, crypto.RequestAD(req.ClientID, req.Timestamp))
		if err != nil {
			return app.NoOpResult // corrupted ciphertext: no-op
		}
		op = pt
	}
	result := e.app.Execute(req.ClientID, op)
	if e.confidential {
		result = sess.Seal(result, crypto.ReplyAD(req.ClientID, req.Timestamp))
	}
	return result
}

// tickStall runs once per ecall: while execution is blocked on a
// committed slot whose body is missing, the counter advances, and after
// missingBodyFetchAfter messages a retransmission request goes out.
func (e *execution) tickStall() []tee.OutMsg {
	next := e.lastExec + 1
	if e.stallSeq != next {
		return nil // not armed, or execution moved past the stall
	}
	digest, committed := e.committed[next]
	if !committed || digest.IsZero() {
		e.stallSeq = 0
		return nil
	}
	if _, have := e.batches[digest]; have {
		e.stallSeq = 0 // body arrived; tryExecute will consume it
		return nil
	}
	e.stallTicks++
	if e.stallTicks < missingBodyFetchAfter {
		return nil
	}
	e.stallTicks = 0 // periodic: re-fetch if the slot stays blocked
	return e.fetchBody(next, digest)
}

// fetchBody broadcasts a BatchFetch for a committed sequence number whose
// request bodies are missing. The checkpoint-driven state-transfer path
// still covers the gap if every fetch is lost — this is the fast path,
// not the only one.
func (e *execution) fetchBody(seq uint64, digest crypto.Digest) []tee.OutMsg {
	e.evStallFetches.Add(1)
	return []tee.OutMsg{broadcastOut(&messages.BatchFetch{Seq: seq, Digest: digest, Replica: e.id})}
}

// onBatchFetch serves a peer's missing-body request from the batch cache.
func (e *execution) onBatchFetch(f *messages.BatchFetch) []tee.OutMsg {
	if int(f.Replica) >= e.n || f.Replica == e.id {
		return nil
	}
	b, ok := e.batches[f.Digest]
	if !ok {
		return nil
	}
	return []tee.OutMsg{replicaOut(f.Replica,
		&messages.BatchReply{Seq: f.Seq, Digest: f.Digest, Batch: *b, Replica: e.id})}
}

// onBatchReply installs a retransmitted batch body. The reply needs no
// signature: it is only accepted for a slot this compartment already holds
// a commit certificate for, and the batch must hash to the certified
// digest — a forged body cannot match.
func (e *execution) onBatchReply(host tee.Host, r *messages.BatchReply) []tee.OutMsg {
	want, committed := e.committed[r.Seq]
	if !committed || want != r.Digest {
		return nil // not waiting on this slot: refuse (bounds the cache)
	}
	if _, have := e.batches[r.Digest]; have {
		return nil
	}
	if r.Batch.Digest() != r.Digest {
		return nil // forged or corrupted body
	}
	b := r.Batch
	e.batches[r.Digest] = &b
	if r.Seq > e.batchSeq[r.Digest] {
		e.batchSeq[r.Digest] = r.Seq
	}
	return e.tryExecute(host)
}

// maybeCheckpoint originates a Checkpoint at interval boundaries (event
// handler 8): the Execution compartment holds the application state, so it
// is the source of checkpoints (§3.2).
func (e *execution) maybeCheckpoint(host tee.Host, seq uint64) []tee.OutMsg {
	if seq%e.ckptInterval != 0 {
		return nil
	}
	snap := e.snapshotState()
	e.snapshots[seq] = snap
	cp := &messages.Checkpoint{Seq: seq, StateDigest: crypto.HashData(snap), Replica: e.id}
	cp.Sig, cp.Auth = e.authenticate(host, cp)
	out := localFirst(cp, crypto.RolePreparation, crypto.RoleConfirmation)
	// Count our own checkpoint towards stability.
	out = append(out, e.onCheckpointMsg(host, cp)...)
	return out
}

// onCheckpointMsg collects checkpoint votes and garbage-collects once
// stable.
func (e *execution) onCheckpointMsg(host tee.Host, c *messages.Checkpoint) []tee.OutMsg {
	cert := e.onCheckpoint(host, c)
	if cert == nil {
		return nil
	}
	return e.installStable(host, *cert)
}

func (e *execution) installStable(_ tee.Host, cert messages.CheckpointCert) []tee.OutMsg {
	if !e.advanceStable(cert) {
		return nil
	}
	e.gc()
	if e.lastExec < cert.Seq {
		// Fell behind the group: fetch the snapshot from a replica that
		// contributed to the certificate. A MAC-mode cert names no voters
		// (single vouch) — if its attestor is a peer, ask there; a cert
		// this compartment attested itself identifies nobody ahead, so
		// broadcast the request and take the first verifying reply.
		for i := range cert.Proof {
			if cert.Proof[i].Replica != e.id {
				return []tee.OutMsg{replicaOut(cert.Proof[i].Replica,
					&messages.StateRequest{Seq: cert.Seq, Replica: e.id})}
			}
		}
		if len(cert.Vouch) > 0 {
			req := &messages.StateRequest{Seq: cert.Seq, Replica: e.id}
			if cert.Attestor != e.id {
				return []tee.OutMsg{replicaOut(cert.Attestor, req)}
			}
			return []tee.OutMsg{broadcastOut(req)}
		}
	}
	return nil
}

// onProbeTick runs on every environment timer tick: while the rejoin
// nudge is armed, broadcast a StateProbe announcing how far this replica
// got, so any peer whose stable checkpoint is ahead answers with the
// snapshot — closing a post-restart outage gap without client traffic.
func (e *execution) onProbeTick() []tee.OutMsg {
	if !e.probing {
		return nil
	}
	if e.probesLeft <= 0 {
		e.probing = false
		return nil
	}
	e.probesLeft--
	e.evProbesSent.Add(1)
	have := e.lastExec
	if e.stableCert.Seq > have {
		have = e.stableCert.Seq
	}
	out := []tee.OutMsg{broadcastOut(&messages.StateProbe{Have: have, Replica: e.id})}
	// Sub-checkpoint outage tail: peers answer a probe below any stable
	// checkpoint by re-sending their Commits for the gap slots (there is
	// no snapshot to transfer), so the next slot may already hold a
	// certificate whose body never arrived. An idle cluster generates no
	// ecall traffic to advance the stall counter, so fetch the body on the
	// probe clock instead of waiting out tickStall.
	next := e.lastExec + 1
	if digest, ok := e.committed[next]; ok && !digest.IsZero() {
		if _, cached := e.batches[digest]; !cached {
			out = append(out, e.fetchBody(next, digest)...)
		}
	}
	return out
}

// onStateProbe answers a peer's rejoin nudge when this replica's stable
// checkpoint is ahead of the prober: the reply is a full StateReply whose
// certificate the prober verifies, so serving a forged probe leaks
// nothing and cannot corrupt anyone (bandwidth only, budgeted by the
// broker alongside BatchFetch).
func (e *execution) onStateProbe(p *messages.StateProbe) []tee.OutMsg {
	if int(p.Replica) >= e.n || p.Replica == e.id {
		return nil
	}
	if e.stableCert.Seq <= p.Have {
		return nil // prober is current (or ahead): nothing to offer
	}
	snap, ok := e.snapshots[e.stableCert.Seq]
	if !ok {
		return nil
	}
	e.evProbesAnswered.Add(1)
	return []tee.OutMsg{replicaOut(p.Replica,
		&messages.StateReply{Cert: e.stableCert, Snapshot: snap, Replica: e.id})}
}

// onNewView applies the view and checkpoint (handler 7'), and records the
// re-issued proposal digests so commits in the new view can execute. The
// embedded PrePrepares are not validated here (only Preparation does), but
// execution still requires a commit certificate per slot, so a forged
// NewView cannot make this compartment execute anything (§4).
func (e *execution) onNewView(host tee.Host, nv *messages.NewView) []tee.OutMsg {
	if !e.applyNewViewCheckpoint(nv) {
		return nil
	}
	// Drop a lease from a deposed view eagerly. leaseValid would refuse it
	// anyway (view mismatch) — this just frees the reference.
	if e.lease != nil && e.lease.View != e.view {
		e.lease = nil
	}
	// Pending reads were waiting on a frontier from the deposed primary:
	// refuse them all (fail-closed), and forget the in-flight query — a late
	// reply for it fails the view check.
	var out []tee.OutMsg
	for i := range e.riPending {
		out = append(out, e.readReply(e.riPending[i].req, false))
		e.riPending[i] = pendingRead{}
	}
	e.riPending = e.riPending[:0]
	e.riInFlight = false
	e.gc()
	return append(out, e.tryExecute(host)...)
}

// clientSession is a client's attested session with this enclave: the ECDH
// key it attested with and, once provisioned, its session key s_enc and the
// AEAD built from it (nil until then).
type clientSession struct {
	pub  [32]byte
	key  crypto.SessionKey
	aead *crypto.Session
}

// onAttestRequest answers a client attestation challenge with this
// enclave's quote and remembers the client's ECDH key for provisioning.
func (e *execution) onAttestRequest(host tee.Host, ar *messages.AttestRequest) []tee.OutMsg {
	s := e.sessions[ar.ClientID]
	s.pub = ar.ClientPub
	e.sessions[ar.ClientID] = s
	return []tee.OutMsg{clientOut(ar.ClientID, host.Quote(ar.Nonce))}
}

// onProvisionKey unwraps the client's session key s_enc (§4.1) under the
// X25519-derived pairwise key and installs the session.
func (e *execution) onProvisionKey(host tee.Host, pk *messages.ProvisionKey) {
	s, ok := e.sessions[pk.ClientID]
	if !ok {
		return
	}
	wrapKey, err := host.DeriveSession(s.pub)
	if err != nil {
		return
	}
	wrapSess, err := crypto.NewSession(wrapKey, 0)
	if err != nil {
		return
	}
	keyBytes, err := wrapSess.Open(pk.WrappedKey, crypto.ProvisionAD(pk.ClientID))
	if err != nil || len(keyBytes) != crypto.SessionKeySize {
		return
	}
	var sk crypto.SessionKey
	copy(sk[:], keyBytes)
	// Re-provisioning the same key must not reset the nonce counter: a WAL
	// replay of this ProvisionKey after a recovered snapshot would
	// otherwise rewind the session below nonces already used on the wire.
	if s.aead != nil && s.key == sk {
		return
	}
	// Direction 10+id keeps reply nonces disjoint across the n Execution
	// enclaves sharing s_enc.
	aead, err := crypto.NewSession(sk, byte(10+e.id))
	if err != nil {
		return
	}
	s.key, s.aead = sk, aead
	e.sessions[pk.ClientID] = s
}

// onStateRequest serves the stable snapshot to a lagging peer.
func (e *execution) onStateRequest(req *messages.StateRequest) []tee.OutMsg {
	snap, ok := e.snapshots[req.Seq]
	if !ok || e.stableCert.Seq != req.Seq || int(req.Replica) >= e.n || req.Replica == e.id {
		return nil
	}
	return []tee.OutMsg{replicaOut(req.Replica,
		&messages.StateReply{Cert: e.stableCert, Snapshot: snap, Replica: e.id})}
}

// onStateReply installs a verified snapshot and resumes execution.
func (e *execution) onStateReply(host tee.Host, rep *messages.StateReply) []tee.OutMsg {
	if rep.Cert.Seq <= e.lastExec {
		return nil
	}
	if err := e.ver.VerifyCheckpointCert(&rep.Cert); err != nil {
		return nil
	}
	if crypto.HashData(rep.Snapshot) != rep.Cert.StateDigest {
		return nil
	}
	if err := e.restoreState(rep.Snapshot); err != nil {
		return nil
	}
	e.snapshots[rep.Cert.Seq] = rep.Snapshot
	e.lastExec = rep.Cert.Seq
	e.advanceStable(rep.Cert)
	e.gc()
	// The outage gap just closed (to the group's stable point at least):
	// stop nudging peers.
	e.probing = false
	return e.tryExecute(host)
}

// gc prunes execution bookkeeping below the watermark.
func (e *execution) gc() {
	for view, vs := range e.commits {
		for seq := range vs {
			if seq <= e.lowWatermark {
				delete(vs, seq)
			}
		}
		if len(vs) == 0 {
			delete(e.commits, view)
		}
	}
	for seq := range e.committed {
		if seq <= e.lowWatermark {
			delete(e.committed, seq)
		}
	}
	for seq := range e.snapshots {
		if seq < e.lowWatermark {
			delete(e.snapshots, seq)
		}
	}
	for seq := range e.held {
		if seq <= e.lowWatermark {
			delete(e.held, seq)
		}
	}
	// Batch bodies below the watermark can no longer be executed; drop
	// them to bound the cache.
	for d, seq := range e.batchSeq {
		if seq <= e.lowWatermark {
			delete(e.batchSeq, d)
			delete(e.batches, d)
		}
	}
}
