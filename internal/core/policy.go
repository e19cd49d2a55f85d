package core

import (
	"time"

	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/compartment/execution"
	"github.com/splitbft/splitbft/internal/compartment/preparation"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/tee"
)

// reqKey identifies a client request: its client and timestamp.
type reqKey struct {
	client uint32
	ts     uint64
}

// pendingReq is a client request awaiting its reply: the body, for
// re-proposal after a view change; when it first arrived, for the stale
// prune and the ask to Execution; and whether it sits in the batch buffer.
type pendingReq struct {
	req    *messages.Request
	since  time.Time
	queued bool
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
// the failure detector's timer (as PBFT restarts a backup's timer on
// entering a view); else the timer, still running from the old view, fires
// as soon as a slow or late-joined view change completes, and where every
// live replica is needed for a quorum that deposes the view before its
// first commit. The NewView is unauthenticated here, so a forged one can
// delay suspicion at most once per view this replica asked for.
func (b *broker) observeNewView(nv *messages.NewView) {
	advanced := false
	var promoted *messages.Batch
	b.mu.Lock()
	if nv.View > b.newView {
		b.newView = nv.View
		if nv.View <= b.askedView && !b.timerStart.IsZero() {
			b.timerStart = time.Now()
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
// timeout flushes the remainder). The view moved, so the bound an older
// refusal named no longer holds the buffer; a new primary's Preparation
// refuses the batch while its write fence is up, and the refusal hold
// offers it again once the fence lifts.
func (b *broker) promoteAwaitingLocked() *messages.Batch {
	b.heldUntil, b.heldWindow = time.Time{}, false
	if !b.believesPrimaryLocked() || len(b.awaiting) == 0 {
		return nil
	}
	for _, p := range b.awaiting {
		if !p.queued {
			b.queueLocked(p, p.req)
		}
	}
	if b.pendingReqs.Len() >= b.cfg.BatchSize {
		return b.takeBatchLocked()
	}
	return nil
}

// heldLocked reports whether a refusal holds the batch buffer.
func (b *broker) heldLocked() bool { return b.heldWindow || !b.heldUntil.IsZero() }

// releaseLocked lifts the refusal hold and takes the whole batch buffer to
// offer again. A re-offer that meets a bound still closed is refused again,
// at the cost of one crossing.
func (b *broker) releaseLocked() []*messages.Batch {
	b.heldUntil, b.heldWindow = time.Time{}, false
	var batches []*messages.Batch
	for b.pendingReqs.Len() > 0 {
		batches = append(batches, b.takeBatchLocked())
	}
	return batches
}

// onRefused is the ocall through which Preparation refuses a batch it
// cannot propose now (preparation.OcallRefused). The named requests go back
// into the batch buffer, still awaited, and the buffer is held: for the
// write fence until the time it named has passed on this clock, for the
// window until a Checkpoint crosses into Preparation (reofferHeldWindow).
func (b *broker) onRefused(data []byte) ([]byte, error) {
	d := messages.NewDecoder(data)
	reason, left := d.U8(), time.Duration(d.U64())
	b.mu.Lock()
	defer b.mu.Unlock()
	switch reason {
	case preparation.RefusedFence:
		b.mRefusedFence.Add(1)
		b.heldUntil = time.Now().Add(left)
	case preparation.RefusedWindow:
		b.mRefusedWindow.Add(1)
		b.heldWindow = true
	}
	for d.Remaining() >= askPairSize {
		client := d.U32()
		if p := b.awaiting[reqKey{client: client, ts: d.U64()}]; p != nil && !p.queued {
			b.queueLocked(p, p.req)
		}
	}
	return nil, nil
}

// carriesCheckpoint reports whether a crossing into Preparation carries a
// Checkpoint, by the type byte after each payload's tag.
func carriesCheckpoint(payloads [][]byte) bool {
	for _, p := range payloads {
		if len(p) > 1 && p[0] == compartment.EcallMessage && messages.Type(p[1]) == messages.TCheckpoint {
			return true
		}
	}
	return false
}

// reofferHeldWindow re-offers a batch buffer the window holds: a Checkpoint
// just crossed into Preparation and may have moved its window.
func (b *broker) reofferHeldWindow() {
	var batches []*messages.Batch
	b.mu.Lock()
	if b.heldWindow {
		batches = b.releaseLocked()
	}
	b.mu.Unlock()
	for _, batch := range batches {
		b.submitBatch(batch)
	}
}

// believesPrimary reports whether this replica's Preparation compartment is
// the primary under the broker's view estimate.
func (b *broker) believesPrimaryLocked() bool {
	return uint32(b.viewEstimate%uint64(b.cfg.N)) == b.cfg.ID
}

// queueLocked puts req, awaited as p, in the batch buffer.
func (b *broker) queueLocked(p *pendingReq, req *messages.Request) {
	if b.pendingReqs.Len() == 0 {
		b.batchSince = time.Now()
	}
	p.queued = true
	b.pendingReqs.Push(*req)
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
	// Every copy of a request not awaited arms an entry, a late copy of an
	// answered one too: Execution's answer to the detector's ask clears it.
	p := b.awaiting[key]
	if p == nil {
		now := time.Now()
		p = &pendingReq{req: req, since: now}
		b.awaiting[key] = p
		if b.timerStart.IsZero() {
			b.timed, b.timerStart = key, now
		}
	}
	if b.believesPrimaryLocked() && !p.queued {
		b.queueLocked(p, req)
		if b.pendingReqs.Len() >= b.cfg.BatchSize && !b.heldLocked() {
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
		if p := b.awaiting[reqKey{client: batch.Requests[i].ClientID, ts: batch.Requests[i].Timestamp}]; p != nil {
			p.queued = false
		}
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
	var batches []*messages.Batch
	b.mu.Lock()
	if !b.heldUntil.IsZero() && !now.Before(b.heldUntil) {
		batches = b.releaseLocked() // the fence a refusal named has lifted
	} else if !b.heldLocked() && b.pendingReqs.Len() > 0 && now.Sub(b.batchSince) >= b.cfg.BatchTimeout {
		batches = append(batches, b.takeBatchLocked())
	}
	// Age the retransmit filter on the failure detector's clock so
	// deliberate resends (ViewChange rebroadcasts, NewView retransmits to
	// stragglers) are suppressed for at most two detection periods.
	tick := false
	tickFlags := execution.TickPeriod
	if now.Sub(b.lastRotate) > b.cfg.RequestTimeout {
		b.lastRotate = now
		b.dedup.rotate()
		b.fetchBudget = fetchBudgetPerPeriod
		tick = true
		if b.probesLeft > 0 {
			b.probesLeft--
			tickFlags |= execution.TickProbe
		}
		// A request awaited this long is stale, most likely a forged copy
		// that Preparation never proposes: the prune bounds the map and how
		// long one forged request can drive suspicion. A still-live client
		// retransmits well inside this horizon and re-arms it.
		for key, p := range b.awaiting {
			if now.Sub(p.since) > 10*b.cfg.RequestTimeout {
				delete(b.awaiting, key)
			}
		}
	}
	leaseTick := false
	if b.cfg.ReadLeases && now.Sub(b.lastLease) > b.cfg.LeaseTTL/8 {
		b.lastLease = now
		leaseTick = true
	}
	suspectView := b.viewEstimate
	suspect, ask := b.detectLocked(now)
	if suspect {
		b.viewEstimate++ // batching duty may now be ours in v+1
		if promoted := b.promoteAwaitingLocked(); promoted != nil {
			batches = append(batches, promoted)
		}
	}
	b.mu.Unlock()
	for _, batch := range batches {
		b.submitBatch(batch)
	}
	if tick {
		// The detector period's query into Execution: it fetches a missing
		// body, settles parked reads and re-sends a lost frontier query even
		// when no protocol traffic flows, and for the first probePeriods
		// after a store opened it probes the peers. Never persisted — see
		// persistRun.
		b.submit(crypto.RoleExecution, []byte{compartment.EcallTick, tickFlags}, nil)
	}
	if ask != nil {
		b.submit(crypto.RoleExecution, ask, nil) // a query too: never persisted
	}
	if leaseTick {
		// With read leases on, the Preparation compartment runs on its own
		// faster lease clock (TTL/8, well under the TTL/4 renewal period):
		// the primary renews leases on it even when no proposals flow, so
		// an idle cluster keeps serving local reads.
		b.submit(crypto.RolePreparation, []byte{compartment.EcallTick, 0}, nil)
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
		pb := frameMessage(messages.Marshal(&messages.Suspect{Replica: b.cfg.ID, View: suspectView}), 1)
		b.submit(crypto.RoleConfirmation, pb.buf, pb)
	}
}

// detectLocked runs the failure detector, PBFT's one request timer (Castro
// and Liskov, OSDI '99 §4.4), which runs while any request is awaited. A
// request that waits its turn behind others is not a failure, so the timer
// restarts at now when the request it times is answered or cleared (it then
// times the oldest awaited one), when this replica suspects, and on the
// NewView of a view this replica asked for (observeNewView). On expiry it
// asks before it suspects: ask names every request awaited longer than
// RequestTimeout, and Execution names back through onExecuted those its
// exactly-once records cover, a request a state transfer carried it past
// included. It suspects once that ask came back with the timed request
// still awaited.
func (b *broker) detectLocked(now time.Time) (suspect bool, ask []byte) {
	if b.awaiting[b.timed] == nil {
		var oldest time.Time
		for key, p := range b.awaiting {
			if oldest.IsZero() || p.since.Before(oldest) {
				b.timed, oldest = key, p.since
			}
		}
		b.timerStart = time.Time{}
		if !oldest.IsZero() {
			b.timerStart = now
		}
	}
	if b.timerStart.IsZero() || now.Sub(b.timerStart) <= b.cfg.RequestTimeout || b.asking {
		return false, nil
	}
	if !b.askFor.Equal(b.timerStart) {
		b.askFor, b.asking = b.timerStart, true
		enc := messages.NewEncoder(2 + askPairSize*len(b.awaiting))
		enc.U8(compartment.EcallTick)
		enc.U8(0)
		for key, p := range b.awaiting {
			if now.Sub(p.since) > b.cfg.RequestTimeout {
				enc.U32(key.client)
				enc.U64(key.ts)
			}
		}
		return false, enc.Bytes()
	}
	b.timerStart = now
	return true, nil
}

// askPairSize is the encoded size of one (client, ts) pair of an ask and of
// Execution's answer to it.
const askPairSize = 4 + 8

// onExecuted is the ocall through which Execution answers the detector's
// ask: the (client, ts) pairs it names executed, and stop being awaited.
func (b *broker) onExecuted(data []byte) ([]byte, error) {
	d := messages.NewDecoder(data)
	b.mu.Lock()
	defer b.mu.Unlock()
	for d.Remaining() >= askPairSize {
		client := d.U32()
		delete(b.awaiting, reqKey{client: client, ts: d.U64()})
	}
	return nil, nil
}

// The Execution query policy: Execution answers the environment's query
// (compartment.EcallTick) from current state, and the broker decides when
// to ask and what to forward.
const (
	// queryEvery is how many messages the dispatcher delivers to Execution
	// between two flags-0 queries. A Commit overtakes its PrePrepare all the
	// time and the body lands a few positions later; one still missing a
	// query later is lost (say, its PrePrepare fell in a crashed replica's
	// un-fsynced WAL tail), so under traffic it is fetched within 32–64
	// messages, whatever RequestTimeout.
	queryEvery = 32
	// probePeriods is how many detector periods after a store opened the
	// period query also probes the peers, who answer only while ahead.
	probePeriods = 32
)

// isQuery reports whether an ecall payload is an environment query: the
// tag, a flags byte, and for the detector's ask the (client, ts) pairs it
// names.
func isQuery(p []byte) bool {
	return len(p) >= 2 && p[0] == compartment.EcallTick && (len(p)-2)%askPairSize == 0
}

// flagsZeroQuery asks Execution only what it is missing (see onQuery).
var flagsZeroQuery = []byte{compartment.EcallTick, 0}

// appendQuery counts the messages of a crossing into Execution and, when
// the count passes a multiple of queryEvery, appends a flags-0 query to it:
// no extra crossing, and no WAL record (persistRun logs the run only). asks
// reports whether the crossing carries the detector's ask.
func (b *broker) appendQuery(payloads [][]byte) (_ [][]byte, asks bool) {
	before := b.execMsgs
	for _, p := range payloads {
		if !isQuery(p) {
			b.execMsgs++
		} else if len(p) > 2 {
			asks = true
		}
	}
	if b.execMsgs/queryEvery > before/queryEvery {
		payloads = append(payloads, flagsZeroQuery)
	}
	return payloads, asks
}

// forwardFetches drops each BatchFetch among Execution's outputs unless the
// one before it named the same slot. Only queries answer BatchFetches, so a
// slot blocked at one query only — its body merely overtaken — is never
// fetched, and one still blocked is, at every later query. Execution's
// lastExec only grows, so one remembered slot suffices.
func (b *broker) forwardFetches(out []tee.OutMsg) []tee.OutMsg {
	keep := out[:0]
	for _, m := range out {
		if len(m.Payload) > 0 && messages.Type(m.Payload[0]) == messages.TBatchFetch {
			f, err := messages.Unmarshal(m.Payload)
			if err != nil {
				continue
			}
			seq := f.(*messages.BatchFetch).Seq
			repeat := seq == b.fetchSeq
			b.fetchSeq = seq
			if !repeat {
				continue
			}
		}
		keep = append(keep, m)
	}
	return keep
}
