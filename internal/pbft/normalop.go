package pbft

import (
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// onRequest handles an authenticated client request: exactly-once
// bookkeeping, batching at the primary, and failure-detection tracking at
// the backups.
func (r *Replica) onRequest(req *messages.Request) {
	entry := r.clients.entry(req.ClientID)
	if rep, done := entry.executed(req.Timestamp); done {
		// Executed before: retransmit the cached reply if still held.
		if rep != nil {
			r.sendClient(req.ClientID, rep)
		}
		return
	}
	d := req.Digest()
	if _, pending := r.pending[d]; !pending {
		r.pending[d] = pendingReq{req: *req, since: time.Now()}
	}
	// Batch at the primary. Retransmissions re-enter the batch buffer even
	// if already tracked; the exactly-once client table makes re-proposals
	// harmless.
	if r.isPrimary(r.view) && !r.inViewChange {
		r.batchPending(req)
		if r.pendingReqs.Len() >= r.cfg.BatchSize {
			r.cutBatch()
		}
	}
}

// pendingReq is a request awaiting execution: its body, for proposal by
// whichever replica leads when it is due, and when it first arrived, for the
// failure detector.
type pendingReq struct {
	req   messages.Request
	since time.Time
}

// batchPending adds req to the primary's batch buffer unless it is there.
func (r *Replica) batchPending(req *messages.Request) {
	d := req.Digest()
	if r.pendingDigest[d] {
		return
	}
	if r.pendingReqs.Len() == 0 {
		r.batchSince = time.Now()
	}
	r.pendingDigest[d] = true
	r.pendingReqs.Push(*req)
}

// cutBatch turns the buffered requests into a PrePrepare and starts
// agreement for the next sequence number.
func (r *Replica) cutBatch() {
	if r.pendingReqs.Len() == 0 {
		return
	}
	if !r.inWindow(r.nextSeq + 1) {
		return // window full; wait for a checkpoint to advance
	}
	take := r.pendingReqs.Len()
	if take > r.cfg.BatchSize {
		take = r.cfg.BatchSize
	}
	batch := messages.Batch{Requests: r.pendingReqs.PopN(make([]messages.Request, 0, take), take)}
	for i := range batch.Requests {
		delete(r.pendingDigest, batch.Requests[i].Digest())
	}
	r.batchSince = time.Now()

	r.nextSeq++
	pp := &messages.PrePrepare{
		View:    r.view,
		Seq:     r.nextSeq,
		Digest:  batch.Digest(),
		Replica: r.cfg.ID,
		Batch:   batch,
	}
	pp.Sig = r.sign(pp.SigningBytes())
	r.storePrePrepare(pp)
	r.broadcast(pp)
	r.maybePrepared(pp.View, pp.Seq)
}

// storePrePrepare records a PrePrepare in the log and caches its batch
// body for post-view-change execution.
func (r *Replica) storePrePrepare(pp *messages.PrePrepare) {
	s := r.log.slot(pp.View, pp.Seq)
	s.prePrepare = pp
	if len(pp.Batch.Requests) > 0 {
		b := pp.Batch
		r.batchStore[pp.Digest] = &b
	}
}

// onPrePrepare handles the primary's proposal at a backup.
func (r *Replica) onPrePrepare(pp *messages.PrePrepare) {
	if r.holdEarly(pp.View, pp) || pp.View != r.view || r.inViewChange || !r.inWindow(pp.Seq) {
		return
	}
	if r.isPrimary(r.view) {
		return // primaries do not take proposals from others in their view
	}
	s := r.log.slot(pp.View, pp.Seq)
	if s.prePrepare != nil {
		if s.prePrepare.Digest != pp.Digest {
			// Equivocation by the primary: keep the first, let the timer
			// drive a view change.
			return
		}
		if len(s.prePrepare.Batch.Requests) == 0 && len(pp.Batch.Requests) > 0 {
			r.storePrePrepare(pp) // upgrade a body-less entry from a NewView
		}
	} else {
		r.storePrePrepare(pp)
		p := &messages.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.cfg.ID}
		p.Sig = r.sign(p.SigningBytes())
		s.prepares[r.cfg.ID] = p
		r.broadcast(p)
	}
	r.maybePrepared(pp.View, pp.Seq)
}

// onPrepare collects backup votes.
func (r *Replica) onPrepare(p *messages.Prepare) {
	if r.holdEarly(p.View, p) || p.View != r.view || r.inViewChange || !r.inWindow(p.Seq) {
		return
	}
	s := r.log.slot(p.View, p.Seq)
	if _, dup := s.prepares[p.Replica]; dup {
		return
	}
	s.prepares[p.Replica] = p
	r.maybePrepared(p.View, p.Seq)
}

// maybePrepared fires when a slot has a PrePrepare plus 2f matching
// Prepares: the replica commits to the order by broadcasting a Commit.
func (r *Replica) maybePrepared(view, seq uint64) {
	s, ok := r.log.peek(view, seq)
	if !ok || s.prepared || s.prePrepare == nil {
		return
	}
	matching := 0
	for _, p := range s.prepares {
		if p.Digest == s.prePrepare.Digest {
			matching++
		}
	}
	if matching < 2*r.cfg.F {
		return
	}
	s.prepared = true
	c := &messages.Commit{View: view, Seq: seq, Digest: s.prePrepare.Digest, Replica: r.cfg.ID}
	c.Sig = r.sign(c.SigningBytes())
	s.commits[r.cfg.ID] = c
	r.broadcast(c)
	r.maybeCommitted(view, seq)
}

// onCommit collects commit votes.
func (r *Replica) onCommit(c *messages.Commit) {
	if r.holdEarly(c.View, c) || c.View != r.view || r.inViewChange || !r.inWindow(c.Seq) {
		return
	}
	s := r.log.slot(c.View, c.Seq)
	if _, dup := s.commits[c.Replica]; dup {
		return
	}
	s.commits[c.Replica] = c
	r.maybeCommitted(c.View, c.Seq)
}

// maybeCommitted fires when a prepared slot has 2f+1 matching Commits:
// the batch is committed-local and queued for in-order execution.
func (r *Replica) maybeCommitted(view, seq uint64) {
	s, ok := r.log.peek(view, seq)
	if !ok || !s.prepared || s.committed || s.prePrepare == nil {
		return
	}
	matching := 0
	for _, c := range s.commits {
		if c.Digest == s.prePrepare.Digest {
			matching++
		}
	}
	if matching < r.cfg.quorum() {
		return
	}
	s.committed = true
	if s.prePrepare.Digest.IsZero() {
		r.committedNull[seq] = true
	} else if batch, ok := r.batchStore[s.prePrepare.Digest]; ok {
		r.committedBatches[seq] = batch
	} else {
		// Body unknown (committed via a post-view-change certificate).
		// Execution stalls until state transfer catches this replica up.
		r.committedNull[seq] = false
	}
	r.tryExecute()
}

// tryExecute executes committed batches strictly in sequence order.
func (r *Replica) tryExecute() {
	for {
		next := r.lastExec + 1
		if next <= r.lowWatermark {
			// Covered by a stable checkpoint; state transfer handles it.
			return
		}
		if r.committedNull[next] {
			delete(r.committedNull, next)
			r.lastExec = next
			r.mLastExec.Store(next)
			r.afterExecute(next)
			continue
		}
		batch, ok := r.committedBatches[next]
		if !ok {
			return
		}
		delete(r.committedBatches, next)
		r.executeBatch(batch)
		r.lastExec = next
		r.mLastExec.Store(next)
		r.afterExecute(next)
	}
}

// executeBatch runs every request in the batch against the application,
// replies to clients, and maintains the exactly-once table.
func (r *Replica) executeBatch(batch *messages.Batch) {
	for i := range batch.Requests {
		req := &batch.Requests[i]
		entry := r.clients.entry(req.ClientID)
		delete(r.pending, req.Digest())
		if rep, done := entry.executed(req.Timestamp); done {
			if rep != nil {
				r.sendClient(req.ClientID, rep)
			}
			continue // duplicate within/across batches
		}
		result := r.cfg.App.Execute(req.ClientID, req.Payload)
		rep := &messages.Reply{
			View:      r.view,
			ClientID:  req.ClientID,
			Timestamp: req.Timestamp,
			Replica:   r.cfg.ID,
			Result:    result,
		}
		rep.MAC = r.cfg.MACs.MAC(rep.AuthenticatedBytes(),
			crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient})
		entry.record(req.Timestamp, rep)
		r.mExecuted.Add(1)
		r.sendClient(req.ClientID, rep)
	}
	r.progressMade()
}

// afterExecute produces a checkpoint at interval boundaries.
func (r *Replica) afterExecute(seq uint64) {
	r.progressMade()
	r.vcBackoff = 0
	if seq%r.cfg.CheckpointInterval != 0 {
		return
	}
	r.makeCheckpoint(seq)
}
