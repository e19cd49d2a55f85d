package pbft

import (
	"time"

	"github.com/splitbft/splitbft/internal/messages"
)

// checkRequestTimeouts suspects the primary when a tracked request has been
// pending longer than the request timeout without any execution progress,
// and escalates to further views if the view change itself stalls. Both
// periods double with every view entered since the last execution (PBFT's
// doubling timeout), so a new view whose NewView takes longer to verify than
// one period is not deposed before its first commit.
func (r *Replica) checkRequestTimeouts(now time.Time) {
	if len(r.pending) == 0 && !r.inViewChange {
		return
	}
	timeout := r.cfg.RequestTimeout << min(r.vcBackoff, 6)
	if r.inViewChange {
		// Escalate to the next view only after the exponential-backoff
		// deadline (PBFT doubles the view-change timeout per view to
		// guarantee convergence when replicas chase each other's views).
		if now.After(r.vcDeadline) {
			r.vcBackoff++
			r.startViewChange(r.vcTarget + 1)
			return
		}
		// While waiting, periodically rebroadcast our ViewChange: it or
		// the NewView may have been lost, and an installed primary answers
		// a redundant ViewChange by resending its NewView.
		if now.Sub(r.lastProgress) > 2*timeout && r.myVC != nil {
			r.progressMade()
			r.broadcast(r.myVC)
		}
		return
	}
	oldest := now
	for _, p := range r.pending {
		if p.since.Before(oldest) {
			oldest = p.since
		}
	}
	if now.Sub(oldest) > timeout && now.Sub(r.lastProgress) > timeout {
		r.startViewChange(r.view + 1)
	}
}

// startViewChange abandons the current view and broadcasts a ViewChange
// for target.
func (r *Replica) startViewChange(target uint64) {
	if target <= r.view && r.inViewChange && target <= r.vcTarget {
		return
	}
	r.inViewChange = true
	r.mInVC.Store(true)
	r.vcTarget = target
	r.view = target
	r.mView.Store(target)
	r.progressMade()
	// Drop the batching buffer: the new view's primary batches every
	// pending request when it installs the view (installNewView).
	r.pendingReqs.Reset()
	r.pendingDigest = make(map[digestKey]bool)
	r.early = nil

	vc := &messages.ViewChange{
		NewViewNum: target,
		Stable:     r.stableCert,
		Prepared:   r.log.prepareCertsAbove(r.lowWatermark, 2*r.cfg.F),
		Replica:    r.cfg.ID,
	}
	vc.Sig = r.sign(vc.SigningBytes())
	r.myVC = vc
	r.vcDeadline = time.Now().Add(2 * r.cfg.RequestTimeout << min(r.vcBackoff, 6))
	r.recordViewChange(vc)
	r.broadcast(vc)
	r.maybeNewView(target)
}

// onViewChange collects ViewChange votes and joins view changes already
// supported by f+1 replicas (the PBFT liveness rule).
func (r *Replica) onViewChange(vc *messages.ViewChange) {
	if vc.NewViewNum <= r.view && !r.inViewChange {
		// A peer is still trying to enter a view we already installed: if
		// we are its primary, retransmit the NewView (it may have been
		// lost; without this the peer is stuck forever).
		if r.isPrimary(r.view) && r.lastNewView != nil && r.lastNewView.View == r.view {
			r.sendReplica(vc.Replica, r.lastNewView)
		}
		return
	}
	r.recordViewChange(vc)
	// Join rule: f+1 distinct replicas asking for a view above ours.
	if vc.NewViewNum > r.view {
		above := make(map[uint32]bool)
		minTarget := vc.NewViewNum
		for target, set := range r.viewChanges {
			if target <= r.view {
				continue
			}
			for id := range set {
				above[id] = true
			}
			if target < minTarget {
				minTarget = target
			}
		}
		if len(above) > r.cfg.F {
			r.startViewChange(minTarget)
			return
		}
	}
	r.maybeNewView(vc.NewViewNum)
}

func (r *Replica) recordViewChange(vc *messages.ViewChange) {
	set, ok := r.viewChanges[vc.NewViewNum]
	if !ok {
		set = make(map[uint32]*messages.ViewChange)
		r.viewChanges[vc.NewViewNum] = set
	}
	if _, dup := set[vc.Replica]; !dup {
		set[vc.Replica] = vc
	}
}

// maybeNewView fires at the new primary once 2f+1 ViewChanges for target
// have been collected: it computes and broadcasts the NewView and installs
// the new view locally.
func (r *Replica) maybeNewView(target uint64) {
	if !r.isPrimary(target) || target < r.view || !r.inViewChange || target != r.vcTarget {
		return
	}
	set := r.viewChanges[target]
	if len(set) < r.cfg.quorum() {
		return
	}
	vcs := make([]messages.ViewChange, 0, r.cfg.quorum())
	for _, vc := range set {
		vcs = append(vcs, *vc)
		if len(vcs) == r.cfg.quorum() {
			break
		}
	}
	stable, pps := messages.ComputeNewViewPrePrepares(target, r.cfg.ID, vcs, r.sign)
	nv := &messages.NewView{
		View:        target,
		ViewChanges: vcs,
		Stable:      stable,
		PrePrepares: pps,
		Replica:     r.cfg.ID,
	}
	nv.Sig = r.sign(nv.SigningBytes())
	r.lastNewView = nv
	r.broadcast(nv)
	r.installNewView(nv)
}

// onNewView installs a verified NewView at a backup.
func (r *Replica) onNewView(nv *messages.NewView) {
	if nv.View < r.view || (nv.View == r.view && !r.inViewChange) {
		return
	}
	r.installNewView(nv)
}

// installNewView moves the replica into nv.View: applies the stable
// checkpoint, replays the re-issued PrePrepares, and resumes normal
// operation.
func (r *Replica) installNewView(nv *messages.NewView) {
	r.view = nv.View
	r.mView.Store(nv.View)
	r.inViewChange = false
	r.mInVC.Store(false)
	r.vcBackoff++ // until the new view executes (afterExecute)
	r.progressMade()
	if nv.Stable.Seq > r.lowWatermark {
		r.installStable(nv.Stable)
	}
	maxSeq := r.lowWatermark
	for i := range nv.PrePrepares {
		pp := &nv.PrePrepares[i]
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		if pp.Seq <= r.lowWatermark {
			continue
		}
		s := r.log.slot(pp.View, pp.Seq)
		s.prePrepare = pp
		if !r.isPrimary(nv.View) {
			p := &messages.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.cfg.ID}
			p.Sig = r.sign(p.SigningBytes())
			s.prepares[r.cfg.ID] = p
			r.broadcast(p)
		}
		r.maybePrepared(pp.View, pp.Seq)
	}
	if r.isPrimary(nv.View) && maxSeq > r.nextSeq {
		r.nextSeq = maxSeq
	}
	if r.nextSeq < r.lowWatermark {
		r.nextSeq = r.lowWatermark
	}
	// Forget view-change votes for this and lower views.
	for target := range r.viewChanges {
		if target <= nv.View {
			delete(r.viewChanges, target)
		}
	}
	// The failure detector times the pending requests afresh in the new
	// view, and its primary proposes them: a request seen only as a backup
	// must not wait for the client's next, backed-off retransmit while the
	// detector deposes one view after another.
	now := time.Now()
	for d, p := range r.pending {
		if _, done := r.clients.entry(p.req.ClientID).executed(p.req.Timestamp); done {
			delete(r.pending, d) // executed, e.g. inside a state transfer
			continue
		}
		p.since = now
		r.pending[d] = p
		if r.isPrimary(nv.View) {
			r.batchPending(&p.req)
		}
	}
	if r.isPrimary(nv.View) && r.pendingReqs.Len() > 0 {
		r.cutBatch()
	}
	early := r.early
	r.early = nil
	for _, m := range early {
		r.dispatch(event{msg: m})
	}
}

// earlyMax bounds the agreement messages held for a view being entered: a
// watermark window of one proposal, its Prepares and its Commits.
const earlyMax = 4096

// holdEarly keeps an agreement message of the view this replica is changing
// into for installNewView to replay, and reports whether it did. Messages are
// verified in parallel, so the new primary's first proposal — and the votes
// on it — routinely overtake its larger NewView; dropping them would leave
// the view without progress until the failure detector deposes it.
func (r *Replica) holdEarly(view uint64, m messages.Message) bool {
	if !r.inViewChange || view != r.vcTarget || len(r.early) >= earlyMax {
		return false
	}
	r.early = append(r.early, m)
	return true
}
