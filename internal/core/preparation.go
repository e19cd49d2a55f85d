package core

import (
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// preparation is the Preparation compartment (§3.2): it starts the ordering
// of client batches. On the primary it authenticates client requests,
// assigns sequence numbers and emits PrePrepares (event handler 1); on
// backups it validates PrePrepares and emits Prepares (2). It also handles
// ViewChanges (6) and creates/validates NewViews (7), plus the duplicated
// checkpoint handlers (9, 7').
type preparation struct {
	comState
	macs *crypto.MACStore
	// counter is the trusted monotonic counter enclave (trusted consensus
	// mode only, nil in classic). The primary binds every PrePrepare to the
	// next counter value; because the counter and the sequence space advance
	// in lockstep, backups can verify gap-freeness with the affine law
	// CtrVal = ctrBase + (Seq - seqBase) alone.
	counter *tee.TrustedCounter

	// Read-lease issuance (primary duty, ReadLeases deployments). Leases
	// piggyback on proposal and checkpoint traffic and renew on the
	// failure-detector tick, so holders stay leased on idle clusters too.
	leases    bool
	leaseTTL  time.Duration
	clock     *SkewClock
	lastGrant time.Time
	// lastGrantProbe records whether the last grant round was probe-only,
	// so the first quorum of acks can trigger an immediate real round
	// instead of waiting out the renewal throttle.
	lastGrantProbe bool
	// lastExpiry is the highest expiry this primary has granted; acks
	// echoing anything above it are forgeries (or cross-primary confusion)
	// and are dropped.
	lastExpiry int64
	// ackExpiry tracks, per holder, the highest grant-round expiry the
	// holder has acknowledged. A holder counts as reachable while its entry
	// lies in the future; real (servable) grants require a quorum of
	// reachable holders, so a primary cut off with fewer than 2f+1 peers
	// degrades to probe grants within one TTL and its holders' leases die.
	// Reset on every view install — a new view's primary proves
	// reachability afresh.
	ackExpiry map[uint32]int64
	// leaseFence delays this primary's first fresh proposal after a view
	// change until every lease the previous primary could have kept alive
	// has expired (2.5×TTL: the last real grant could have been issued up
	// to one TTL after the view change began, lives one TTL, plus half a
	// TTL for clock skew and delivery slack). Re-issued NewView proposals
	// are exempt — they were proposed, and covered by read-index frontiers,
	// in earlier views.
	leaseFence time.Time
	// fenced parks batches that arrived during the fence; the lease tick
	// flushes them the moment the fence passes, so post-view-change writes
	// pay the fence as pure latency instead of depending on client
	// retransmission (which races the failure detector into another view
	// change). Bounded — overflow drops, and retransmission covers.
	fenced []*messages.Batch

	nextSeq uint64
	// proposals records the accepted proposal digest per (view, seq): the
	// compartment's slice of the input log. Its presence also marks that a
	// Prepare was already sent for the slot.
	proposals map[uint64]map[uint64]crypto.Digest
	// viewChanges collects ViewChange votes for the new-primary duty.
	viewChanges map[uint64]map[uint32]*messages.ViewChange
	// lastNewView is the NewView this compartment emitted as the new
	// primary, kept for retransmission to stragglers.
	lastNewView *messages.NewView
}

func newPreparation(cfg Config, ver *messages.Verifier, counter *tee.TrustedCounter) *preparation {
	return &preparation{
		comState: newComState(cfg.N, cfg.F, cfg.ID, cfg.WatermarkWindow, ver),
		macs: crypto.NewMACStore(cfg.MACSecret,
			crypto.Identity{ReplicaID: cfg.ID, Role: crypto.RolePreparation}),
		counter:     counter,
		leases:      cfg.ReadLeases,
		leaseTTL:    cfg.LeaseTTL,
		clock:       cfg.Clock,
		ackExpiry:   make(map[uint32]int64),
		proposals:   make(map[uint64]map[uint64]crypto.Digest),
		viewChanges: make(map[uint64]map[uint32]*messages.ViewChange),
	}
}

// Measurement implements tee.Code.
func (p *preparation) Measurement() crypto.Digest { return measPreparation }

// HandleECall implements tee.Code.
func (p *preparation) HandleECall(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) == 0 {
		return nil
	}
	switch raw[0] {
	case ecallBatch:
		batch, err := messages.UnmarshalBatch(raw[1:])
		if err != nil {
			return nil
		}
		return p.onBatch(host, batch)
	case ecallTick:
		// Lease-clock tick (read-lease deployments only): renew the
		// outstanding read leases even when no proposal or checkpoint
		// traffic would carry a grant, and flush any batches the write
		// fence parked. Ticks are never persisted.
		return append(p.flushFenced(host), p.maybeGrantLeases()...)
	case ecallMessage:
		m, err := messages.Unmarshal(raw[1:])
		if err != nil {
			return nil
		}
		switch msg := m.(type) {
		case *messages.PrePrepare:
			return p.onPrePrepare(host, msg)
		case *messages.ViewChange:
			return p.onViewChange(host, msg)
		case *messages.NewView:
			return p.onNewView(host, msg)
		case *messages.Checkpoint:
			p.onCheckpointGC(host, msg)
			// Checkpoint traffic is the second piggyback carrier for lease
			// renewal (proposals being the first).
			return p.maybeGrantLeases()
		case *messages.LeaseAck:
			return p.onLeaseAck(msg)
		case *messages.ReadIndex:
			return p.onReadIndex(host, msg)
		}
	}
	return nil
}

// maybeGrantLeases issues or renews read leases for every replica when
// this compartment is the primary of the current view and the renewal
// period (a quarter of the TTL) has elapsed. Each grant is signed by the
// trusted counter enclave. Grants are probe-only — acknowledged by the
// holders but never installed — until a quorum of holders has fresh
// LeaseAcks on file: servable leases are issued exclusively by a primary
// that can prove it is not isolated with a minority, which is what keeps a
// deposed primary in a partition from renewing its holders' leases
// forever. Returns nil in non-lease deployments and on backups.
func (p *preparation) maybeGrantLeases() []tee.OutMsg {
	if !p.leases || p.counter == nil || p.primary(p.view) != p.id {
		return nil
	}
	now := p.clock.Now()
	if !p.lastGrant.IsZero() && now.Sub(p.lastGrant) < p.leaseTTL/4 {
		return nil
	}
	probe := !p.acksFresh(now)
	p.lastGrant = now
	p.lastGrantProbe = probe
	expiry := now.Add(p.leaseTTL).UnixNano()
	if expiry <= p.lastExpiry {
		expiry = p.lastExpiry + 1 // expiry doubles as the ack-round nonce
	}
	p.lastExpiry = expiry
	out := make([]tee.OutMsg, 0, p.n)
	for holder := uint32(0); int(holder) < p.n; holder++ {
		att := p.counter.GrantLease(holder, p.view, expiry, probe)
		g := &messages.LeaseGrant{
			Granter: att.Granter,
			Holder:  att.Holder,
			View:    att.View,
			Expiry:  att.Expiry,
			Probe:   att.Probe,
			Sig:     att.Sig,
		}
		if holder == p.id {
			out = append(out, localOut(crypto.RoleExecution, g))
		} else {
			out = append(out, replicaOut(holder, g))
		}
	}
	return out
}

// acksFresh reports whether a quorum of holders has acknowledged a grant
// round whose expiry still lies in the future — the reachability proof
// that authorizes real (servable) grants.
func (p *preparation) acksFresh(now time.Time) bool {
	ns := now.UnixNano()
	fresh := 0
	for _, exp := range p.ackExpiry {
		if exp > ns {
			fresh++
		}
	}
	return fresh >= p.quorum()
}

// onLeaseAck records a holder's acknowledgement of a grant round. The
// echoed expiry is the round nonce: only acks for rounds this primary
// actually issued count, each holder's record is monotonic (replays can
// never refresh it), and freshness is re-derived against the clock at
// grant time. When the quorum first forms right after a probe round, a
// real round goes out immediately so the fast path arms without waiting
// out the renewal throttle.
func (p *preparation) onLeaseAck(a *messages.LeaseAck) []tee.OutMsg {
	if !p.leases || p.primary(p.view) != p.id {
		return nil
	}
	if a.View != p.view || a.Expiry > p.lastExpiry {
		return nil
	}
	if err := p.ver.VerifyLeaseAck(a); err != nil {
		return nil
	}
	if a.Expiry <= p.ackExpiry[a.Holder] {
		return nil // stale or replayed ack
	}
	p.ackExpiry[a.Holder] = a.Expiry
	if p.lastGrantProbe && p.acksFresh(p.clock.Now()) {
		p.lastGrant = time.Time{} // bypass the throttle for the arming round
		return p.maybeGrantLeases()
	}
	return nil
}

// onReadIndex answers a holder's read-index query with this primary's
// proposal frontier — the highest sequence number it has assigned. Every
// write acknowledged to a client before the query was sent has committed,
// hence was proposed, hence sits at or below the frontier; a holder that
// has applied the frontier therefore observes it. Queries for other views
// (or arriving at a backup) are dropped silently: the holder's read falls
// back to the agreement path. The frontier check needs no extra fence —
// this compartment's nextSeq is installed at or above every re-issued slot
// on view entry, so the bound survives primary turnover.
func (p *preparation) onReadIndex(host tee.Host, ri *messages.ReadIndex) []tee.OutMsg {
	if !p.leases || p.primary(p.view) != p.id || ri.View != p.view {
		return nil
	}
	if err := p.ver.VerifyReadIndex(ri); err != nil {
		return nil
	}
	rep := &messages.ReadIndexReply{
		Replica:  p.id,
		Holder:   ri.Holder,
		View:     p.view,
		Epoch:    ri.Epoch,
		Frontier: p.nextSeq,
	}
	_, rep.Auth = p.authenticate(host, rep)
	if ri.Holder == p.id {
		return []tee.OutMsg{localOut(crypto.RoleExecution, rep)}
	}
	return []tee.OutMsg{replicaOut(ri.Holder, rep)}
}

// record stores an accepted proposal digest, reporting false on conflict
// (equivocation) or duplication.
func (p *preparation) record(view, seq uint64, d crypto.Digest) bool {
	vs, ok := p.proposals[view]
	if !ok {
		vs = make(map[uint64]crypto.Digest)
		p.proposals[view] = vs
	}
	if _, exists := vs[seq]; exists {
		return false
	}
	vs[seq] = d
	return true
}

// fencedBatchMax bounds the fence parking buffer; batches past it are
// dropped and re-collected from client retransmissions.
const fencedBatchMax = 128

// onBatch is event handler (1): the primary authenticates a client batch
// from the environment, assigns the next sequence number and emits the
// PrePrepare — into the local Confirmation and Execution compartments (the
// duplicated input logs of §3.2), then to the network.
func (p *preparation) onBatch(host tee.Host, batch *messages.Batch) []tee.OutMsg {
	if p.primary(p.view) != p.id {
		return nil // the environment misjudged the view; liveness only
	}
	if p.leases && !p.leaseFence.IsZero() && p.clock.Now().Before(p.leaseFence) {
		// Write fence after a view change: no fresh proposal may be
		// assigned while a lease the deposed primary issued could still be
		// alive somewhere — a partitioned holder could serve a read missing
		// a write this view already acked. Park the batch; the lease tick
		// flushes it the moment the fence passes.
		if len(p.fenced) < fencedBatchMax {
			b := *batch
			p.fenced = append(p.fenced, &b)
		}
		return nil
	}
	return append(p.flushFenced(host), p.proposeBatch(host, batch)...)
}

// flushFenced proposes the batches the write fence parked, once it has
// passed. Ordering across the fence is preserved (parked batches flush
// before any new one), and duplicate requests from overlapping client
// retransmissions are harmless — the Execution compartments' exactly-once
// bookkeeping answers them from the reply cache.
func (p *preparation) flushFenced(host tee.Host) []tee.OutMsg {
	if len(p.fenced) == 0 {
		return nil
	}
	if p.primary(p.view) != p.id {
		p.fenced = nil // deposed while fenced: the next primary re-collects
		return nil
	}
	if p.leases && !p.leaseFence.IsZero() && p.clock.Now().Before(p.leaseFence) {
		return nil
	}
	batches := p.fenced
	p.fenced = nil
	var out []tee.OutMsg
	for _, b := range batches {
		out = append(out, p.proposeBatch(host, b)...)
	}
	return out
}

// proposeBatch authenticates a client batch, assigns the next sequence
// number and emits the PrePrepare.
func (p *preparation) proposeBatch(host tee.Host, batch *messages.Batch) []tee.OutMsg {
	valid := batch.Requests[:0]
	enc := messages.GetEncoder()
	for i := range batch.Requests {
		req := &batch.Requests[i]
		client := crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient}
		enc.Reset()
		req.AppendAuthenticated(enc)
		if err := p.macs.VerifyIndexed(enc.Bytes(), req.Auth, int(p.id), client); err != nil {
			continue // unauthenticated request: drop from the batch
		}
		valid = append(valid, *req)
	}
	messages.PutEncoder(enc)
	if len(valid) == 0 {
		return nil
	}
	if !p.inWindow(p.nextSeq + 1) {
		return nil // window exhausted; the environment will resubmit
	}
	p.nextSeq++
	b := messages.Batch{Requests: valid}
	pp := &messages.PrePrepare{
		View:    p.view,
		Seq:     p.nextSeq,
		Digest:  b.Digest(),
		Replica: p.id,
		Batch:   b,
	}
	pp.Sig, pp.Auth = p.authenticate(host, pp)
	if p.trustedMode() {
		// Bind the proposal to the next counter value. nextSeq and the
		// counter advance in lockstep from the view's bases, so the
		// attestation lands exactly on ctrBase + (Seq - seqBase) — the
		// affine law backups enforce in place of the Prepare phase.
		att := p.counter.CreateAttestation(messages.CounterDigest(pp))
		pp.CtrVal, pp.CtrSig = att.Value, att.Sig
	}
	p.record(pp.View, pp.Seq, pp.Digest)
	out := localFirst(pp, crypto.RoleConfirmation, crypto.RoleExecution)
	// Piggyback lease renewal on proposal traffic: under load the leases
	// ride along for free.
	return append(out, p.maybeGrantLeases()...)
}

// onPrePrepare is event handler (2): a backup validates the primary's
// proposal and emits its Prepare.
func (p *preparation) onPrePrepare(host tee.Host, pp *messages.PrePrepare) []tee.OutMsg {
	if pp.View != p.view || !p.inWindow(pp.Seq) {
		return nil
	}
	if p.primary(p.view) == p.id {
		return nil // the primary ignores foreign proposals in its view
	}
	if err := p.ver.VerifyPrePrepare(pp, true); err != nil {
		return nil
	}
	if p.trustedMode() {
		// Trusted consensus: a counter-valid proposal needs no Prepare —
		// the attestation plus the affine law is the whole vote. Record it
		// (the input-log slice still feeds equivocation detection) and stop;
		// the Confirmation compartment commits directly off its copy.
		if err := p.ver.VerifyCounterAt(pp, p.ctrBase, p.seqBase); err != nil {
			return nil
		}
		p.record(pp.View, pp.Seq, pp.Digest)
		return nil
	}
	if !p.record(pp.View, pp.Seq, pp.Digest) {
		return nil // duplicate or equivocation: prepare only once
	}
	prep := &messages.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: p.id}
	prep.Sig, prep.Auth = p.authenticate(host, prep)
	return localFirst(prep, crypto.RoleConfirmation)
}

// onViewChange is event handler (6): the Preparation compartment of the new
// primary collects 2f+1 ViewChanges and emits the NewView.
func (p *preparation) onViewChange(host tee.Host, vc *messages.ViewChange) []tee.OutMsg {
	if vc.NewViewNum <= p.view {
		// A straggler still asking for a view we installed: if we are its
		// primary, retransmit the NewView (it may have been lost).
		if p.primary(p.view) == p.id && p.lastNewView != nil &&
			p.lastNewView.View == p.view && int(vc.Replica) < p.n && vc.Replica != p.id {
			return []tee.OutMsg{replicaOut(vc.Replica, p.lastNewView)}
		}
		return nil
	}
	if err := p.ver.VerifyViewChange(vc); err != nil {
		return nil
	}
	set, ok := p.viewChanges[vc.NewViewNum]
	if !ok {
		set = make(map[uint32]*messages.ViewChange)
		p.viewChanges[vc.NewViewNum] = set
	}
	if _, dup := set[vc.Replica]; dup {
		return nil
	}
	set[vc.Replica] = vc
	if p.primary(vc.NewViewNum) != p.id || len(set) < p.quorum() {
		return nil
	}
	// Become the primary of the new view.
	vcs := make([]messages.ViewChange, 0, p.quorum())
	for _, v := range set {
		vcs = append(vcs, *v)
		if len(vcs) == p.quorum() {
			break
		}
	}
	// In MAC mode the re-issued PrePrepares carry no authenticators of
	// their own: they travel only inside the NewView, whose Ed25519
	// signature (same signing compartment) covers them.
	var sign messages.NewViewSigner
	if !p.macMode() {
		sign = host.Sign
	}
	stable, pps := messages.ComputeNewViewPrePrepares(vc.NewViewNum, p.id, vcs, sign)
	var ctrBase uint64
	if p.trustedMode() {
		// Attest the re-issues with fresh counter values. CtrBase is the
		// counter position before attesting; the re-issues (contiguous from
		// Stable.Seq+1 by construction) consume CtrBase+1..CtrBase+k in
		// sequence order, and every later proposal of the view continues
		// the same affine law. The counter cannot re-sign old values, so a
		// valid NewView proves the new leader neither reuses nor skips
		// slots. CtrBase is covered by nv.Sig below.
		ctrBase = p.counter.Value()
		for i := range pps {
			att := p.counter.CreateAttestation(messages.CounterDigest(&pps[i]))
			pps[i].CtrVal, pps[i].CtrSig = att.Value, att.Sig
		}
	}
	nv := &messages.NewView{
		View:        vc.NewViewNum,
		ViewChanges: vcs,
		Stable:      stable,
		PrePrepares: pps,
		Replica:     p.id,
		CtrBase:     ctrBase,
	}
	nv.Sig = host.Sign(nv.SigningBytes())
	p.lastNewView = nv
	p.installView(nv.View, stable, pps, ctrBase)
	delete(p.viewChanges, vc.NewViewNum)
	out := []tee.OutMsg{
		broadcastOut(nv),
		localOut(crypto.RoleConfirmation, nv),
		localOut(crypto.RoleExecution, nv),
	}
	// The new primary re-leases the group immediately: every lease from
	// the previous view is dead on arrival at any correct Execution
	// compartment (the view number no longer matches), so fresh grants are
	// what bring the read fast path back after a view change.
	return append(out, p.maybeGrantLeases()...)
}

// onNewView is event handler (7): backups fully validate the NewView —
// including recomputing the re-issued PrePrepares from the embedded
// ViewChanges, the complex logic the paper notes is repeated here — and
// prepare the re-issued slots.
func (p *preparation) onNewView(host tee.Host, nv *messages.NewView) []tee.OutMsg {
	if nv.View < p.view {
		return nil
	}
	if err := p.ver.VerifyNewView(nv); err != nil {
		return nil
	}
	p.installView(nv.View, nv.Stable, nv.PrePrepares, nv.CtrBase)
	var out []tee.OutMsg
	if p.primary(nv.View) != p.id {
		for i := range nv.PrePrepares {
			pp := &nv.PrePrepares[i]
			if pp.Seq <= p.lowWatermark || !p.record(pp.View, pp.Seq, pp.Digest) {
				continue
			}
			if p.trustedMode() {
				continue // counter-attested re-issues need no Prepare votes
			}
			prep := &messages.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: p.id}
			prep.Sig, prep.Auth = p.authenticate(host, prep)
			out = append(out, localFirst(prep, crypto.RoleConfirmation)...)
		}
	}
	return out
}

// installView moves the compartment into a new view.
func (p *preparation) installView(view uint64, stable messages.CheckpointCert, pps []messages.PrePrepare, ctrBase uint64) {
	p.view = view
	p.lastGrant = time.Time{} // a new view's primary leases afresh, at once
	// Reachability must be proven anew under the new view: old acks echo
	// grant rounds of a dead primary.
	p.ackExpiry = make(map[uint32]int64)
	p.lastExpiry = 0
	p.lastGrantProbe = false
	if p.leases && view > 0 {
		p.leaseFence = p.clock.Now().Add(2*p.leaseTTL + p.leaseTTL/2)
	}
	p.fenced = nil // parked batches re-arrive via client retransmission
	p.advanceStable(stable)
	if p.trustedMode() {
		// Re-pin the affine counter law: proposals of the new view consume
		// ctrBase+1.. sequence-aligned at the stable checkpoint.
		p.ctrBase, p.seqBase = ctrBase, stable.Seq
	}
	maxSeq := p.lowWatermark
	for i := range pps {
		if pps[i].Seq > maxSeq {
			maxSeq = pps[i].Seq
		}
		if p.primary(view) == p.id {
			p.record(pps[i].View, pps[i].Seq, pps[i].Digest)
		}
	}
	if maxSeq > p.nextSeq {
		p.nextSeq = maxSeq
	}
	if p.nextSeq < p.lowWatermark {
		p.nextSeq = p.lowWatermark
	}
	p.gc()
	for target := range p.viewChanges {
		if target <= view {
			delete(p.viewChanges, target)
		}
	}
}

// onCheckpointGC is the duplicated checkpoint handler (9).
func (p *preparation) onCheckpointGC(host tee.Host, c *messages.Checkpoint) {
	cert := p.onCheckpoint(host, c)
	if cert == nil {
		return
	}
	if p.advanceStable(*cert) {
		if p.nextSeq < p.lowWatermark {
			p.nextSeq = p.lowWatermark
		}
		p.gc()
	}
}

// gc prunes proposals at or below the watermark.
func (p *preparation) gc() {
	for view, vs := range p.proposals {
		for seq := range vs {
			if seq <= p.lowWatermark {
				delete(vs, seq)
			}
		}
		if len(vs) == 0 {
			delete(p.proposals, view)
		}
	}
}
