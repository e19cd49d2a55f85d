// Package preparation is the Preparation compartment (§3.2), one enclave of
// a SplitBFT replica.
package preparation

import (
	"time"

	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/counter"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Compartment is the Preparation compartment (§3.2): it starts the ordering
// of client batches. On the primary it authenticates client requests,
// assigns sequence numbers and emits PrePrepares (event handler 1); on
// backups it validates PrePrepares and emits Prepares (2). It also handles
// ViewChanges (6) and creates/validates NewViews (7), plus the duplicated
// checkpoint handlers (9, 7').
type Compartment struct {
	compartment.State
	macs *crypto.MACStore
	// counter is the trusted monotonic counter enclave (trusted consensus
	// mode only, nil in classic). The primary binds every PrePrepare to the
	// next counter value; because the counter and the sequence space advance
	// in lockstep, backups can verify gap-freeness with the affine law
	// CtrVal = CtrBase + (Seq - SeqBase) alone.
	counter *counter.Counter

	// Read-lease issuance (primary duty, ReadLeases deployments). Leases
	// piggyback on proposal and checkpoint traffic and renew on the
	// failure-detector tick, so holders stay leased on idle clusters too.
	leases    bool
	leaseTTL  time.Duration
	clock     *compartment.SkewClock
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
	// in earlier views. A batch offered while it is up is refused (onBatch).
	leaseFence time.Time
	// recovered is set by FinishRecovery; until then the fence refuses
	// nothing, so replay assigns every slot the live run did.
	recovered bool

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

// New builds the Preparation compartment of replica cfg.ID. ctr is the
// replica's trusted counter enclave, nil unless the deployment runs trusted
// consensus or read leases.
func New(cfg compartment.Config, ver *messages.Verifier, ctr *counter.Counter) *Compartment {
	return &Compartment{
		State: compartment.NewState(cfg, ver),
		macs: crypto.NewMACStore(cfg.MACSecret,
			crypto.Identity{ReplicaID: cfg.ID, Role: crypto.RolePreparation}),
		counter:     ctr,
		leases:      cfg.ReadLeases,
		leaseTTL:    cfg.LeaseTTL,
		clock:       cfg.Clock,
		ackExpiry:   make(map[uint32]int64),
		proposals:   make(map[uint64]map[uint64]crypto.Digest),
		viewChanges: make(map[uint64]map[uint32]*messages.ViewChange),
	}
}

// Measurement implements tee.Code.
func (p *Compartment) Measurement() crypto.Digest { return compartment.Measure("preparation") }

// HandleECall implements tee.Code.
func (p *Compartment) HandleECall(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) == 0 {
		return nil
	}
	switch raw[0] {
	case compartment.EcallBatch:
		batch, err := messages.UnmarshalBatch(raw[1:])
		if err != nil {
			return nil
		}
		return p.onBatch(host, batch)
	case compartment.EcallTick:
		// Lease-clock tick (read-lease deployments only): renew the
		// outstanding read leases even when no proposal or checkpoint
		// traffic would carry a grant. Ticks are never persisted, so they
		// touch neither nextSeq nor the proposal record.
		return p.maybeGrantLeases()
	case compartment.EcallMessage:
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
func (p *Compartment) maybeGrantLeases() []tee.OutMsg {
	if !p.leases || p.counter == nil || p.Primary(p.View) != p.ID {
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
	out := make([]tee.OutMsg, 0, p.N)
	for holder := uint32(0); int(holder) < p.N; holder++ {
		att := p.counter.GrantLease(holder, p.View, expiry, probe)
		g := &messages.LeaseGrant{
			Granter: att.Granter,
			Holder:  att.Holder,
			View:    att.View,
			Expiry:  att.Expiry,
			Probe:   att.Probe,
			Sig:     att.Sig,
		}
		if holder == p.ID {
			out = append(out, compartment.LocalOut(crypto.RoleExecution, g))
		} else {
			out = append(out, compartment.ReplicaOut(holder, g))
		}
	}
	return out
}

// acksFresh reports whether a quorum of holders has acknowledged a grant
// round whose expiry still lies in the future — the reachability proof
// that authorizes real (servable) grants.
func (p *Compartment) acksFresh(now time.Time) bool {
	ns := now.UnixNano()
	fresh := 0
	for _, exp := range p.ackExpiry {
		if exp > ns {
			fresh++
		}
	}
	return fresh >= p.Quorum()
}

// onLeaseAck records a holder's acknowledgement of a grant round. The
// echoed expiry is the round nonce: only acks for rounds this primary
// actually issued count, each holder's record is monotonic (replays can
// never refresh it), and freshness is re-derived against the clock at
// grant time. When the quorum first forms right after a probe round, a
// real round goes out immediately so the fast path arms without waiting
// out the renewal throttle.
func (p *Compartment) onLeaseAck(a *messages.LeaseAck) []tee.OutMsg {
	if !p.leases || p.Primary(p.View) != p.ID {
		return nil
	}
	if a.View != p.View || a.Expiry > p.lastExpiry {
		return nil
	}
	if err := p.Ver.VerifyLeaseAck(a); err != nil {
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
func (p *Compartment) onReadIndex(host tee.Host, ri *messages.ReadIndex) []tee.OutMsg {
	if !p.leases || p.Primary(p.View) != p.ID || ri.View != p.View {
		return nil
	}
	if err := p.Ver.VerifyReadIndex(ri); err != nil {
		return nil
	}
	rep := &messages.ReadIndexReply{
		Replica:  p.ID,
		Holder:   ri.Holder,
		View:     p.View,
		Epoch:    ri.Epoch,
		Frontier: p.nextSeq,
	}
	_, rep.Auth = p.Authenticate(host, rep)
	if ri.Holder == p.ID {
		return []tee.OutMsg{compartment.LocalOut(crypto.RoleExecution, rep)}
	}
	return []tee.OutMsg{compartment.ReplicaOut(ri.Holder, rep)}
}

// record stores an accepted proposal digest, reporting false on conflict
// (equivocation) or duplication.
func (p *Compartment) record(view, seq uint64, d crypto.Digest) bool {
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

// OcallRefused is the ocall through which onBatch refuses a batch. Its
// payload is the reason (RefusedWindow or RefusedFence), the nanoseconds the
// fence has left (zero for the window), then the refused requests as
// (client, ts) pairs.
const OcallRefused = "prep.refused"

// Refusal reasons, the first byte of an OcallRefused payload.
const (
	RefusedWindow byte = 1 // no slot is free below the high watermark
	RefusedFence  byte = 2 // the new primary's write fence is up
)

// onBatch is event handler (1): the primary assigns the next sequence number
// to a client batch from the environment and emits the PrePrepare (see
// proposeBatch). A batch it cannot propose now it refuses, in one
// OcallRefused, and keeps nothing of it: batching is the environment's job
// (§3.2), and the environment decides when to offer the requests again.
func (p *Compartment) onBatch(host tee.Host, batch *messages.Batch) []tee.OutMsg {
	if p.Primary(p.View) != p.ID {
		return nil // the environment misjudged the view; liveness only
	}
	if left := p.leaseFence.Sub(p.clock.Now()); left > 0 && p.recovered {
		// Write fence after a view change: no fresh proposal may be
		// assigned while a lease the deposed primary issued could still be
		// alive somewhere — a partitioned holder could serve a read missing
		// a write this view already acked.
		refuse(host, batch, RefusedFence, left)
		return nil
	}
	if !p.InWindow(p.nextSeq + 1) {
		refuse(host, batch, RefusedWindow, 0)
		return nil
	}
	return p.proposeBatch(host, batch)
}

// armFence raises the write fence for its full span on a lease deployment
// past view 0.
func (p *Compartment) armFence() {
	if p.leases && p.View > 0 {
		p.leaseFence = p.clock.Now().Add(2*p.leaseTTL + p.leaseTTL/2)
	}
}

// refuse names a refused batch's requests to the environment. Nothing here
// depends on the answer: a lost refusal costs liveness only, and the
// requests' clients retransmit.
func refuse(host tee.Host, batch *messages.Batch, reason byte, left time.Duration) {
	enc := messages.NewEncoder(1 + 8 + (4+8)*len(batch.Requests))
	enc.U8(reason)
	enc.U64(uint64(left))
	for i := range batch.Requests {
		enc.U32(batch.Requests[i].ClientID)
		enc.U64(batch.Requests[i].Timestamp)
	}
	_, _ = host.Ocall(OcallRefused, enc.Bytes())
}

// FinishRecovery runs after the sealed snapshot import and the WAL replay,
// before the replica serves; a fresh replica, which recovers nothing, calls
// it too. It keeps one recovery rule: replay never assigns fewer slots than
// the live run did. The fence reads the clock, so a replayed NewView re-arms
// it at replay time, and were replayed batches refused, nextSeq would end
// low and the restarted primary would propose those slots again with other
// batches; until this call the fence refuses nothing. Recovery then re-arms
// the full fence in a lease deployment past view 0 (on a backup it is moot:
// a view install re-arms it), whether the state came from a snapshot or
// from replay, since nothing records how much of the live fence had passed.
// A batch the live run refused at the fence may therefore be proposed in
// replay alone. Replay outputs are discarded, so its slot never leaves the
// replica: the backups meet a gap there, which costs one view change, and
// never a second digest for the slot.
func (p *Compartment) FinishRecovery() {
	p.recovered = true
	p.armFence()
}

// proposeBatch authenticates the requests of a batch the window and the
// fence admit, assigns the next sequence number and emits the PrePrepare —
// into the local Confirmation and Execution compartments (the duplicated
// input logs of §3.2), then to the network.
func (p *Compartment) proposeBatch(host tee.Host, batch *messages.Batch) []tee.OutMsg {
	valid := batch.Requests[:0]
	enc := messages.GetEncoder()
	for i := range batch.Requests {
		req := &batch.Requests[i]
		client := crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient}
		enc.Reset()
		req.AppendAuthenticated(enc)
		if err := p.macs.VerifyIndexed(enc.Bytes(), req.Auth, int(p.ID), client); err != nil {
			continue // unauthenticated request: drop from the batch
		}
		valid = append(valid, *req)
	}
	messages.PutEncoder(enc)
	if len(valid) == 0 {
		return nil
	}
	p.nextSeq++
	b := messages.Batch{Requests: valid}
	pp := &messages.PrePrepare{
		View:    p.View,
		Seq:     p.nextSeq,
		Digest:  b.Digest(),
		Replica: p.ID,
		Batch:   b,
	}
	pp.Sig, pp.Auth = p.Authenticate(host, pp)
	if p.TrustedMode() {
		// Bind the proposal to the next counter value. nextSeq and the
		// counter advance in lockstep from the view's bases, so the
		// attestation lands exactly on CtrBase + (Seq - SeqBase) — the
		// affine law backups enforce in place of the Prepare phase.
		att := p.counter.CreateAttestation(messages.CounterDigest(pp))
		pp.CtrVal, pp.CtrSig = att.Value, att.Sig
	}
	p.record(pp.View, pp.Seq, pp.Digest)
	out := compartment.LocalFirst(pp, crypto.RoleConfirmation, crypto.RoleExecution)
	// Piggyback lease renewal on proposal traffic: under load the leases
	// ride along for free.
	return append(out, p.maybeGrantLeases()...)
}

// onPrePrepare is event handler (2): a backup validates the primary's
// proposal and emits its Prepare.
func (p *Compartment) onPrePrepare(host tee.Host, pp *messages.PrePrepare) []tee.OutMsg {
	if pp.View != p.View || !p.InWindow(pp.Seq) {
		return nil
	}
	if p.Primary(p.View) == p.ID {
		return nil // the primary ignores foreign proposals in its view
	}
	if err := p.Ver.VerifyPrePrepare(pp, true); err != nil {
		return nil
	}
	if p.TrustedMode() {
		// Trusted consensus: a counter-valid proposal needs no Prepare —
		// the attestation plus the affine law is the whole vote. Record it
		// (the input-log slice still feeds equivocation detection) and stop;
		// the Confirmation compartment commits directly off its copy.
		if err := p.Ver.VerifyCounterAt(pp, p.CtrBase, p.SeqBase); err != nil {
			return nil
		}
		p.record(pp.View, pp.Seq, pp.Digest)
		return nil
	}
	if !p.record(pp.View, pp.Seq, pp.Digest) {
		return nil // duplicate or equivocation: prepare only once
	}
	prep := &messages.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: p.ID}
	prep.Sig, prep.Auth = p.Authenticate(host, prep)
	return compartment.LocalFirst(prep, crypto.RoleConfirmation)
}

// onViewChange is event handler (6): the Preparation compartment of the new
// primary collects 2f+1 ViewChanges and emits the NewView.
func (p *Compartment) onViewChange(host tee.Host, vc *messages.ViewChange) []tee.OutMsg {
	if vc.NewViewNum <= p.View {
		// A straggler still asking for a view we installed: if we are its
		// primary, retransmit the NewView (it may have been lost).
		if p.Primary(p.View) == p.ID && p.lastNewView != nil &&
			p.lastNewView.View == p.View && int(vc.Replica) < p.N && vc.Replica != p.ID {
			return []tee.OutMsg{compartment.ReplicaOut(vc.Replica, p.lastNewView)}
		}
		return nil
	}
	if err := p.Ver.VerifyViewChange(vc); err != nil {
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
	if p.Primary(vc.NewViewNum) != p.ID || len(set) < p.Quorum() {
		return nil
	}
	// Become the primary of the new view.
	vcs := make([]messages.ViewChange, 0, p.Quorum())
	for _, v := range set {
		vcs = append(vcs, *v)
		if len(vcs) == p.Quorum() {
			break
		}
	}
	// In MAC mode the re-issued PrePrepares carry no authenticators of
	// their own: they travel only inside the NewView, whose Ed25519
	// signature (same signing compartment) covers them.
	var sign messages.NewViewSigner
	if !p.MACMode() {
		sign = host.Sign
	}
	stable, pps := messages.ComputeNewViewPrePrepares(vc.NewViewNum, p.ID, vcs, sign)
	var ctrBase uint64
	if p.TrustedMode() {
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
		Replica:     p.ID,
		CtrBase:     ctrBase,
	}
	nv.Sig = host.Sign(nv.SigningBytes())
	p.lastNewView = nv
	p.installView(nv.View, stable, pps, ctrBase)
	delete(p.viewChanges, vc.NewViewNum)
	out := []tee.OutMsg{
		compartment.BroadcastOut(nv),
		compartment.LocalOut(crypto.RoleConfirmation, nv),
		compartment.LocalOut(crypto.RoleExecution, nv),
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
func (p *Compartment) onNewView(host tee.Host, nv *messages.NewView) []tee.OutMsg {
	if nv.View < p.View {
		return nil
	}
	if err := p.Ver.VerifyNewView(nv); err != nil {
		return nil
	}
	p.installView(nv.View, nv.Stable, nv.PrePrepares, nv.CtrBase)
	var out []tee.OutMsg
	if p.Primary(nv.View) != p.ID {
		for i := range nv.PrePrepares {
			pp := &nv.PrePrepares[i]
			if pp.Seq <= p.LowWatermark || !p.record(pp.View, pp.Seq, pp.Digest) {
				continue
			}
			if p.TrustedMode() {
				continue // counter-attested re-issues need no Prepare votes
			}
			prep := &messages.Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: p.ID}
			prep.Sig, prep.Auth = p.Authenticate(host, prep)
			out = append(out, compartment.LocalFirst(prep, crypto.RoleConfirmation)...)
		}
	}
	return out
}

// installView moves the compartment into a new view.
func (p *Compartment) installView(view uint64, stable messages.CheckpointCert, pps []messages.PrePrepare, ctrBase uint64) {
	p.View = view
	p.lastGrant = time.Time{} // a new view's primary leases afresh, at once
	// Reachability must be proven anew under the new view: old acks echo
	// grant rounds of a dead primary.
	p.ackExpiry = make(map[uint32]int64)
	p.lastExpiry = 0
	p.lastGrantProbe = false
	p.armFence()
	p.AdvanceStable(stable)
	if p.TrustedMode() {
		// Re-pin the affine counter law: proposals of the new view consume
		// ctrBase+1.. sequence-aligned at the stable checkpoint.
		p.CtrBase, p.SeqBase = ctrBase, stable.Seq
	}
	maxSeq := p.LowWatermark
	for i := range pps {
		if pps[i].Seq > maxSeq {
			maxSeq = pps[i].Seq
		}
		if p.Primary(view) == p.ID {
			p.record(pps[i].View, pps[i].Seq, pps[i].Digest)
		}
	}
	if maxSeq > p.nextSeq {
		p.nextSeq = maxSeq
	}
	if p.nextSeq < p.LowWatermark {
		p.nextSeq = p.LowWatermark
	}
	p.gc()
	for target := range p.viewChanges {
		if target <= view {
			delete(p.viewChanges, target)
		}
	}
}

// onCheckpointGC is the duplicated checkpoint handler (9).
func (p *Compartment) onCheckpointGC(host tee.Host, c *messages.Checkpoint) {
	cert := p.OnCheckpoint(host, c)
	if cert == nil {
		return
	}
	if p.AdvanceStable(*cert) {
		if p.nextSeq < p.LowWatermark {
			p.nextSeq = p.LowWatermark
		}
		p.gc()
	}
}

// gc prunes proposals at or below the watermark.
func (p *Compartment) gc() {
	for view, vs := range p.proposals {
		for seq := range vs {
			if seq <= p.LowWatermark {
				delete(vs, seq)
			}
		}
		if len(vs) == 0 {
			delete(p.proposals, view)
		}
	}
}

// ExportState implements tee.Durable. The proposal record is the
// safety-critical part: a primary that forgot what it proposed could
// equivocate after a restart.
func (p *Compartment) ExportState() []byte {
	e := p.BeginExport()
	e.U64(p.nextSeq)
	// Trusted-counter position (zero in classic mode): restoring it before
	// WAL replay keeps the counter and the sequence space in lockstep — the
	// replayed proposals re-create their attestations deterministically from
	// here, landing the counter exactly where the fsynced log ends.
	var ctr uint64
	if p.counter != nil {
		ctr = p.counter.Export()
	}
	e.U64(ctr)
	e.U32(uint32(len(p.proposals)))
	for view, vs := range p.proposals {
		e.U64(view)
		e.U32(uint32(len(vs)))
		for seq, digest := range vs {
			e.U64(seq)
			e.Digest(digest)
		}
	}
	if p.lastNewView != nil {
		e.Bool(true)
		e.VarMessage(p.lastNewView)
	} else {
		e.Bool(false)
	}
	return p.EndExport(e)
}

// ImportState implements tee.Durable.
func (p *Compartment) ImportState(data []byte) error {
	d, err := p.BeginImport(data, "preparation")
	if err != nil {
		return err
	}
	p.nextSeq = d.U64()
	if ctr := d.U64(); p.counter != nil {
		p.counter.Import(ctr)
	}
	p.proposals = make(map[uint64]map[uint64]crypto.Digest)
	nViews := d.Count(1 << 16)
	for i := 0; i < nViews; i++ {
		view := d.U64()
		vs := make(map[uint64]crypto.Digest)
		nSeqs := d.Count(1 << 20)
		for j := 0; j < nSeqs; j++ {
			seq := d.U64()
			vs[seq] = d.Digest()
		}
		p.proposals[view] = vs
	}
	p.viewChanges = make(map[uint64]map[uint32]*messages.ViewChange)
	p.lastNewView = nil
	if d.Bool() {
		nv, err := compartment.DecodeMessage[*messages.NewView](d)
		if err != nil {
			return err
		}
		p.lastNewView = nv
	}
	return d.Finish()
}
