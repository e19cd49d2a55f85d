// Package confirmation is the Confirmation compartment (§3.2), one enclave
// of a SplitBFT replica.
package confirmation

import (
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// confSlot is one (view, seq) entry in the Confirmation compartment's input
// log: the PrePrepare (stripped of request bodies) plus the Prepares
// collected towards a prepare certificate.
type confSlot struct {
	prePrepare *messages.PrePrepare
	prepares   map[uint32]*messages.Prepare
	committed  bool
}

// Compartment is the Confirmation compartment (§3.2): it confirms that a
// batch was prepared by a quorum — event handler (3), waiting for one
// PrePrepare plus 2f matching Prepares before emitting a Commit — and it
// initiates view changes (5). Per principle P5 its only cross-compartment
// transition, the Commit, rides on a full prepare certificate.
type Compartment struct {
	compartment.State

	slots map[uint64]map[uint64]*confSlot // view → seq → slot
	// inViewChange is set after sending a ViewChange: the compartment then
	// no longer processes Prepares or sends Commits in the old view (§4.4).
	inViewChange bool
	// myVC is the last ViewChange we sent; it is rebroadcast when the
	// environment re-suspects while the view change is still incomplete
	// (the NewView may have been lost on an unreliable network).
	myVC *messages.ViewChange
	// vcResends counts rebroadcasts since myVC was created. Escalation to
	// the next view happens only after 2<<vcBackoff resends — exponential
	// backoff per view, so chasing views eventually converge (as in PBFT's
	// doubling view-change timeout).
	vcResends int
	vcBackoff uint
	// vcSeen tracks which replicas demanded which views, for the f+1 join
	// rule (liveness).
	vcSeen map[uint64]map[uint32]bool
	// highCtr is the highest trusted-counter value among accepted
	// PrePrepares (trusted consensus mode); it rides on our ViewChanges so
	// a new primary can see how far the old leader's gap-free assignment
	// got, and is persisted so a recovered replica never understates it.
	highCtr uint64
}

// New builds the Confirmation compartment of replica cfg.ID.
func New(cfg compartment.Config, ver *messages.Verifier) *Compartment {
	return &Compartment{
		State:  compartment.NewState(cfg, ver),
		slots:  make(map[uint64]map[uint64]*confSlot),
		vcSeen: make(map[uint64]map[uint32]bool),
	}
}

// Measurement implements tee.Code.
func (c *Compartment) Measurement() crypto.Digest { return compartment.Measure("confirmation") }

// HandleECall implements tee.Code.
func (c *Compartment) HandleECall(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) == 0 || raw[0] != compartment.EcallMessage {
		return nil
	}
	m, err := messages.Unmarshal(raw[1:])
	if err != nil {
		return nil
	}
	switch msg := m.(type) {
	case *messages.PrePrepare:
		return c.onPrePrepare(host, msg)
	case *messages.Prepare:
		return c.onPrepare(host, msg)
	case *messages.Suspect:
		return c.onSuspect(host, msg)
	case *messages.ViewChange:
		return c.onPeerViewChange(host, msg)
	case *messages.NewView:
		return c.onNewView(host, msg)
	case *messages.StateProbe:
		return c.onStateProbe(host, msg)
	case *messages.Checkpoint:
		c.onCheckpointGC(host, msg)
	}
	return nil
}

func (c *Compartment) slot(view, seq uint64) *confSlot {
	vs, ok := c.slots[view]
	if !ok {
		vs = make(map[uint64]*confSlot)
		c.slots[view] = vs
	}
	s, ok := vs[seq]
	if !ok {
		s = &confSlot{prepares: make(map[uint32]*messages.Prepare)}
		vs[seq] = s
	}
	return s
}

// onPrePrepare records the proposal side of a prepare certificate. The
// Confirmation compartment receives every PrePrepare duplicated into its
// input log (§3.2) and keeps only the header, but it admits a proposal only
// with its request bodies: the MACs and the counter attestation cover the
// header alone, and in trusted mode no Prepare round stands between this
// check and the Commit, so a primary that stripped the batch would have
// correct replicas commit a digest no Execution can obtain. Live
// PrePrepares always carry their batch.
func (c *Compartment) onPrePrepare(host tee.Host, pp *messages.PrePrepare) []tee.OutMsg {
	if pp.View != c.View || c.inViewChange || !c.InWindow(pp.Seq) {
		return nil
	}
	if err := c.Ver.VerifyPrePrepare(pp, true); err != nil {
		return nil
	}
	if c.TrustedMode() {
		// The counter attestation replaces the Prepare quorum: only a
		// proposal satisfying the view's affine assignment law enters the
		// slot, and maybeCommit then needs no Prepares at all. Equivocation
		// cannot land — two digests at one slot would need the same counter
		// value twice, which the counter enclave never signs.
		if err := c.Ver.VerifyCounterAt(pp, c.CtrBase, c.SeqBase); err != nil {
			return nil
		}
	}
	s := c.slot(pp.View, pp.Seq)
	if s.prePrepare != nil {
		return nil // first proposal wins; equivocation costs liveness only
	}
	s.prePrepare = pp.StripBatch()
	if pp.CtrVal > c.highCtr {
		c.highCtr = pp.CtrVal
	}
	return c.maybeCommit(host, pp.View, pp.Seq)
}

// onPrepare collects Prepares from Preparation enclaves (event handler 3).
// In trusted consensus mode the phase does not exist: correct replicas never
// send Prepares and received ones are dropped unverified.
func (c *Compartment) onPrepare(host tee.Host, p *messages.Prepare) []tee.OutMsg {
	if c.TrustedMode() || p.View != c.View || c.inViewChange || !c.InWindow(p.Seq) {
		return nil
	}
	s := c.slot(p.View, p.Seq)
	// Cheap redundancy checks before the expensive signature verification:
	// a sender slot is only ever occupied by a previously verified Prepare,
	// a committed slot already holds a full certificate (prepareCerts caps
	// at 2f Prepares, so late extras can never be needed again), and a
	// Prepare for another digest than the accepted proposal's can never
	// count — the first proposal wins the slot.
	if _, dup := s.prepares[p.Replica]; dup || s.committed {
		return nil
	}
	if s.prePrepare != nil && p.Digest != s.prePrepare.Digest {
		return nil
	}
	if err := c.Ver.VerifyPrepare(p); err != nil {
		return nil
	}
	s.prepares[p.Replica] = p
	return c.maybeCommit(host, p.View, p.Seq)
}

// maybeCommit emits the Commit once the slot holds a full prepare
// certificate: one PrePrepare plus 2f matching Prepares from distinct
// Preparation enclaves (P5: quorum-gated transition). In trusted consensus
// mode the counter-verified PrePrepare alone is the certificate — onPrePrepare
// only admits proposals passing the affine assignment law, so the Prepare
// round (and its all-to-all traffic plus verification) is skipped entirely.
func (c *Compartment) maybeCommit(host tee.Host, view, seq uint64) []tee.OutMsg {
	s := c.slot(view, seq)
	if s.committed || s.prePrepare == nil {
		return nil
	}
	need := 2 * c.F
	if c.TrustedMode() {
		need = 0
	}
	matching := 0
	for _, p := range s.prepares {
		if p.Digest == s.prePrepare.Digest {
			matching++
		}
	}
	if matching < need {
		return nil
	}
	s.committed = true
	cm := &messages.Commit{View: view, Seq: seq, Digest: s.prePrepare.Digest, Replica: c.ID}
	cm.Sig, cm.Auth = c.Authenticate(host, cm)
	// The copy for this replica's own Execution goes first (see localFirst)
	// and carries the hop authenticator beside the signature: Execution
	// consumes Commits and hands none on, so over the in-machine hop a
	// pairwise MAC is all the proof it needs (Verifier.HopAuth).
	own := *cm
	own.Auth = c.Ver.HopAuth(cm, cm.Auth, crypto.RoleExecution)
	return []tee.OutMsg{
		compartment.LocalOut(crypto.RoleExecution, &own),
		compartment.BroadcastOut(cm),
	}
}

// onSuspect is the view-change trigger (event handler 5): the environment's
// request timer expired. Suspect messages are unauthenticated — a forged
// one can only force an unnecessary view change (liveness), never break
// safety. The ViewChange carries the stable checkpoint certificate and all
// prepare certificates from in_conf.
func (c *Compartment) onSuspect(host tee.Host, s *messages.Suspect) []tee.OutMsg {
	if c.inViewChange {
		// Still waiting for a NewView: resend our ViewChange (it or the
		// NewView may have been dropped); escalate only after the backoff
		// threshold (the new primary itself may be faulty).
		backoff := c.vcBackoff
		if backoff > 5 {
			backoff = 5
		}
		if c.vcResends < 2<<backoff && c.myVC != nil {
			c.vcResends++
			return []tee.OutMsg{
				compartment.BroadcastOut(c.myVC),
				compartment.LocalOut(crypto.RolePreparation, c.myVC),
			}
		}
		c.vcBackoff++
		return c.startViewChange(host, c.View+1)
	}
	if s.View < c.View {
		return nil
	}
	return c.startViewChange(host, c.View+1)
}

func (c *Compartment) startViewChange(host tee.Host, target uint64) []tee.OutMsg {
	vc := &messages.ViewChange{
		NewViewNum: target,
		Stable:     c.StableCert,
		Prepared:   c.prepareCerts(host),
		Replica:    c.ID,
		HighCtr:    c.highCtr,
	}
	// The ViewChange itself always carries an Ed25519 signature: it is
	// embedded wholesale in NewViews and must be third-party verifiable
	// even on the MAC fast path.
	vc.Sig = host.Sign(vc.SigningBytes())
	// Upon sending the ViewChange the enclave increases its view and stops
	// processing Prepares or sending Commits in the old view (§4.4).
	c.View = target
	c.inViewChange = true
	c.myVC = vc
	c.vcResends = 0
	return []tee.OutMsg{
		compartment.BroadcastOut(vc),
		compartment.LocalOut(crypto.RolePreparation, vc),
	}
}

// prepareCerts extracts prepare certificates for every slot above the
// stable checkpoint that reached a certificate, best view per sequence.
// In MAC mode what this enclave accepted — the Prepares in classic, the
// counter attestation in trusted consensus — was MAC'd to it alone, so the
// cert is the bare proposal header plus this enclave's signature over the
// aggregated claim ("a prepare certificate for (view, seq, digest)
// exists"). In sig mode the cert carries the transferable evidence itself:
// the signed proposal and the 2f signed Prepares.
func (c *Compartment) prepareCerts(host tee.Host) []messages.PrepareCert {
	best := make(map[uint64]*messages.PrepareCert)
	for _, vs := range c.slots {
		for seq, s := range vs {
			if seq <= c.LowWatermark || s.prePrepare == nil {
				continue
			}
			matching := 0
			for _, p := range s.prepares {
				if p.Digest == s.prePrepare.Digest {
					matching++
				}
			}
			if !c.TrustedMode() && matching < 2*c.F {
				continue
			}
			var pc *messages.PrepareCert
			if c.MACMode() {
				pc = &messages.PrepareCert{
					PrePrepare: *s.prePrepare.StripAuth(),
					Attestor:   c.ID,
				}
				pc.Vouch = host.Sign(messages.PrepareCertClaim(pc.View(), pc.Seq(), pc.Digest()))
			} else {
				pc = &messages.PrepareCert{PrePrepare: *s.prePrepare}
				for _, p := range s.prepares {
					if p.Digest == s.prePrepare.Digest && len(pc.Prepares) < 2*c.F {
						pc.Prepares = append(pc.Prepares, *p)
					}
				}
			}
			if cur, ok := best[seq]; !ok || pc.View() > cur.View() {
				best[seq] = pc
			}
		}
	}
	out := make([]messages.PrepareCert, 0, len(best))
	for _, pc := range best {
		out = append(out, *pc)
	}
	// Insertion sort by sequence number (small sets).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq() < out[j-1].Seq(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// probeTailBudget caps how many committed slots one StateProbe answer
// re-sends Commits for. A gap this path serves is by construction smaller
// than one checkpoint interval (anything larger has a stable checkpoint
// the Execution compartment answers with a snapshot), so the cap is slack;
// it only bounds the reply to a forged probe claiming Have far in the past.
const probeTailBudget = 64

// onStateProbe closes sub-checkpoint outage tails. A recovered replica whose
// StateProbe has Have below slots this compartment already committed cannot
// be served by state transfer — no checkpoint newer than Have is stable —
// and on an idle cluster no traffic re-delivers the missed Commits. The
// input log still holds every committed slot above the watermark, so
// re-issue our Commit for each gap slot directly to the prober: once 2f+1
// Confirmation enclaves have answered, the prober holds full commit
// certificates and fetches the missing bodies over the (self-certifying)
// BatchReply path. Re-issued Commits are authenticated exactly like live
// ones, so a forged probe yields nothing a retransmission wouldn't.
func (c *Compartment) onStateProbe(host tee.Host, p *messages.StateProbe) []tee.OutMsg {
	if int(p.Replica) >= c.N || p.Replica == c.ID || c.inViewChange {
		return nil
	}
	// Best (highest) view per committed sequence above the prober's
	// execution point — the same preference rule prepareCerts applies.
	type tailSlot struct {
		view   uint64
		digest crypto.Digest
	}
	best := make(map[uint64]tailSlot)
	for view, vs := range c.slots {
		for seq, s := range vs {
			if seq <= p.Have || !s.committed || s.prePrepare == nil {
				continue
			}
			if cur, ok := best[seq]; !ok || view > cur.view {
				best[seq] = tailSlot{view: view, digest: s.prePrepare.Digest}
			}
		}
	}
	if len(best) == 0 {
		return nil
	}
	seqs := make([]uint64, 0, len(best))
	for seq := range best {
		seqs = append(seqs, seq)
	}
	// Insertion sort by sequence number (small sets): execution consumes
	// slots strictly in order, so ascending delivery avoids re-stalls.
	for i := 1; i < len(seqs); i++ {
		for j := i; j > 0 && seqs[j] < seqs[j-1]; j-- {
			seqs[j], seqs[j-1] = seqs[j-1], seqs[j]
		}
	}
	if len(seqs) > probeTailBudget {
		seqs = seqs[:probeTailBudget]
	}
	out := make([]tee.OutMsg, 0, len(seqs))
	for _, seq := range seqs {
		ts := best[seq]
		cm := &messages.Commit{View: ts.view, Seq: seq, Digest: ts.digest, Replica: c.ID}
		cm.Sig, cm.Auth = c.Authenticate(host, cm)
		out = append(out, compartment.ReplicaOut(p.Replica, cm))
	}
	return out
}

// onPeerViewChange implements the f+1 join rule: when more than f distinct
// replicas demand views above ours, join the smallest to preserve liveness.
func (c *Compartment) onPeerViewChange(host tee.Host, vc *messages.ViewChange) []tee.OutMsg {
	if vc.NewViewNum <= c.View {
		return nil
	}
	if err := c.Ver.VerifyViewChange(vc); err != nil {
		return nil
	}
	set, ok := c.vcSeen[vc.NewViewNum]
	if !ok {
		set = make(map[uint32]bool)
		c.vcSeen[vc.NewViewNum] = set
	}
	set[vc.Replica] = true
	distinct := make(map[uint32]bool)
	minTarget := vc.NewViewNum
	for target, ids := range c.vcSeen {
		if target <= c.View {
			continue
		}
		for id := range ids {
			distinct[id] = true
		}
		if target < minTarget {
			minTarget = target
		}
	}
	if len(distinct) > c.F {
		return c.startViewChange(host, minTarget)
	}
	return nil
}

// onNewView applies the checkpoint and view number from a NewView without
// recomputing the re-issued PrePrepares from the ViewChanges — the paper's
// corner case: a NewView with false PrePrepares is accepted here but not by
// the Preparation compartment, and commits still need full prepare
// certificates (2f Prepares from correct Preparation enclaves), so safety
// holds (§4). The re-issued PrePrepares are ingested into the input log
// (after per-message signature checks) so the prepare certificates of the
// new view can complete.
func (c *Compartment) onNewView(host tee.Host, nv *messages.NewView) []tee.OutMsg {
	if c.TrustedMode() && nv.View >= c.View {
		// With direct commits there are no Prepare votes from correct
		// Preparation enclaves to filter false re-issues, so the paper's
		// corner case no longer protects this compartment: it must validate
		// the NewView fully itself — including the recomputation from the
		// ViewChanges and the counter attestation on every re-issued slot —
		// before any re-issue can reach maybeCommit.
		if err := c.Ver.VerifyNewView(nv); err != nil {
			return nil
		}
	}
	if !c.ApplyNewViewCheckpoint(nv) {
		return nil
	}
	c.inViewChange = false
	c.vcBackoff = 0
	c.gc()
	for target := range c.vcSeen {
		if target <= c.View {
			delete(c.vcSeen, target)
		}
	}
	var out []tee.OutMsg
	for i := range nv.PrePrepares {
		pp := &nv.PrePrepares[i]
		if pp.View != c.View || !c.InWindow(pp.Seq) {
			continue
		}
		// Re-issued proposals are validated like live ones in sig mode; in
		// MAC mode they carry no per-message authenticator and ride on the
		// NewView signature checked in applyNewViewCheckpoint above.
		if err := c.Ver.VerifyReissuedPrePrepare(pp); err != nil {
			continue
		}
		s := c.slot(pp.View, pp.Seq)
		if s.prePrepare == nil {
			s.prePrepare = pp.StripBatch()
			if pp.CtrVal > c.highCtr {
				c.highCtr = pp.CtrVal
			}
			out = append(out, c.maybeCommit(host, pp.View, pp.Seq)...)
		}
	}
	return out
}

// onCheckpointGC is the duplicated checkpoint handler (9).
func (c *Compartment) onCheckpointGC(host tee.Host, cp *messages.Checkpoint) {
	cert := c.OnCheckpoint(host, cp)
	if cert == nil {
		return
	}
	if c.AdvanceStable(*cert) {
		c.gc()
	}
}

// gc prunes slots at or below the watermark.
func (c *Compartment) gc() {
	for view, vs := range c.slots {
		for seq := range vs {
			if seq <= c.LowWatermark {
				delete(vs, seq)
			}
		}
		if len(vs) == 0 {
			delete(c.slots, view)
		}
	}
}

// ExportState implements tee.Durable. Slots carry the prepare
// certificates this compartment would contribute to a view change;
// dropping them across a restart could hide a prepared batch from the new
// primary.
func (c *Compartment) ExportState() []byte {
	e := c.BeginExport()
	e.U64(c.highCtr)
	e.Bool(c.inViewChange)
	if c.myVC != nil {
		e.Bool(true)
		e.VarMessage(c.myVC)
	} else {
		e.Bool(false)
	}
	nSlots := 0
	for _, vs := range c.slots {
		nSlots += len(vs)
	}
	e.U32(uint32(nSlots))
	for view, vs := range c.slots {
		for seq, s := range vs {
			e.U64(view)
			e.U64(seq)
			e.Bool(s.committed)
			if s.prePrepare != nil {
				e.Bool(true)
				e.VarMessage(s.prePrepare)
			} else {
				e.Bool(false)
			}
			e.U32(uint32(len(s.prepares)))
			for _, prep := range s.prepares {
				e.VarMessage(prep)
			}
		}
	}
	return c.EndExport(e)
}

// ImportState implements tee.Durable.
func (c *Compartment) ImportState(data []byte) error {
	d, err := c.BeginImport(data, "confirmation")
	if err != nil {
		return err
	}
	c.highCtr = d.U64()
	c.inViewChange = d.Bool()
	c.myVC = nil
	c.vcResends = 0
	c.vcBackoff = 0
	if d.Bool() {
		vc, err := compartment.DecodeMessage[*messages.ViewChange](d)
		if err != nil {
			return err
		}
		c.myVC = vc
	}
	c.slots = make(map[uint64]map[uint64]*confSlot)
	c.vcSeen = make(map[uint64]map[uint32]bool)
	nSlots := d.Count(1 << 20)
	for i := 0; i < nSlots; i++ {
		view := d.U64()
		seq := d.U64()
		s := &confSlot{prepares: make(map[uint32]*messages.Prepare)}
		s.committed = d.Bool()
		if d.Bool() {
			pp, err := compartment.DecodeMessage[*messages.PrePrepare](d)
			if err != nil {
				return err
			}
			s.prePrepare = pp
		}
		nPreps := d.Count(1 << 12)
		for j := 0; j < nPreps; j++ {
			prep, err := compartment.DecodeMessage[*messages.Prepare](d)
			if err != nil {
				return err
			}
			s.prepares[prep.Replica] = prep
		}
		vs, ok := c.slots[view]
		if !ok {
			vs = make(map[uint64]*confSlot)
			c.slots[view] = vs
		}
		vs[seq] = s
	}
	return d.Finish()
}
