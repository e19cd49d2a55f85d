package core

import (
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// comState holds the bookkeeping every compartment type maintains
// separately: its own view variable (replicated across compartments per
// §3.2), its own low watermark, and its own collection of Checkpoint
// messages. The paper duplicates the checkpoint and new-view-checkpoint
// handlers (9, 7') in all compartments; this struct is that duplicated
// handler's state, instantiated once per compartment.
type comState struct {
	n, f int
	id   uint32
	// ver validates inbound messages. Its MACs field holds this compartment
	// enclave's pairwise keys (attested ECDH with every peer compartment),
	// installed by NewReplica after the enclave launches, before traffic: the
	// agreement vectors of MAC mode, the co-located hop of sig mode and the
	// pair-form messages of both are keyed from it.
	ver *messages.Verifier
	// authRecv caches the per-type MAC receiver layouts (MAC mode only;
	// the layouts are static per deployment size).
	authRecv map[messages.Type][]crypto.Identity

	view         uint64
	lowWatermark uint64
	window       uint64
	stableCert   messages.CheckpointCert

	// ctrBase/seqBase pin the trusted-counter affine law of the current
	// view (trusted consensus mode): an acceptable PrePrepare at Seq must
	// carry CtrVal = ctrBase + (Seq - seqBase). Both start at zero in view
	// 0 — the primary's counter and the sequence space advance in lockstep
	// from genesis — and are re-pinned by every NewView (CtrBase and the
	// stable checkpoint seq).
	ctrBase uint64
	seqBase uint64

	checkpoints map[uint64]map[uint32]*messages.Checkpoint

	// exportSize is the length of the compartment's previous sealed state
	// export, the next export's buffer size (exportEncoder).
	exportSize int
}

func newComState(n, f int, id uint32, window uint64, ver *messages.Verifier) comState {
	return comState{
		n: n, f: f, id: id, ver: ver, window: window,
		checkpoints: make(map[uint64]map[uint32]*messages.Checkpoint),
		authRecv:    make(map[messages.Type][]crypto.Identity),
	}
}

// macMode reports whether agreement traffic uses the MAC fast path.
func (s *comState) macMode() bool { return s.ver.Mode == messages.AuthMAC }

// trustedMode reports whether agreement runs the trusted-counter variant.
func (s *comState) trustedMode() bool { return s.ver.Consensus == messages.ConsensusTrusted }

// authReceivers returns (caching) the MAC-vector layout for a type.
func (s *comState) authReceivers(t messages.Type) []crypto.Identity {
	rs, ok := s.authRecv[t]
	if !ok {
		rs = messages.AgreementAuthReceivers(t, s.n)
		s.authRecv[t] = rs
	}
	return rs
}

// authenticate stamps an outbound agreement message with the proof form its
// type's receivers accept (messages.ProofFormOf): a pair-form message gets
// the one MAC for its addressee in either mode; any other is signed by the
// enclave in sig mode and gets the pairwise authenticator vector for the
// type's receiver set in MAC mode. Exactly one of the two returns is
// non-empty.
func (s *comState) authenticate(host tee.Host, m messages.Signable) ([]byte, crypto.Authenticator) {
	if messages.ProofFormOf(m.MsgType()) == messages.ProofPair {
		return nil, s.ver.PairAuth(m, messages.PairAddressee(m.(messages.Addressed), s.n))
	}
	e := messages.GetEncoder()
	defer messages.PutEncoder(e)
	m.AppendSigning(e)
	if !s.macMode() {
		return host.Sign(e.Bytes()), crypto.Authenticator{}
	}
	return nil, s.ver.MACs.Authenticate(e.Bytes(), s.authReceivers(m.MsgType()))
}

// quorum is the certificate size: 2f+1 in classic consensus, f+1 in
// trusted consensus (delegated to the verifier, the single source of the
// group-shape rules).
func (s *comState) quorum() int { return s.ver.Quorum() }

func (s *comState) primary(view uint64) uint32 { return uint32(view % uint64(s.n)) }

// inWindow reports whether seq is inside the active watermark window.
func (s *comState) inWindow(seq uint64) bool {
	return seq > s.lowWatermark && seq <= s.lowWatermark+s.window
}

// onCheckpoint is the duplicated checkpoint handler (event handler 9): it
// collects Execution-authenticated Checkpoints and returns a new stable
// certificate once 2f+1 match, or nil. The caller performs its
// compartment-specific GC. In sig mode the certificate bundles the 2f+1
// signed votes; in MAC mode the votes were MAC'd to this compartment
// alone, so the compartment signs the aggregated claim instead — the
// single enclave vouch that makes the cert third-party checkable.
func (s *comState) onCheckpoint(host tee.Host, c *messages.Checkpoint) *messages.CheckpointCert {
	if c.Seq <= s.lowWatermark {
		return nil
	}
	if err := s.ver.VerifyCheckpoint(c); err != nil {
		return nil
	}
	set, ok := s.checkpoints[c.Seq]
	if !ok {
		set = make(map[uint32]*messages.Checkpoint)
		s.checkpoints[c.Seq] = set
	}
	if _, dup := set[c.Replica]; dup {
		return nil
	}
	set[c.Replica] = c
	byDigest := make(map[crypto.Digest][]*messages.Checkpoint)
	for _, cp := range set {
		byDigest[cp.StateDigest] = append(byDigest[cp.StateDigest], cp)
	}
	for digest, cps := range byDigest {
		if len(cps) < s.quorum() {
			continue
		}
		cert := &messages.CheckpointCert{Seq: c.Seq, StateDigest: digest}
		if s.macMode() {
			cert.Attestor = s.id
			cert.AttestorRole = uint8(s.ver.Self.Role)
			cert.Vouch = host.Sign(messages.CheckpointCertClaim(c.Seq, digest))
		} else {
			for _, cp := range cps[:s.quorum()] {
				cert.Proof = append(cert.Proof, *cp)
			}
		}
		return cert
	}
	return nil
}

// advanceStable installs a stable checkpoint certificate, pruning the
// checkpoint collection. Returns true if the watermark moved.
func (s *comState) advanceStable(cert messages.CheckpointCert) bool {
	if cert.Seq <= s.lowWatermark {
		return false
	}
	s.lowWatermark = cert.Seq
	s.stableCert = cert
	for seq := range s.checkpoints {
		if seq < cert.Seq {
			delete(s.checkpoints, seq)
		}
	}
	return true
}

// applyNewViewCheckpoint is the duplicated new-view checkpoint handler
// (event handler 7'): every compartment validates the stable certificate in
// a NewView and applies it, updating its view if the NewView is newer. The
// PrePrepares in the NewView are NOT validated here — only the Preparation
// compartment does that (§4.4). Returns true if the view advanced.
func (s *comState) applyNewViewCheckpoint(nv *messages.NewView) bool {
	if nv.View < s.view {
		return false
	}
	// Signature of the new primary's Preparation enclave.
	signer := crypto.Identity{ReplicaID: nv.Replica, Role: crypto.RolePreparation}
	if nv.Replica != s.primary(nv.View) {
		return false
	}
	if err := s.ver.VerifySig(signer, nv.SigningBytes(), nv.Sig); err != nil {
		return false
	}
	if err := s.ver.VerifyCheckpointCert(&nv.Stable); err != nil {
		return false
	}
	advanced := nv.View > s.view || nv.View == s.view
	s.view = nv.View
	s.advanceStable(nv.Stable)
	if s.trustedMode() {
		// Re-pin the affine counter law for the new view: re-issued and
		// subsequent proposals consume nv.CtrBase+1.. from the new
		// primary's counter, sequence-aligned at the stable checkpoint.
		s.ctrBase, s.seqBase = nv.CtrBase, nv.Stable.Seq
	}
	return advanced
}

// localOut builds a DestLocal output message to another compartment on the
// same replica.
func localOut(role crypto.Role, m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestLocal, Local: role, Payload: messages.Marshal(m)}
}

// broadcastOut builds a DestBroadcast output message (network only; local
// copies are emitted explicitly so quorum logic treats them uniformly).
func broadcastOut(m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestBroadcast, Payload: messages.Marshal(m)}
}

// localFirst hands a message this compartment originates to the named
// compartments of its own replica, then to the network. In that order, so
// the replica's own compartments hold a message before any peer can answer
// it: were the wire first, backups could commit and checkpoint a proposal
// under load before the primary's own Confirmation and Execution had been
// given it, and the primary would be state-transferred past its own request.
// It also puts the co-located vote among the first a quorum counts. The
// message is marshalled once: every output carries the same read-only
// payload (see tee.OutMsg).
func localFirst(m messages.Message, locals ...crypto.Role) []tee.OutMsg {
	payload := messages.Marshal(m)
	out := make([]tee.OutMsg, 0, len(locals)+1)
	for _, role := range locals {
		out = append(out, tee.OutMsg{Kind: tee.DestLocal, Local: role, Payload: payload})
	}
	return append(out, tee.OutMsg{Kind: tee.DestBroadcast, Payload: payload})
}

// replicaOut builds a DestReplica output message.
func replicaOut(id uint32, m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestReplica, ID: id, Payload: messages.Marshal(m)}
}

// clientOut builds a DestClient output message.
func clientOut(clientID uint32, m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestClient, ID: clientID, Payload: messages.Marshal(m)}
}
