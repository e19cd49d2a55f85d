package compartment

import (
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// State holds the bookkeeping every compartment type maintains
// separately: its own view variable (replicated across compartments per
// §3.2), its own low watermark, and its own collection of Checkpoint
// messages. The paper duplicates the checkpoint and new-view-checkpoint
// handlers (9, 7') in all compartments; this struct is that duplicated
// handler's state, instantiated once per compartment.
type State struct {
	N, F int
	ID   uint32
	// Ver validates inbound messages. Its MACs field holds this compartment
	// enclave's pairwise keys (attested ECDH with every peer compartment),
	// installed by NewReplica after the enclave launches, before traffic: the
	// agreement vectors of MAC mode, the co-located hop of sig mode and the
	// pair-form messages of both are keyed from it.
	Ver *messages.Verifier
	// authRecv caches the per-type MAC receiver layouts (MAC mode only;
	// the layouts are static per deployment size).
	authRecv map[messages.Type][]crypto.Identity

	View         uint64
	LowWatermark uint64
	Window       uint64
	StableCert   messages.CheckpointCert

	// CtrBase/SeqBase pin the trusted-counter affine law of the current
	// view (trusted consensus mode): an acceptable PrePrepare at Seq must
	// carry CtrVal = CtrBase + (Seq - SeqBase). Both start at zero in view
	// 0 — the primary's counter and the sequence space advance in lockstep
	// from genesis — and are re-pinned by every NewView (CtrBase and the
	// stable checkpoint seq).
	CtrBase uint64
	SeqBase uint64

	checkpoints map[uint64]map[uint32]*messages.Checkpoint

	// exportSize is the length of the compartment's previous sealed state
	// export, the next export's buffer size (BeginExport).
	exportSize int
}

// NewState starts a compartment's shared bookkeeping at genesis.
func NewState(cfg Config, ver *messages.Verifier) State {
	return State{
		N: cfg.N, F: cfg.F, ID: cfg.ID, Ver: ver, Window: cfg.WatermarkWindow,
		checkpoints: make(map[uint64]map[uint32]*messages.Checkpoint),
		authRecv:    make(map[messages.Type][]crypto.Identity),
	}
}

// MACMode reports whether agreement traffic uses the MAC fast path.
func (s *State) MACMode() bool { return s.Ver.Mode == messages.AuthMAC }

// TrustedMode reports whether agreement runs the trusted-counter variant.
func (s *State) TrustedMode() bool { return s.Ver.Consensus == messages.ConsensusTrusted }

// authReceivers returns (caching) the MAC-vector layout for a type.
func (s *State) authReceivers(t messages.Type) []crypto.Identity {
	rs, ok := s.authRecv[t]
	if !ok {
		rs = messages.AgreementAuthReceivers(t, s.N)
		s.authRecv[t] = rs
	}
	return rs
}

// Authenticate stamps an outbound agreement message with the proof form its
// type's receivers accept (messages.ProofFormOf): a pair-form message gets
// the one MAC for its addressee in either mode; any other is signed by the
// enclave in sig mode and gets the pairwise authenticator vector for the
// type's receiver set in MAC mode. Exactly one of the two returns is
// non-empty.
func (s *State) Authenticate(host tee.Host, m messages.Signable) ([]byte, crypto.Authenticator) {
	if messages.ProofFormOf(m.MsgType()) == messages.ProofPair {
		return nil, s.Ver.PairAuth(m, messages.PairAddressee(m.(messages.Addressed), s.N))
	}
	e := messages.GetEncoder()
	defer messages.PutEncoder(e)
	m.AppendSigning(e)
	if !s.MACMode() {
		return host.Sign(e.Bytes()), crypto.Authenticator{}
	}
	return nil, s.Ver.MACs.Authenticate(e.Bytes(), s.authReceivers(m.MsgType()))
}

// Quorum is the certificate size: 2f+1 in classic consensus, f+1 in
// trusted consensus (delegated to the verifier, the single source of the
// group-shape rules).
func (s *State) Quorum() int { return s.Ver.Quorum() }

// Primary is the replica whose Preparation compartment leads view.
func (s *State) Primary(view uint64) uint32 { return uint32(view % uint64(s.N)) }

// InWindow reports whether seq is inside the active watermark window.
func (s *State) InWindow(seq uint64) bool {
	return seq > s.LowWatermark && seq <= s.LowWatermark+s.Window
}

// OnCheckpoint is the duplicated checkpoint handler (event handler 9): it
// collects Execution-authenticated Checkpoints and returns a new stable
// certificate once 2f+1 match, or nil. The caller performs its
// compartment-specific GC. In sig mode the certificate bundles the 2f+1
// signed votes; in MAC mode the votes were MAC'd to this compartment
// alone, so the compartment signs the aggregated claim instead — the
// single enclave vouch that makes the cert third-party checkable.
func (s *State) OnCheckpoint(host tee.Host, c *messages.Checkpoint) *messages.CheckpointCert {
	if c.Seq <= s.LowWatermark {
		return nil
	}
	if err := s.Ver.VerifyCheckpoint(c); err != nil {
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
		if len(cps) < s.Quorum() {
			continue
		}
		cert := &messages.CheckpointCert{Seq: c.Seq, StateDigest: digest}
		if s.MACMode() {
			cert.Attestor = s.ID
			cert.AttestorRole = uint8(s.Ver.Self.Role)
			cert.Vouch = host.Sign(messages.CheckpointCertClaim(c.Seq, digest))
		} else {
			for _, cp := range cps[:s.Quorum()] {
				cert.Proof = append(cert.Proof, *cp)
			}
		}
		return cert
	}
	return nil
}

// AdvanceStable installs a stable checkpoint certificate, pruning the
// checkpoint collection. Returns true if the watermark moved.
func (s *State) AdvanceStable(cert messages.CheckpointCert) bool {
	if cert.Seq <= s.LowWatermark {
		return false
	}
	s.LowWatermark = cert.Seq
	s.StableCert = cert
	for seq := range s.checkpoints {
		if seq < cert.Seq {
			delete(s.checkpoints, seq)
		}
	}
	return true
}

// ApplyNewViewCheckpoint is the duplicated new-view checkpoint handler
// (event handler 7'): every compartment validates the stable certificate in
// a NewView and applies it, updating its view if the NewView is newer. The
// PrePrepares in the NewView are NOT validated here — only the Preparation
// compartment does that (§4.4). Returns true if the view advanced.
func (s *State) ApplyNewViewCheckpoint(nv *messages.NewView) bool {
	if nv.View < s.View {
		return false
	}
	// Signature of the new primary's Preparation enclave.
	signer := crypto.Identity{ReplicaID: nv.Replica, Role: crypto.RolePreparation}
	if nv.Replica != s.Primary(nv.View) {
		return false
	}
	if err := s.Ver.VerifySig(signer, nv.SigningBytes(), nv.Sig); err != nil {
		return false
	}
	if err := s.Ver.VerifyCheckpointCert(&nv.Stable); err != nil {
		return false
	}
	advanced := nv.View > s.View || nv.View == s.View
	s.View = nv.View
	s.AdvanceStable(nv.Stable)
	if s.TrustedMode() {
		// Re-pin the affine counter law for the new view: re-issued and
		// subsequent proposals consume nv.CtrBase+1.. from the new
		// primary's counter, sequence-aligned at the stable checkpoint.
		s.CtrBase, s.SeqBase = nv.CtrBase, nv.Stable.Seq
	}
	return advanced
}

// LocalOut builds a DestLocal output message to another compartment on the
// same replica.
func LocalOut(role crypto.Role, m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestLocal, Local: role, Payload: messages.Marshal(m)}
}

// BroadcastOut builds a DestBroadcast output message (network only; local
// copies are emitted explicitly so quorum logic treats them uniformly).
func BroadcastOut(m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestBroadcast, Payload: messages.Marshal(m)}
}

// LocalFirst hands a message this compartment originates to the named
// compartments of its own replica, then to the network. In that order, so
// the replica's own compartments hold a message before any peer can answer
// it: were the wire first, backups could commit and checkpoint a proposal
// under load before the primary's own Confirmation and Execution had been
// given it, and the primary would be state-transferred past its own request.
// It also puts the co-located vote among the first a quorum counts. The
// message is marshalled once: every output carries the same read-only
// payload (see tee.OutMsg).
func LocalFirst(m messages.Message, locals ...crypto.Role) []tee.OutMsg {
	payload := messages.Marshal(m)
	out := make([]tee.OutMsg, 0, len(locals)+1)
	for _, role := range locals {
		out = append(out, tee.OutMsg{Kind: tee.DestLocal, Local: role, Payload: payload})
	}
	return append(out, tee.OutMsg{Kind: tee.DestBroadcast, Payload: payload})
}

// ReplicaOut builds a DestReplica output message.
func ReplicaOut(id uint32, m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestReplica, ID: id, Payload: messages.Marshal(m)}
}

// ClientOut builds a DestClient output message.
func ClientOut(clientID uint32, m messages.Message) tee.OutMsg {
	return tee.OutMsg{Kind: tee.DestClient, ID: clientID, Payload: messages.Marshal(m)}
}
