package messages

import (
	"github.com/splitbft/splitbft/internal/crypto"
)

// Checkpoint attests that the sender's application state at sequence number
// Seq has digest StateDigest. A quorum of 2f+1 matching Checkpoints forms a
// stable checkpoint certificate that allows garbage collection (§4.3).
type Checkpoint struct {
	Seq         uint64
	StateDigest crypto.Digest
	Replica     uint32
	Sig         []byte
	// Auth is the MAC-mode authenticator vector, laid out per
	// AgreementAuthReceivers(TCheckpoint, n): every compartment of every
	// replica runs the duplicated checkpoint handler. Empty in sig mode.
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*Checkpoint) MsgType() Type { return TCheckpoint }

// SigningBytes returns the bytes the signature covers.
func (c *Checkpoint) SigningBytes() []byte { return signingBytes(c) }

// AppendSigning implements Signable.
func (c *Checkpoint) AppendSigning(e *Encoder) {
	e.U8(uint8(TCheckpoint))
	e.U64(c.Seq)
	e.Digest(c.StateDigest)
	e.U32(c.Replica)
}

func (c *Checkpoint) encodeBody(e *Encoder) {
	e.U64(c.Seq)
	e.Digest(c.StateDigest)
	e.U32(c.Replica)
	e.VarBytes(c.Sig)
	e.Auth(c.Auth)
}

func (c *Checkpoint) decodeBody(d *Decoder) {
	c.Seq = d.U64()
	c.StateDigest = d.Digest()
	c.Replica = d.U32()
	c.Sig = d.VarBytes()
	c.Auth = d.Auth()
}

// PrepareCert is a prepare certificate: proof that a batch was prepared at
// (View, Seq), the unit carried by ViewChange messages. Its shape depends
// on the agreement authentication mode:
//
//   - Sig mode: one PrePrepare (request bodies stripped) plus 2f matching
//     Prepares from distinct replicas, each individually signed and
//     third-party verifiable.
//   - MAC mode: the bare PrePrepare header plus a single Vouch — the
//     Confirmation enclave that locally validated the MAC'd evidence (the
//     Prepare quorum in classic consensus, the counter attestation in
//     trusted) signs the aggregated claim (PrepareCertClaim). Sound
//     because an attested agreement enclave is trusted to check it
//     correctly.
type PrepareCert struct {
	PrePrepare PrePrepare
	Prepares   []Prepare
	// Attestor identifies the replica whose Confirmation enclave signed
	// Vouch (MAC mode only).
	Attestor uint32
	Vouch    []byte
}

// View returns the certificate's view.
func (pc *PrepareCert) View() uint64 { return pc.PrePrepare.View }

// Seq returns the certificate's sequence number.
func (pc *PrepareCert) Seq() uint64 { return pc.PrePrepare.Seq }

// Digest returns the certified batch digest.
func (pc *PrepareCert) Digest() crypto.Digest { return pc.PrePrepare.Digest }

func (pc *PrepareCert) encode(e *Encoder) {
	pc.PrePrepare.encodeBody(e)
	e.U32(uint32(len(pc.Prepares)))
	for i := range pc.Prepares {
		pc.Prepares[i].encodeBody(e)
	}
	e.U32(pc.Attestor)
	e.VarBytes(pc.Vouch)
}

func (pc *PrepareCert) decode(d *Decoder) {
	pc.PrePrepare.decodeBody(d)
	n := d.Count(maxVotes)
	if n > 0 {
		pc.Prepares = make([]Prepare, n)
		for i := 0; i < n; i++ {
			pc.Prepares[i].decodeBody(d)
		}
	}
	pc.Attestor = d.U32()
	pc.Vouch = d.VarBytes()
}

// CheckpointCert is a stable-checkpoint certificate. In sig mode Proof
// carries 2f+1 matching signed Checkpoints from distinct replicas; in MAC
// mode the compartment that locally validated the MAC'd quorum signs the
// aggregated claim instead (CheckpointCertClaim) — Proof stays empty and
// Vouch/Attestor/AttestorRole identify the single attesting enclave.
type CheckpointCert struct {
	Seq         uint64
	StateDigest crypto.Digest
	Proof       []Checkpoint
	// Attestor/AttestorRole identify the enclave that signed Vouch (MAC
	// mode only). Any of the three compartment roles may attest: each runs
	// the duplicated checkpoint handler and forms its own stable cert.
	Attestor     uint32
	AttestorRole uint8
	Vouch        []byte
}

func (cc *CheckpointCert) encode(e *Encoder) {
	e.U64(cc.Seq)
	e.Digest(cc.StateDigest)
	e.U32(uint32(len(cc.Proof)))
	for i := range cc.Proof {
		cc.Proof[i].encodeBody(e)
	}
	e.U32(cc.Attestor)
	e.U8(cc.AttestorRole)
	e.VarBytes(cc.Vouch)
}

// AppendCert appends the standalone encoding of the certificate to dst, for
// the compartment state export (internal/compartment's State.BeginExport).
// Certificates embedded in wire messages are encoded inline instead.
func (cc *CheckpointCert) AppendCert(dst []byte) []byte {
	e := Encoder{buf: dst}
	cc.encode(&e)
	return e.buf
}

// UnmarshalCheckpointCert reverses AppendCert.
func UnmarshalCheckpointCert(data []byte) (CheckpointCert, error) {
	d := NewDecoder(data)
	var cc CheckpointCert
	cc.decode(d)
	if err := d.Finish(); err != nil {
		return CheckpointCert{}, err
	}
	return cc, nil
}

func (cc *CheckpointCert) decode(d *Decoder) {
	cc.Seq = d.U64()
	cc.StateDigest = d.Digest()
	n := d.Count(maxVotes)
	if n > 0 {
		cc.Proof = make([]Checkpoint, n)
		for i := 0; i < n; i++ {
			cc.Proof[i].decodeBody(d)
		}
	}
	cc.Attestor = d.U32()
	cc.AttestorRole = d.U8()
	cc.Vouch = d.VarBytes()
}

// ViewChange announces that the sender wants to move to view NewViewNum. It
// carries the sender's latest stable checkpoint certificate and every
// prepare certificate above it, so the new primary can re-propose prepared
// batches (§4.4). In SplitBFT the Confirmation compartment sends it.
type ViewChange struct {
	NewViewNum uint64
	Stable     CheckpointCert
	Prepared   []PrepareCert
	Replica    uint32
	// HighCtr is the highest trusted-counter value among the PrePrepares
	// this replica accepted (trusted consensus mode only; zero in classic).
	// It must cover every certificate in Prepared — a ViewChange claiming a
	// counter position below its own certificates is stale and rejected —
	// so a new primary can see how far the previous leader's gap-free
	// assignment got.
	HighCtr uint64
	Sig     []byte
}

// MsgType implements Message.
func (*ViewChange) MsgType() Type { return TViewChange }

// SigningBytes returns the bytes the signature covers: everything except
// the signature itself.
func (v *ViewChange) SigningBytes() []byte {
	e := NewEncoder(256)
	e.U8(uint8(TViewChange))
	v.encodeUnsigned(e)
	return e.Bytes()
}

func (v *ViewChange) encodeUnsigned(e *Encoder) {
	e.U64(v.NewViewNum)
	v.Stable.encode(e)
	e.U32(uint32(len(v.Prepared)))
	for i := range v.Prepared {
		v.Prepared[i].encode(e)
	}
	e.U32(v.Replica)
	e.U64(v.HighCtr)
}

func (v *ViewChange) encodeBody(e *Encoder) {
	v.encodeUnsigned(e)
	e.VarBytes(v.Sig)
}

func (v *ViewChange) decodeBody(d *Decoder) {
	v.NewViewNum = d.U64()
	v.Stable.decode(d)
	n := d.Count(maxSlots)
	if n > 0 {
		v.Prepared = make([]PrepareCert, n)
		for i := 0; i < n; i++ {
			v.Prepared[i].decode(d)
		}
	}
	v.Replica = d.U32()
	v.HighCtr = d.U64()
	v.Sig = d.VarBytes()
}

// NewView is the new primary's view installation message. It proves the
// view change with 2f+1 ViewChanges, distributes the highest stable
// checkpoint, and re-issues PrePrepares for every prepared-but-unexecuted
// batch.
type NewView struct {
	View        uint64
	ViewChanges []ViewChange
	Stable      CheckpointCert
	PrePrepares []PrePrepare
	Replica     uint32
	// CtrBase is the new primary's trusted-counter position when it built
	// this NewView (trusted consensus mode only; zero in classic). The
	// re-issued PrePrepares consume CtrBase+1..CtrBase+k in sequence order,
	// and every later proposal in the view must satisfy
	// CtrVal = CtrBase + (Seq - Stable.Seq) — the affine law replicas
	// enforce, which is what makes slot reuse and slot skipping by the new
	// leader detectable.
	CtrBase uint64
	Sig     []byte
}

// MsgType implements Message.
func (*NewView) MsgType() Type { return TNewView }

// SigningBytes returns the bytes the signature covers.
func (nv *NewView) SigningBytes() []byte {
	e := NewEncoder(512)
	e.U8(uint8(TNewView))
	nv.encodeUnsigned(e)
	return e.Bytes()
}

func (nv *NewView) encodeUnsigned(e *Encoder) {
	e.U64(nv.View)
	e.U32(uint32(len(nv.ViewChanges)))
	for i := range nv.ViewChanges {
		nv.ViewChanges[i].encodeBody(e)
	}
	nv.Stable.encode(e)
	e.U32(uint32(len(nv.PrePrepares)))
	for i := range nv.PrePrepares {
		nv.PrePrepares[i].encodeBody(e)
	}
	e.U32(nv.Replica)
	e.U64(nv.CtrBase)
}

func (nv *NewView) encodeBody(e *Encoder) {
	nv.encodeUnsigned(e)
	e.VarBytes(nv.Sig)
}

func (nv *NewView) decodeBody(d *Decoder) {
	nv.View = d.U64()
	n := d.Count(maxVotes)
	if n > 0 {
		nv.ViewChanges = make([]ViewChange, n)
		for i := 0; i < n; i++ {
			nv.ViewChanges[i].decodeBody(d)
		}
	}
	nv.Stable.decode(d)
	m := d.Count(maxSlots)
	if m > 0 {
		nv.PrePrepares = make([]PrePrepare, m)
		for i := 0; i < m; i++ {
			nv.PrePrepares[i].decodeBody(d)
		}
	}
	nv.Replica = d.U32()
	nv.CtrBase = d.U64()
	nv.Sig = d.VarBytes()
}

// StateRequest asks a peer for an application snapshot at or above Seq, used
// by lagging replicas after missing a stable checkpoint.
type StateRequest struct {
	Seq     uint64
	Replica uint32
}

// MsgType implements Message.
func (*StateRequest) MsgType() Type { return TStateRequest }

func (s *StateRequest) encodeBody(e *Encoder) {
	e.U64(s.Seq)
	e.U32(s.Replica)
}

func (s *StateRequest) decodeBody(d *Decoder) {
	s.Seq = d.U64()
	s.Replica = d.U32()
}

// StateReply carries an application snapshot together with the checkpoint
// certificate proving its digest; the receiver verifies the snapshot hash
// against the certificate before installing it.
type StateReply struct {
	Cert     CheckpointCert
	Snapshot []byte
	Replica  uint32
}

// MsgType implements Message.
func (*StateReply) MsgType() Type { return TStateReply }

func (s *StateReply) encodeBody(e *Encoder) {
	s.Cert.encode(e)
	e.VarBytes(s.Snapshot)
	e.U32(s.Replica)
}

func (s *StateReply) decodeBody(d *Decoder) {
	s.Cert.decode(d)
	s.Snapshot = d.VarBytes()
	s.Replica = d.U32()
}
