package messages

import (
	"fmt"

	"github.com/splitbft/splitbft/internal/crypto"
)

// Type identifies a wire message kind in the envelope header.
type Type uint8

// Wire message types. The numeric values are part of the wire format.
const (
	TRequest Type = iota + 1
	TPrePrepare
	TPrepare
	TCommit
	TReply
	TCheckpoint
	TViewChange
	TNewView
	TAttestRequest
	TAttestQuote
	TProvisionKey
	TStateRequest
	TStateReply
	TSuspect
	TBatchFetch
	TBatchReply
	TStateProbe
	TLeaseGrant
	TReadRequest
	TReadReply
	TLeaseAck
	TReadIndex
	TReadIndexReply
)

// String returns the conventional protocol name for the message type.
func (t Type) String() string {
	switch t {
	case TRequest:
		return "Request"
	case TPrePrepare:
		return "PrePrepare"
	case TPrepare:
		return "Prepare"
	case TCommit:
		return "Commit"
	case TReply:
		return "Reply"
	case TCheckpoint:
		return "Checkpoint"
	case TViewChange:
		return "ViewChange"
	case TNewView:
		return "NewView"
	case TAttestRequest:
		return "AttestRequest"
	case TAttestQuote:
		return "AttestQuote"
	case TProvisionKey:
		return "ProvisionKey"
	case TStateRequest:
		return "StateRequest"
	case TStateReply:
		return "StateReply"
	case TSuspect:
		return "Suspect"
	case TBatchFetch:
		return "BatchFetch"
	case TBatchReply:
		return "BatchReply"
	case TStateProbe:
		return "StateProbe"
	case TLeaseGrant:
		return "LeaseGrant"
	case TReadRequest:
		return "ReadRequest"
	case TReadReply:
		return "ReadReply"
	case TLeaseAck:
		return "LeaseAck"
	case TReadIndex:
		return "ReadIndex"
	case TReadIndexReply:
		return "ReadIndexReply"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ProbePing is the single-byte out-of-band connectivity probe the health
// endpoint sends to each peer replica: it collides with no wire Type, so
// the receiving broker's classify stage drops it as an unknown type
// without decoding anything. Reaching the peer's transport is the whole
// point — a forged or replayed ping can cost bandwidth only.
const ProbePing byte = 0xFE

// Message is implemented by every wire message.
type Message interface {
	// MsgType returns the envelope type tag.
	MsgType() Type
	// encodeBody appends the message body (everything after the type tag).
	encodeBody(e *Encoder)
	// decodeBody parses the message body.
	decodeBody(d *Decoder)
}

// Signable is an agreement message authenticated over a fixed header — by
// the sender's signature, its MAC-mode authenticator vector or its pair MAC,
// as the proof form of its type has it (authRules).
// AppendSigning appends exactly the bytes SigningBytes returns to a
// caller-provided encoder, so hot paths that only sign, MAC or verify the
// bytes can encode them into a pooled buffer (GetEncoder) and allocate
// nothing.
type Signable interface {
	MsgType() Type
	AppendSigning(e *Encoder)
}

// signingBytes is SigningBytes for any Signable: its own allocation, for
// callers that keep the bytes.
func signingBytes(m Signable) []byte {
	e := NewEncoder(64)
	m.AppendSigning(e)
	return e.Bytes()
}

// Request is a client operation submitted for ordering. The Payload is
// opaque to the ordering compartments: for confidential applications it is
// an AES-GCM ciphertext only the Execution enclaves can open.
type Request struct {
	ClientID  uint32
	Timestamp uint64 // client-local sequence number, provides exactly-once
	Payload   []byte
	// Auth carries one MAC per receiver; the receiver layout is fixed per
	// system (see RequestAuthReceivers and BaselineAuthReceivers).
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*Request) MsgType() Type { return TRequest }

// Digest returns the request digest covering the authenticated fields
// (client, timestamp, payload) but not the MAC vector, which differs per
// receiver set.
func (r *Request) Digest() crypto.Digest {
	e := GetEncoder()
	r.encodeAuthenticated(e)
	d := crypto.HashData(e.Bytes())
	PutEncoder(e)
	return d
}

// encodeAuthenticated encodes the fields covered by MACs and digests.
func (r *Request) encodeAuthenticated(e *Encoder) {
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.VarBytes(r.Payload)
}

// AuthenticatedBytes returns the bytes the client MACs are computed over.
func (r *Request) AuthenticatedBytes() []byte {
	e := NewEncoder(16 + len(r.Payload))
	r.encodeAuthenticated(e)
	return e.Bytes()
}

// AppendAuthenticated appends the MAC-covered bytes to a caller-provided
// (typically pooled) encoder — the allocation-free sibling of
// AuthenticatedBytes for per-request hot paths.
func (r *Request) AppendAuthenticated(e *Encoder) {
	r.encodeAuthenticated(e)
}

func (r *Request) encodeBody(e *Encoder) {
	r.encodeAuthenticated(e)
	e.U32(uint32(len(r.Auth.MACs)))
	for _, m := range r.Auth.MACs {
		e.MAC(m)
	}
}

func (r *Request) decodeBody(d *Decoder) {
	r.ClientID = d.U32()
	r.Timestamp = d.U64()
	r.Payload = d.VarBytes()
	n := d.Count(maxVotes)
	if n == 0 {
		return
	}
	r.Auth.MACs = make([][crypto.MACSize]byte, n)
	for i := 0; i < n; i++ {
		r.Auth.MACs[i] = d.MAC()
	}
}

// Batch groups client requests ordered under one sequence number. Batching
// happens in the untrusted environment (paper §3.2) and the batch digest is
// what the agreement protocol orders.
type Batch struct {
	Requests []Request
}

// Digest returns the batch digest: the hash over the ordered request
// digests. Ordering is significant.
func (b *Batch) Digest() crypto.Digest {
	e := GetEncoder()
	for i := range b.Requests {
		d := b.Requests[i].Digest()
		e.Digest(d)
	}
	d := crypto.HashData(e.Bytes())
	PutEncoder(e)
	return d
}

func (b *Batch) encode(e *Encoder) {
	e.U32(uint32(len(b.Requests)))
	for i := range b.Requests {
		b.Requests[i].encodeBody(e)
	}
}

// MarshalBatch encodes a standalone batch, used for the environment's
// NewBatch ecall into the Preparation compartment (batching happens in the
// untrusted environment, §3.2).
func MarshalBatch(b *Batch) []byte {
	e := NewEncoder(256)
	b.encode(e)
	return e.Bytes()
}

// AppendBatch appends the MarshalBatch encoding of b to dst and returns
// the extended slice, for callers framing batches into pooled buffers.
func AppendBatch(dst []byte, b *Batch) []byte {
	e := Encoder{buf: dst}
	b.encode(&e)
	return e.buf
}

// UnmarshalBatch reverses MarshalBatch.
func UnmarshalBatch(data []byte) (*Batch, error) {
	d := NewDecoder(data)
	var b Batch
	b.decode(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &b, nil
}

func (b *Batch) decode(d *Decoder) {
	n := d.Count(maxSlots)
	if n == 0 {
		return
	}
	b.Requests = make([]Request, n)
	for i := 0; i < n; i++ {
		b.Requests[i].decodeBody(d)
	}
}

// PrePrepare is the primary's ordering proposal for one sequence number in
// one view. The signature (or, in MAC mode, the authenticator vector)
// covers (view, seq, digest, replica); the batch body is bound
// transitively through the digest.
type PrePrepare struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest // batch digest
	Replica uint32        // proposing replica (primary of View)
	Batch   Batch         // full requests; may be empty in certificates
	Sig     []byte
	// Auth is the MAC-mode authenticator vector over SigningBytes, laid
	// out per AgreementAuthReceivers(TPrePrepare, n). Empty in sig mode.
	Auth crypto.Authenticator
	// CtrVal/CtrSig bind the proposal to the primary's trusted monotonic
	// counter in trusted consensus mode: CtrSig is the counter enclave's
	// attestation over (Replica, CtrVal, CounterDigest(pp)), the
	// concatenated HMAC vector laid out per CounterAuthReceivers (see
	// Verifier.VerifyCounter). Because
	// the bound digest covers the full signed header, the attestation
	// cannot be replayed for a different view, sequence, batch, or
	// proposer. Zero and empty in classic mode.
	CtrVal uint64
	CtrSig []byte
}

// MsgType implements Message.
func (*PrePrepare) MsgType() Type { return TPrePrepare }

// SigningBytes returns the bytes the signature covers.
func (p *PrePrepare) SigningBytes() []byte { return signingBytes(p) }

// AppendSigning implements Signable.
func (p *PrePrepare) AppendSigning(e *Encoder) {
	e.U8(uint8(TPrePrepare))
	e.U64(p.View)
	e.U64(p.Seq)
	e.Digest(p.Digest)
	e.U32(p.Replica)
}

// StripBatch returns a copy of p without the request bodies, as embedded in
// prepare certificates and ViewChange messages.
func (p *PrePrepare) StripBatch() *PrePrepare {
	cp := *p
	cp.Batch = Batch{}
	return &cp
}

// StripAuth returns a copy of p without batch, signature, authenticator
// vector or counter attestation — the bare header embedded in MAC-mode
// certificates, whose authenticity rides on the certificate vouch instead:
// everything dropped was addressed to the vouching enclave alone. CtrVal
// stays, so a ViewChange's HighCtr claim can be checked against its own
// certificates.
func (p *PrePrepare) StripAuth() *PrePrepare {
	cp := *p
	cp.Batch = Batch{}
	cp.Sig = nil
	cp.Auth = crypto.Authenticator{}
	cp.CtrSig = nil
	return &cp
}

func (p *PrePrepare) encodeBody(e *Encoder) {
	e.U64(p.View)
	e.U64(p.Seq)
	e.Digest(p.Digest)
	e.U32(p.Replica)
	p.Batch.encode(e)
	e.VarBytes(p.Sig)
	e.Auth(p.Auth)
	e.U64(p.CtrVal)
	e.VarBytes(p.CtrSig)
}

func (p *PrePrepare) decodeBody(d *Decoder) {
	p.View = d.U64()
	p.Seq = d.U64()
	p.Digest = d.Digest()
	p.Replica = d.U32()
	p.Batch.decode(d)
	p.Sig = d.VarBytes()
	p.Auth = d.Auth()
	p.CtrVal = d.U64()
	p.CtrSig = d.VarBytes()
}

// Prepare is a backup's vote that it received the primary's PrePrepare for
// (View, Seq, Digest).
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Replica uint32
	Sig     []byte
	// Auth is the MAC-mode authenticator vector (one slot per Confirmation
	// compartment). Empty in sig mode.
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*Prepare) MsgType() Type { return TPrepare }

// SigningBytes returns the bytes the signature covers.
func (p *Prepare) SigningBytes() []byte { return signingBytes(p) }

// AppendSigning implements Signable.
func (p *Prepare) AppendSigning(e *Encoder) {
	e.U8(uint8(TPrepare))
	e.U64(p.View)
	e.U64(p.Seq)
	e.Digest(p.Digest)
	e.U32(p.Replica)
}

func (p *Prepare) encodeBody(e *Encoder) {
	e.U64(p.View)
	e.U64(p.Seq)
	e.Digest(p.Digest)
	e.U32(p.Replica)
	e.VarBytes(p.Sig)
	e.Auth(p.Auth)
}

func (p *Prepare) decodeBody(d *Decoder) {
	p.View = d.U64()
	p.Seq = d.U64()
	p.Digest = d.Digest()
	p.Replica = d.U32()
	p.Sig = d.VarBytes()
	p.Auth = d.Auth()
}

// Commit is a replica's vote that a prepare certificate exists for
// (View, Seq, Digest).
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Replica uint32
	Sig     []byte
	// Auth is the MAC-mode authenticator vector (one slot per Execution
	// compartment). Empty in sig mode.
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*Commit) MsgType() Type { return TCommit }

// SigningBytes returns the bytes the signature covers.
func (c *Commit) SigningBytes() []byte { return signingBytes(c) }

// AppendSigning implements Signable.
func (c *Commit) AppendSigning(e *Encoder) {
	e.U8(uint8(TCommit))
	e.U64(c.View)
	e.U64(c.Seq)
	e.Digest(c.Digest)
	e.U32(c.Replica)
}

func (c *Commit) encodeBody(e *Encoder) {
	e.U64(c.View)
	e.U64(c.Seq)
	e.Digest(c.Digest)
	e.U32(c.Replica)
	e.VarBytes(c.Sig)
	e.Auth(c.Auth)
}

func (c *Commit) decodeBody(d *Decoder) {
	c.View = d.U64()
	c.Seq = d.U64()
	c.Digest = d.Digest()
	c.Replica = d.U32()
	c.Sig = d.VarBytes()
	c.Auth = d.Auth()
}

// Reply carries an execution result back to the client. For confidential
// applications Result is ciphertext under the client's session key. The MAC
// authenticates the reply from the executing enclave to the client.
type Reply struct {
	View      uint64
	ClientID  uint32
	Timestamp uint64
	Replica   uint32
	Result    []byte
	MAC       [crypto.MACSize]byte
}

// MsgType implements Message.
func (*Reply) MsgType() Type { return TReply }

// AuthenticatedBytes returns the bytes the reply MAC covers.
func (r *Reply) AuthenticatedBytes() []byte {
	e := NewEncoder(32 + len(r.Result))
	r.AppendAuthenticated(e)
	return e.Bytes()
}

// AppendAuthenticated appends AuthenticatedBytes to a caller-provided
// (typically pooled) encoder.
func (r *Reply) AppendAuthenticated(e *Encoder) {
	e.U8(uint8(TReply))
	e.U64(r.View)
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.U32(r.Replica)
	e.VarBytes(r.Result)
}

func (r *Reply) encodeBody(e *Encoder) {
	e.U64(r.View)
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.U32(r.Replica)
	e.VarBytes(r.Result)
	e.MAC(r.MAC)
}

func (r *Reply) decodeBody(d *Decoder) {
	r.View = d.U64()
	r.ClientID = d.U32()
	r.Timestamp = d.U64()
	r.Replica = d.U32()
	r.Result = d.VarBytes()
	r.MAC = d.MAC()
}

// Suspect is an environment-level notification that the request timer
// expired, prompting the Confirmation compartment to start a view change.
// It is local to a replica (environment → enclave) and unauthenticated: a
// forged Suspect can only cost liveness, never safety (paper P1).
type Suspect struct {
	Replica uint32
	View    uint64 // the view being suspected
}

// MsgType implements Message.
func (*Suspect) MsgType() Type { return TSuspect }

func (s *Suspect) encodeBody(e *Encoder) {
	e.U32(s.Replica)
	e.U64(s.View)
}

func (s *Suspect) decodeBody(d *Decoder) {
	s.Replica = d.U32()
	s.View = d.U64()
}

// BatchFetch asks peer Execution compartments for the request bodies of a
// batch that committed here but whose PrePrepare never arrived (e.g. it
// was lost while this replica was down). It is unauthenticated: answering
// it leaks nothing (bodies are broadcast in PrePrepares anyway, and
// confidential payloads inside are ciphertext), and a forged fetch can
// only cost bandwidth.
type BatchFetch struct {
	Seq     uint64
	Digest  crypto.Digest // the committed batch digest
	Replica uint32        // requester
}

// MsgType implements Message.
func (*BatchFetch) MsgType() Type { return TBatchFetch }

func (f *BatchFetch) encodeBody(e *Encoder) {
	e.U64(f.Seq)
	e.Digest(f.Digest)
	e.U32(f.Replica)
}

func (f *BatchFetch) decodeBody(d *Decoder) {
	f.Seq = d.U64()
	f.Digest = d.Digest()
	f.Replica = d.U32()
}

// StateProbe asks peer Execution compartments whether the cluster has
// advanced past the sender's state — the rejoin nudge a recovered replica
// broadcasts while it may still be behind, so its outage gap closes even
// on an idle cluster where no checkpoint traffic flows. Have carries the
// sender's highest applied sequence; peers whose stable checkpoint is
// newer answer with a StateReply. It is unauthenticated: the reply is a
// certificate-carrying StateReply the receiver fully verifies, so a
// forged probe can only cost bandwidth (bounded by the broker's
// reflection budget, like BatchFetch).
type StateProbe struct {
	Have    uint64
	Replica uint32 // prober
}

// MsgType implements Message.
func (s *StateProbe) MsgType() Type { return TStateProbe }

func (s *StateProbe) encodeBody(e *Encoder) {
	e.U64(s.Have)
	e.U32(s.Replica)
}

func (s *StateProbe) decodeBody(d *Decoder) {
	s.Have = d.U64()
	s.Replica = d.U32()
}

// BatchReply answers a BatchFetch with the full request bodies. It needs
// no signature: the requester holds a commit certificate binding Seq to
// Digest, and verifies the carried batch hashes to exactly that digest —
// the reply is self-certifying.
type BatchReply struct {
	Seq     uint64
	Digest  crypto.Digest
	Batch   Batch
	Replica uint32 // responder
}

// MsgType implements Message.
func (*BatchReply) MsgType() Type { return TBatchReply }

func (r *BatchReply) encodeBody(e *Encoder) {
	e.U64(r.Seq)
	e.Digest(r.Digest)
	r.Batch.encode(e)
	e.U32(r.Replica)
}

func (r *BatchReply) decodeBody(d *Decoder) {
	r.Seq = d.U64()
	r.Digest = d.Digest()
	r.Batch.decode(d)
	r.Replica = d.U32()
}

// LeaseGrant distributes a read lease from the primary's trusted counter
// enclave to one replica's Execution compartment. The signature is the
// counter enclave's Ed25519 attestation over the lease fields (see
// crypto.LeaseSigningBytes), so the grant needs no transport-level
// authentication of its own: a forged or replayed grant either fails the
// signature check or re-delivers a lease the holder already has.
type LeaseGrant struct {
	Granter uint32 // primary replica owning the counter
	Holder  uint32 // replica authorized to serve local reads
	View    uint64 // view the lease is valid in (view change revokes)
	Expiry  int64  // UnixNano wall-clock bound
	// Probe marks a non-servable grant: the holder acknowledges it (proving
	// reachability to the granter) but never installs it. The primary sends
	// probes until a quorum of fresh LeaseAcks authorizes real grants, so a
	// primary cut off from a quorum can never keep leases alive.
	Probe bool
	Sig   []byte // counter-enclave signature (RoleCounter key)
}

// MsgType implements Message.
func (*LeaseGrant) MsgType() Type { return TLeaseGrant }

func (g *LeaseGrant) encodeBody(e *Encoder) {
	e.U32(g.Granter)
	e.U32(g.Holder)
	e.U64(g.View)
	e.U64(uint64(g.Expiry))
	e.Bool(g.Probe)
	e.VarBytes(g.Sig)
}

func (g *LeaseGrant) decodeBody(d *Decoder) {
	g.Granter = d.U32()
	g.Holder = d.U32()
	g.View = d.U64()
	g.Expiry = int64(d.U64())
	g.Probe = d.Bool()
	g.Sig = d.VarBytes()
}

// ReadRequest asks one replica's Execution compartment to serve a read
// locally under its lease, without running agreement. The replica answers
// only once it has applied a read-index frontier sampled after the request
// arrived, which makes the read linearizable. The MAC authenticates client
// → target Execution enclave (a single MAC, not a vector — the request goes
// to one replica).
type ReadRequest struct {
	ClientID  uint32
	Timestamp uint64 // client-local sequence number (read namespace)
	Payload   []byte // read-only operation (ciphertext when confidential)
	MAC       [crypto.MACSize]byte
}

// MsgType implements Message.
func (*ReadRequest) MsgType() Type { return TReadRequest }

// AuthenticatedBytes returns the bytes the request MAC covers.
func (r *ReadRequest) AuthenticatedBytes() []byte {
	e := NewEncoder(32 + len(r.Payload))
	r.AppendAuthenticated(e)
	return e.Bytes()
}

// AppendAuthenticated appends AuthenticatedBytes to a caller-provided
// (typically pooled) encoder.
func (r *ReadRequest) AppendAuthenticated(e *Encoder) {
	e.U8(uint8(TReadRequest))
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.VarBytes(r.Payload)
}

func (r *ReadRequest) encodeBody(e *Encoder) {
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.VarBytes(r.Payload)
	e.MAC(r.MAC)
}

func (r *ReadRequest) decodeBody(d *Decoder) {
	r.ClientID = d.U32()
	r.Timestamp = d.U64()
	r.Payload = d.VarBytes()
	r.MAC = d.MAC()
}

// ReadReply answers a ReadRequest. OK=false is an explicit, authenticated
// refusal (no lease, lease expired or near expiry, read-index round not
// confirmed in time): the client falls back to the agreement path
// immediately instead of waiting out a timeout. A single verified reply is
// accepted — the lease and the read index, not a reply quorum, carry the
// linearizability argument.
type ReadReply struct {
	Replica   uint32
	ClientID  uint32
	Timestamp uint64
	View      uint64
	OK        bool
	Result    []byte
	MAC       [crypto.MACSize]byte
}

// MsgType implements Message.
func (*ReadReply) MsgType() Type { return TReadReply }

// AuthenticatedBytes returns the bytes the reply MAC covers.
func (r *ReadReply) AuthenticatedBytes() []byte {
	e := NewEncoder(40 + len(r.Result))
	r.AppendAuthenticated(e)
	return e.Bytes()
}

// AppendAuthenticated appends AuthenticatedBytes to a caller-provided
// (typically pooled) encoder.
func (r *ReadReply) AppendAuthenticated(e *Encoder) {
	e.U8(uint8(TReadReply))
	e.U32(r.Replica)
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.U64(r.View)
	e.Bool(r.OK)
	e.VarBytes(r.Result)
}

func (r *ReadReply) encodeBody(e *Encoder) {
	e.U32(r.Replica)
	e.U32(r.ClientID)
	e.U64(r.Timestamp)
	e.U64(r.View)
	e.Bool(r.OK)
	e.VarBytes(r.Result)
	e.MAC(r.MAC)
}

func (r *ReadReply) decodeBody(d *Decoder) {
	r.Replica = d.U32()
	r.ClientID = d.U32()
	r.Timestamp = d.U64()
	r.View = d.U64()
	r.OK = d.Bool()
	r.Result = d.VarBytes()
	r.MAC = d.MAC()
}

// LeaseAck acknowledges a verified LeaseGrant back to the granting
// primary's Preparation compartment. Expiry echoes the acknowledged grant
// round's expiry and doubles as the round nonce: the granter keeps only
// the per-holder maximum and treats a holder as reachable while that
// maximum lies in the future, so replaying an old ack can never refresh a
// holder. Acks are what authorize real (servable) grants — a primary
// holding fresh acks from a quorum is provably not cut off in a minority
// partition.
type LeaseAck struct {
	Holder uint32 // acknowledging replica (its Execution compartment authenticates)
	View   uint64 // holder's current view; must match the granter's
	Expiry int64  // echoed grant-round expiry (UnixNano)
	// Auth is the pair authenticator: one MAC under the pairwise key of the
	// holder's Execution and the granter's Preparation enclave.
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*LeaseAck) MsgType() Type { return TLeaseAck }

// Addressee implements Addressed: grants come from the primary of their view.
func (a *LeaseAck) Addressee(n int) uint32 { return uint32(a.View % uint64(n)) }

// AppendSigning implements Signable.
func (a *LeaseAck) AppendSigning(e *Encoder) {
	e.U8(uint8(TLeaseAck))
	e.U32(a.Holder)
	e.U64(a.View)
	e.U64(uint64(a.Expiry))
}

func (a *LeaseAck) encodeBody(e *Encoder) {
	e.U32(a.Holder)
	e.U64(a.View)
	e.U64(uint64(a.Expiry))
	e.Auth(a.Auth)
}

func (a *LeaseAck) decodeBody(d *Decoder) {
	a.Holder = d.U32()
	a.View = d.U64()
	a.Expiry = int64(d.U64())
	a.Auth = d.PairAuth()
}

// ReadIndex asks the primary's Preparation compartment for its current
// proposal frontier — the read-index confirmation of the linearizable
// read fast path. A write acknowledged to any client has committed, hence
// was proposed, hence its sequence number is at or below the frontier the
// primary reports for any query sent afterwards; a holder that waits
// until it has applied the frontier therefore observes every completed
// write. Epoch orders this holder's queries so a stale reply cannot
// confirm a later read.
type ReadIndex struct {
	Holder uint32 // querying replica (its Execution compartment authenticates)
	View   uint64 // holder's current view; the primary answers only its own
	Epoch  uint64 // holder-local query number, counted from a per-boot random base
	// Auth is the pair authenticator: one MAC under the pairwise key of the
	// holder's Execution and the primary's Preparation enclave.
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*ReadIndex) MsgType() Type { return TReadIndex }

// Addressee implements Addressed: the primary of the query's view.
func (r *ReadIndex) Addressee(n int) uint32 { return uint32(r.View % uint64(n)) }

// AppendSigning implements Signable.
func (r *ReadIndex) AppendSigning(e *Encoder) {
	e.U8(uint8(TReadIndex))
	e.U32(r.Holder)
	e.U64(r.View)
	e.U64(r.Epoch)
}

func (r *ReadIndex) encodeBody(e *Encoder) {
	e.U32(r.Holder)
	e.U64(r.View)
	e.U64(r.Epoch)
	e.Auth(r.Auth)
}

func (r *ReadIndex) decodeBody(d *Decoder) {
	r.Holder = d.U32()
	r.View = d.U64()
	r.Epoch = d.U64()
	r.Auth = d.PairAuth()
}

// ReadIndexReply answers a ReadIndex with the primary's proposal frontier.
// Frontier is the highest sequence number the primary's Preparation
// compartment has assigned in the reply's view; view changes install the
// frontier at or above every slot that could have committed earlier, so
// the bound survives primary turnover. Holder names the one replica whose
// query is answered and is part of the authenticated bytes: a frontier is
// only as fresh as the query it answers, so a reply must not confirm another
// holder's later query (epochs are holder-local, so they would not tell the
// two apart).
type ReadIndexReply struct {
	Replica  uint32 // answering primary
	Holder   uint32 // replica whose query this answers
	View     uint64
	Epoch    uint64 // echoed query epoch
	Frontier uint64 // primary's highest assigned sequence number
	// Auth is the pair authenticator: one MAC under the pairwise key of the
	// primary's Preparation and the holder's Execution enclave.
	Auth crypto.Authenticator
}

// MsgType implements Message.
func (*ReadIndexReply) MsgType() Type { return TReadIndexReply }

// Addressee implements Addressed.
func (r *ReadIndexReply) Addressee(int) uint32 { return r.Holder }

// AppendSigning implements Signable.
func (r *ReadIndexReply) AppendSigning(e *Encoder) {
	e.U8(uint8(TReadIndexReply))
	e.U32(r.Replica)
	e.U32(r.Holder)
	e.U64(r.View)
	e.U64(r.Epoch)
	e.U64(r.Frontier)
}

func (r *ReadIndexReply) encodeBody(e *Encoder) {
	e.U32(r.Replica)
	e.U32(r.Holder)
	e.U64(r.View)
	e.U64(r.Epoch)
	e.U64(r.Frontier)
	e.Auth(r.Auth)
}

func (r *ReadIndexReply) decodeBody(d *Decoder) {
	r.Replica = d.U32()
	r.Holder = d.U32()
	r.View = d.U64()
	r.Epoch = d.U64()
	r.Frontier = d.U64()
	r.Auth = d.PairAuth()
}
