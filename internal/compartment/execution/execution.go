// Package execution is the Execution compartment (§3.2), one enclave of a
// SplitBFT replica, and the only one that links the application.
package execution

import (
	"maps"
	"slices"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Compartment is the Execution compartment (§3.2): it collects a quorum of
// Commits (event handler 4), executes authenticated requests against the
// application state it hosts, replies to clients, and originates
// Checkpoints (8). In confidential mode it is the only component that ever
// sees request/reply plaintext: payloads are decrypted after the commit
// certificate is verified and results are encrypted before they leave the
// enclave (opportunity o3).
type Compartment struct {
	compartment.State
	macs         *crypto.MACStore
	confidential bool
	ckptInterval uint64
	app          app.Application

	// batches caches request bodies by batch digest: PrePrepares are
	// duplicated into this compartment precisely because Commits carry
	// only hashes (§3.2). batchSeq records the highest sequence a digest
	// was proposed at, for watermark-based eviction. A body is only ever
	// executed when it hashes to the digest of a commit certificate, so the
	// cache needs no authentication of its own — held bounds what it can be
	// made to hold instead.
	batches  map[crypto.Digest]*messages.Batch
	batchSeq map[crypto.Digest]uint64
	// held names, per in-window sequence number, the digest of the one body
	// cached for it — or kept alive until it, by a batchSeq raised to it —
	// without authenticating the PrePrepare that did so (the first to
	// arrive). Anything else proposed for an occupied slot must come in an
	// authentic PrePrepare. Not part of the sealed state: a restart may
	// admit one more unauthenticated body per slot, no more.
	held    map[uint64]crypto.Digest
	commits map[uint64]map[uint64]map[uint32]*messages.Commit // view → seq → sender
	// committed maps a sequence number to its decided digest (first valid
	// commit certificate wins; safety guarantees uniqueness).
	committed map[uint64]crypto.Digest
	lastExec  uint64

	clients map[uint32]*execClient
	// sessions is per replica and unordered, so it stays out of clients:
	// the checkpoint snapshot is a function of the ordered history alone.
	sessions map[uint32]clientSession

	snapshots map[uint64][]byte
	readLeases
}

// New builds the Execution compartment of replica cfg.ID over the
// application it hosts.
func New(cfg compartment.Config, application app.Application, ver *messages.Verifier) (*Compartment, error) {
	leases, err := newReadLeases(cfg)
	if err != nil {
		return nil, err
	}
	e := &Compartment{
		State: compartment.NewState(cfg, ver),
		macs: crypto.NewMACStore(cfg.MACSecret,
			crypto.Identity{ReplicaID: cfg.ID, Role: crypto.RoleExecution}),
		confidential: cfg.Confidential,
		ckptInterval: cfg.CheckpointInterval,
		app:          application,
		batches:      make(map[crypto.Digest]*messages.Batch),
		batchSeq:     make(map[crypto.Digest]uint64),
		held:         make(map[uint64]crypto.Digest),
		commits:      make(map[uint64]map[uint64]map[uint32]*messages.Commit),
		committed:    make(map[uint64]crypto.Digest),
		clients:      make(map[uint32]*execClient),
		sessions:     make(map[uint32]clientSession),
		snapshots:    make(map[uint64][]byte),
		readLeases:   leases,
	}
	e.snapshots[0] = e.snapshotState()
	return e, nil
}

// Measurement implements tee.Code.
func (e *Compartment) Measurement() crypto.Digest { return Measurement() }

// Measurement returns the Execution compartment's code measurement, which
// clients verify attestation quotes against before provisioning session
// keys.
func Measurement() crypto.Digest { return compartment.Measure("execution") }

// HandleECall implements tee.Code.
func (e *Compartment) HandleECall(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) >= 2 && raw[0] == compartment.EcallTick {
		return e.onQuery(host, raw[1], raw[2:])
	}
	// Any message may have advanced lastExec past a confirmed frontier:
	// serve what became servable.
	return append(e.handleMessage(host, raw), e.settleReads(false)...)
}

// Flags of the environment's query, the second byte of a
// compartment.EcallTick ecall.
const (
	TickPeriod byte = 1 << iota // a failure-detector period passed
	TickProbe                   // announce how far this replica got
)

// OcallExecuted is the ocall that answers a query naming requests.
const OcallExecuted = "exec.executed"

// onQuery answers the environment's query (compartment.EcallTick) from
// current state alone: the same state, flags and asked requests give the
// same answer, and when to ask, and which answers to forward, is the
// environment's decision. asked is a run of (client, ts) pairs; the
// answer names back, in one OcallExecuted, those the exactly-once records
// cover — executed here or merged in by state transfer, whether a reply
// is held or not — so the environment stops awaiting a Reply that will
// not come.
func (e *Compartment) onQuery(host tee.Host, flags byte, asked []byte) []tee.OutMsg {
	done := messages.NewEncoder(len(asked))
	for d := messages.NewDecoder(asked); d.Remaining() >= 4+8; {
		id, ts := d.U32(), d.U64()
		if _, ok := e.clients[id].executed(ts); ok {
			done.U32(id)
			done.U64(ts)
		}
	}
	if done.Len() > 0 {
		_, _ = host.Ocall(OcallExecuted, done.Bytes())
	}
	var out []tee.OutMsg
	// The next slot committed but its body never arrived (lost PrePrepare,
	// or it committed while this replica was down): ask peers to retransmit
	// it rather than wait for a checkpoint to trigger state transfer.
	next := e.lastExec + 1
	if digest, ok := e.committed[next]; ok && !digest.IsZero() {
		if _, cached := e.batches[digest]; !cached {
			out = append(out, compartment.BroadcastOut(&messages.BatchFetch{Seq: next, Digest: digest, Replica: e.ID}))
		}
	}
	if flags&TickPeriod != 0 {
		// Refuse parked reads whose lease lapsed with no message to notice,
		// and retransmit a lost frontier query.
		out = append(out, e.settleReads(false)...)
		if e.riInFlight && len(e.riPending) > 0 {
			out = append(out, e.sendReadIndex(host))
		}
	}
	if flags&TickProbe != 0 {
		// Announce how far this replica got: a peer whose stable checkpoint
		// is ahead answers with its snapshot, and peers' Confirmation
		// compartments re-send their Commits for the slots above it — a
		// post-restart gap closes without client traffic.
		out = append(out, compartment.BroadcastOut(&messages.StateProbe{Have: max(e.lastExec, e.StableCert.Seq), Replica: e.ID}))
	}
	return out
}

func (e *Compartment) handleMessage(host tee.Host, raw []byte) []tee.OutMsg {
	if len(raw) == 0 || raw[0] != compartment.EcallMessage {
		return nil
	}
	m, err := messages.Unmarshal(raw[1:])
	if err != nil {
		return nil
	}
	switch msg := m.(type) {
	case *messages.PrePrepare:
		return e.onPrePrepare(host, msg)
	case *messages.Commit:
		return e.onCommit(host, msg)
	case *messages.Checkpoint:
		return e.onCheckpointMsg(host, msg)
	case *messages.NewView:
		return e.onNewView(host, msg)
	case *messages.AttestRequest:
		return e.onAttestRequest(host, msg)
	case *messages.ProvisionKey:
		e.onProvisionKey(host, msg)
	case *messages.StateReply:
		return e.onStateReply(host, msg)
	case *messages.BatchFetch:
		return e.onBatchFetch(msg)
	case *messages.BatchReply:
		return e.onBatchReply(host, msg)
	case *messages.StateProbe:
		return e.onStateProbe(msg)
	case *messages.LeaseGrant:
		return e.onLeaseGrant(host, msg)
	case *messages.ReadRequest:
		return e.onReadRequest(host, msg)
	case *messages.ReadIndexReply:
		return e.onReadIndexReply(host, msg)
	}
	return nil
}

// onPrePrepare caches the full request bodies for later execution. This
// compartment uses a PrePrepare as a body and nothing else — it orders by
// Commits — so the proposal is checked for structure (proposer is the view's
// primary, batch hashes to the header digest) but not authenticated: a body
// executes only when it hashes to the digest a 2f+1 Commit certificate
// names, the rule onBatchReply states, and a forged body matches none. What
// authentication did besides was bound the cache; held does that now. A
// proposal costs memory when it adds a body or when it raises batchSeq, the
// sequence number gc keeps a body until. The first proposal to do either at
// an in-window sequence number claims that slot and is taken as is; any
// other one for an occupied slot must verify, as every one had to before.
// So a forged first arrival cannot displace the real proposal (which then
// pays for its verification and is kept beside it), and every body kept
// without authentication owns the slot at its batchSeq: there is never more
// than one per slot of the window, and re-sending a held body at a higher
// sequence number only moves it to a slot nobody else can then take for free.
func (e *Compartment) onPrePrepare(host tee.Host, pp *messages.PrePrepare) []tee.OutMsg {
	if !e.InWindow(pp.Seq) {
		return nil
	}
	if err := e.Ver.CheckProposalBody(pp); err != nil {
		return nil
	}
	_, cached := e.batches[pp.Digest]
	if !cached || pp.Seq > e.batchSeq[pp.Digest] {
		if _, occupied := e.held[pp.Seq]; !occupied {
			e.held[pp.Seq] = pp.Digest
		} else if e.Ver.VerifyPrePrepare(pp, true) != nil {
			return nil
		}
		if !cached {
			b := pp.Batch
			e.batches[pp.Digest] = &b
		}
		if pp.Seq > e.batchSeq[pp.Digest] {
			e.batchSeq[pp.Digest] = pp.Seq
		}
	}
	return e.tryExecute(host)
}

// onCommit is event handler (4): collect 2f+1 matching Commits from
// distinct Confirmation enclaves (P5), then execute in order.
func (e *Compartment) onCommit(host tee.Host, c *messages.Commit) []tee.OutMsg {
	if !e.InWindow(c.Seq) || c.Seq <= e.lastExec {
		return nil
	}
	if _, done := e.committed[c.Seq]; done {
		return nil
	}
	// Cheap redundancy check before the expensive verification, as in
	// confirmation.onPrepare: a sender slot is only ever occupied by a
	// previously verified Commit, so a re-sent one — same bytes or not —
	// never pays for a signature or MAC check. Lookups only: the sets are
	// created below, for verified Commits alone.
	if _, dup := e.commits[c.View][c.Seq][c.Replica]; dup {
		return nil
	}
	if err := e.Ver.VerifyCommit(c); err != nil {
		return nil
	}
	vs, ok := e.commits[c.View]
	if !ok {
		vs = make(map[uint64]map[uint32]*messages.Commit)
		e.commits[c.View] = vs
	}
	set, ok := vs[c.Seq]
	if !ok {
		set = make(map[uint32]*messages.Commit)
		vs[c.Seq] = set
	}
	set[c.Replica] = c
	matching := 0
	for _, cm := range set {
		if cm.Digest == c.Digest {
			matching++
		}
	}
	if matching < e.Quorum() {
		return nil
	}
	e.committed[c.Seq] = c.Digest
	delete(vs, c.Seq)
	return e.tryExecute(host)
}

// tryExecute executes committed batches strictly in sequence order,
// producing replies and periodic checkpoints.
func (e *Compartment) tryExecute(host tee.Host) []tee.OutMsg {
	var out []tee.OutMsg
	for {
		next := e.lastExec + 1
		if next <= e.LowWatermark {
			return out // covered by a stable checkpoint; state transfer
		}
		digest, ok := e.committed[next]
		if !ok {
			return out
		}
		if digest.IsZero() {
			// Null request from a view change: advance without effect.
			delete(e.committed, next)
			e.lastExec = next
			out = append(out, e.maybeCheckpoint(host, next)...)
			continue
		}
		batch, ok := e.batches[digest]
		if !ok {
			// The body never arrived: the environment's query fetches it
			// (onQuery).
			return out
		}
		delete(e.committed, next)
		e.lastExec = next
		out = append(out, e.executeBatch(batch)...)
		out = append(out, e.maybeCheckpoint(host, next)...)
	}
}

// executeBatch authenticates, decrypts, executes and answers every request
// in a batch.
func (e *Compartment) executeBatch(batch *messages.Batch) []tee.OutMsg {
	out := make([]tee.OutMsg, 0, len(batch.Requests))
	for i := range batch.Requests {
		req := &batch.Requests[i]
		entry, ok := e.clients[req.ClientID]
		if !ok {
			entry = &execClient{}
			e.clients[req.ClientID] = entry
		}
		if rep, done := entry.executed(req.Timestamp); done {
			if rep != nil {
				out = append(out, compartment.ClientOut(req.ClientID, rep))
			}
			continue
		}
		result := e.executeOne(req)
		rep := &messages.Reply{
			View:      e.View,
			ClientID:  req.ClientID,
			Timestamp: req.Timestamp,
			Replica:   e.ID,
			Result:    result,
		}
		rep.MAC = e.clientMAC(rep, req.ClientID)
		entry.record(req.Timestamp, rep)
		out = append(out, compartment.ClientOut(req.ClientID, rep))
	}
	return out
}

// executeOne runs a single request: MAC check, decryption, application
// execution, and reply encryption. Every failure path degrades to a no-op
// result (§4.1) — ordering already happened, so the slot must advance.
func (e *Compartment) executeOne(req *messages.Request) []byte {
	clientID := crypto.Identity{ReplicaID: req.ClientID, Role: crypto.RoleClient}
	slot := e.N + int(e.ID) // Execution MACs follow the Preparation block
	enc := messages.GetEncoder()
	req.AppendAuthenticated(enc)
	err := e.macs.VerifyIndexed(enc.Bytes(), req.Auth, slot, clientID)
	messages.PutEncoder(enc)
	if err != nil {
		return app.NoOpResult
	}
	op := req.Payload
	var sess *crypto.Session
	if e.confidential {
		if sess = e.sessions[req.ClientID].aead; sess == nil {
			return app.NoOpResult // no session: cannot decrypt, no-op
		}
		pt, err := sess.Open(req.Payload, crypto.RequestAD(req.ClientID, req.Timestamp))
		if err != nil {
			return app.NoOpResult // corrupted ciphertext: no-op
		}
		op = pt
	}
	result := e.app.Execute(req.ClientID, op)
	if e.confidential {
		result = sess.Seal(result, crypto.ReplyAD(req.ClientID, req.Timestamp))
	}
	return result
}

// onBatchFetch serves a peer's missing-body request from the batch cache.
func (e *Compartment) onBatchFetch(f *messages.BatchFetch) []tee.OutMsg {
	if int(f.Replica) >= e.N || f.Replica == e.ID {
		return nil
	}
	b, ok := e.batches[f.Digest]
	if !ok {
		return nil
	}
	return []tee.OutMsg{compartment.ReplicaOut(f.Replica,
		&messages.BatchReply{Seq: f.Seq, Digest: f.Digest, Batch: *b, Replica: e.ID})}
}

// onBatchReply installs a retransmitted batch body. The reply needs no
// signature: it is only accepted for a slot this compartment already holds
// a commit certificate for, and the batch must hash to the certified
// digest — a forged body cannot match.
func (e *Compartment) onBatchReply(host tee.Host, r *messages.BatchReply) []tee.OutMsg {
	want, committed := e.committed[r.Seq]
	if !committed || want != r.Digest {
		return nil // not waiting on this slot: refuse (bounds the cache)
	}
	if _, have := e.batches[r.Digest]; have {
		return nil
	}
	if r.Batch.Digest() != r.Digest {
		return nil // forged or corrupted body
	}
	b := r.Batch
	e.batches[r.Digest] = &b
	if r.Seq > e.batchSeq[r.Digest] {
		e.batchSeq[r.Digest] = r.Seq
	}
	return e.tryExecute(host)
}

// maybeCheckpoint originates a Checkpoint at interval boundaries (event
// handler 8): the Execution compartment holds the application state, so it
// is the source of checkpoints (§3.2).
func (e *Compartment) maybeCheckpoint(host tee.Host, seq uint64) []tee.OutMsg {
	if seq%e.ckptInterval != 0 {
		return nil
	}
	snap := e.snapshotState()
	e.snapshots[seq] = snap
	cp := &messages.Checkpoint{Seq: seq, StateDigest: crypto.HashData(snap), Replica: e.ID}
	cp.Sig, cp.Auth = e.Authenticate(host, cp)
	out := compartment.LocalFirst(cp, crypto.RolePreparation, crypto.RoleConfirmation)
	// Count our own checkpoint towards stability.
	out = append(out, e.onCheckpointMsg(host, cp)...)
	return out
}

// onCheckpointMsg collects checkpoint votes and garbage-collects once
// stable.
func (e *Compartment) onCheckpointMsg(host tee.Host, c *messages.Checkpoint) []tee.OutMsg {
	cert := e.OnCheckpoint(host, c)
	if cert == nil {
		return nil
	}
	return e.installStable(*cert)
}

func (e *Compartment) installStable(cert messages.CheckpointCert) []tee.OutMsg {
	if !e.AdvanceStable(cert) {
		return nil
	}
	e.gc()
	if e.lastExec >= cert.Seq {
		return nil
	}
	// Fell behind the group: ask a replica that contributed to the
	// certificate for its state. A MAC-mode cert names no voters (single
	// vouch) — if its attestor is a peer, ask there; a cert this compartment
	// attested itself identifies nobody ahead, so broadcast the ask and take
	// the first verifying reply. The ask is the rejoin nudge's StateProbe
	// with Have at lastExec, not cert.Seq: a peer answers whenever its
	// stable point is ahead of Have, so one stable at cert.Seq serves it and
	// so does one that has moved on.
	ask := &messages.StateProbe{Have: e.lastExec, Replica: e.ID}
	var out tee.OutMsg
	switch i := slices.IndexFunc(cert.Proof, func(cp messages.Checkpoint) bool { return cp.Replica != e.ID }); {
	case i >= 0:
		out = compartment.ReplicaOut(cert.Proof[i].Replica, ask)
	case len(cert.Vouch) == 0:
		return nil
	case cert.Attestor != e.ID:
		out = compartment.ReplicaOut(cert.Attestor, ask)
	default:
		out = compartment.BroadcastOut(ask)
	}
	return []tee.OutMsg{out}
}

// onStateProbe answers a peer's StateProbe — its rejoin nudge or its ask
// for state behind a stable certificate — when this replica's stable
// checkpoint is ahead of the prober: the reply is a full StateReply whose
// certificate the prober verifies, so serving a forged probe leaks
// nothing and cannot corrupt anyone (bandwidth only, budgeted by the
// broker alongside BatchFetch).
func (e *Compartment) onStateProbe(p *messages.StateProbe) []tee.OutMsg {
	if int(p.Replica) >= e.N || p.Replica == e.ID {
		return nil
	}
	if e.StableCert.Seq <= p.Have {
		return nil // prober is current (or ahead): nothing to offer
	}
	snap, ok := e.snapshots[e.StableCert.Seq]
	if !ok {
		return nil
	}
	return []tee.OutMsg{compartment.ReplicaOut(p.Replica,
		&messages.StateReply{Cert: e.StableCert, Snapshot: snap, Replica: e.ID})}
}

// onNewView applies the view and checkpoint (handler 7'), and records the
// re-issued proposal digests so commits in the new view can execute. The
// embedded PrePrepares are not validated here (only Preparation does), but
// execution still requires a commit certificate per slot, so a forged
// NewView cannot make this compartment execute anything (§4).
func (e *Compartment) onNewView(host tee.Host, nv *messages.NewView) []tee.OutMsg {
	if !e.ApplyNewViewCheckpoint(nv) {
		return nil
	}
	// Pending reads were waiting on a frontier from the deposed primary:
	// refuse them all (fail-closed), and forget the in-flight query — a late
	// reply for it fails the view check.
	out := e.settleReads(true)
	e.riInFlight = false
	e.gc()
	return append(out, e.tryExecute(host)...)
}

// onStateReply installs a verified snapshot and resumes execution.
func (e *Compartment) onStateReply(host tee.Host, rep *messages.StateReply) []tee.OutMsg {
	if rep.Cert.Seq <= e.lastExec {
		return nil
	}
	if err := e.Ver.VerifyCheckpointCert(&rep.Cert); err != nil {
		return nil
	}
	if crypto.HashData(rep.Snapshot) != rep.Cert.StateDigest {
		return nil
	}
	if err := e.restoreState(rep.Snapshot); err != nil {
		return nil
	}
	e.snapshots[rep.Cert.Seq] = rep.Snapshot
	e.lastExec = rep.Cert.Seq
	e.AdvanceStable(rep.Cert)
	e.gc()
	return e.tryExecute(host)
}

// gc prunes execution bookkeeping below the watermark.
func (e *Compartment) gc() {
	below := func(seq uint64) bool { return seq <= e.LowWatermark }
	for view, vs := range e.commits {
		maps.DeleteFunc(vs, func(seq uint64, _ map[uint32]*messages.Commit) bool { return below(seq) })
		if len(vs) == 0 {
			delete(e.commits, view)
		}
	}
	maps.DeleteFunc(e.committed, func(seq uint64, _ crypto.Digest) bool { return below(seq) })
	maps.DeleteFunc(e.held, func(seq uint64, _ crypto.Digest) bool { return below(seq) })
	maps.DeleteFunc(e.snapshots, func(seq uint64, _ []byte) bool { return seq < e.LowWatermark })
	// Batch bodies below the watermark can no longer be executed; drop
	// them to bound the cache.
	for d, seq := range e.batchSeq {
		if below(seq) {
			delete(e.batchSeq, d)
			delete(e.batches, d)
		}
	}
}
