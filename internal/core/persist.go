// Sealed state export/import for the three compartments — the
// tee.Durable hooks behind the durability subsystem (internal/store).
//
// A compartment's sealed snapshot must capture everything that a WAL
// replay starting *at* the snapshot point cannot rebuild: the agreement
// bookkeeping above the stable checkpoint (proposals, prepare slots,
// in-flight commits), the application state, the exactly-once reply
// caches, and the provisioned client sessions. Transient collections that
// peers re-feed on their own — checkpoint vote sets, view-change
// collections — are deliberately left out; losing them costs at most one
// detection period of liveness, never safety.
//
// Wire messages embedded in the state (PrePrepares, Prepares, Commits,
// Replies, Checkpoint certificates) reuse the deterministic wire codec, so
// the export format inherits its bounds checking. They, the batches and the
// application state are encoded in place, behind a length prefix the
// encoder fills in afterwards (Encoder.VarMessage, VarAppend), into a buffer
// sized from the previous export: one buffer per export, which the enclave
// then seals into a second (tee.Enclave.SealState).
package core

import (
	"errors"
	"fmt"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// stateVersion tags every compartment export; imports refuse other
// versions rather than guessing. Version 2 added the trusted-counter fields
// (counter bases, the preparation counter position, the confirmation high
// counter); version 3 changed the skip-state layout of the checkpoint
// snapshot Execution embeds (a fixed window per client, see snapshotState),
// which a version-2 blob would be misparsed against; version 4 dropped the
// executed sequence number from the Reply bodies Execution caches.
const stateVersion = 4

// sessionCounterSlack is added to every restored session nonce counter.
// The un-fsynced WAL tail may hold executions whose encrypted replies
// already used counters past the snapshotted value; jumping far ahead
// makes nonce reuse impossible without burning meaningful nonce space
// (2^64 >> 2^20 per restart).
const sessionCounterSlack = 1 << 20

var errStateVersion = errors.New("core: unsupported compartment state version")

// exportEncoder starts a state export in a buffer sized from the previous
// one, so a steady-state export grows its buffer rarely instead of doubling
// its way up from a guess.
func exportEncoder(s *comState) *messages.Encoder {
	e := messages.NewEncoder(s.exportSize + s.exportSize/8 + 1024)
	e.U8(stateVersion)
	return e
}

// exportComState appends the fields every compartment persists.
func exportComState(e *messages.Encoder, s *comState) {
	e.U64(s.view)
	e.U64(s.lowWatermark)
	e.VarAppend(s.stableCert.AppendCert)
	e.U64(s.ctrBase)
	e.U64(s.seqBase)
}

// importComState restores the shared fields; the checkpoint vote
// collection restarts empty (peers re-send votes every interval).
func importComState(d *messages.Decoder, s *comState) error {
	s.view = d.U64()
	s.lowWatermark = d.U64()
	certBytes := d.VarBytes()
	if d.Err() != nil {
		return d.Err()
	}
	cert, err := messages.UnmarshalCheckpointCert(certBytes)
	if err != nil {
		return fmt.Errorf("core: import stable certificate: %w", err)
	}
	s.stableCert = cert
	s.ctrBase = d.U64()
	s.seqBase = d.U64()
	s.checkpoints = make(map[uint64]map[uint32]*messages.Checkpoint)
	return nil
}

// decodeMessage decodes one VarBytes-framed wire message of type T.
func decodeMessage[T messages.Message](d *messages.Decoder) (T, error) {
	var zero T
	raw := d.VarBytes()
	if d.Err() != nil {
		return zero, d.Err()
	}
	m, err := messages.Unmarshal(raw)
	if err != nil {
		return zero, err
	}
	typed, ok := m.(T)
	if !ok {
		return zero, fmt.Errorf("core: state holds %s where %T expected", m.MsgType(), zero)
	}
	return typed, nil
}

// --- Preparation -----------------------------------------------------------

// StateEpoch implements tee.Durable: the stable checkpoint sequence is the
// snapshot generation.
func (p *preparation) StateEpoch() uint64 { return p.lowWatermark }

// ExportState implements tee.Durable. The proposal record is the
// safety-critical part: a primary that forgot what it proposed could
// equivocate after a restart.
func (p *preparation) ExportState() []byte {
	e := exportEncoder(&p.comState)
	exportComState(e, &p.comState)
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
	p.exportSize = e.Len()
	return e.Bytes()
}

// ImportState implements tee.Durable.
func (p *preparation) ImportState(data []byte) error {
	d := messages.NewDecoder(data)
	if v := d.U8(); v != stateVersion {
		return fmt.Errorf("%w: preparation v%d", errStateVersion, v)
	}
	if err := importComState(d, &p.comState); err != nil {
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
		nv, err := decodeMessage[*messages.NewView](d)
		if err != nil {
			return err
		}
		p.lastNewView = nv
	}
	return d.Finish()
}

// --- Confirmation ----------------------------------------------------------

// StateEpoch implements tee.Durable.
func (c *confirmation) StateEpoch() uint64 { return c.lowWatermark }

// ExportState implements tee.Durable. Slots carry the prepare
// certificates this compartment would contribute to a view change;
// dropping them across a restart could hide a prepared batch from the new
// primary.
func (c *confirmation) ExportState() []byte {
	e := exportEncoder(&c.comState)
	exportComState(e, &c.comState)
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
	c.exportSize = e.Len()
	return e.Bytes()
}

// ImportState implements tee.Durable.
func (c *confirmation) ImportState(data []byte) error {
	d := messages.NewDecoder(data)
	if v := d.U8(); v != stateVersion {
		return fmt.Errorf("%w: confirmation v%d", errStateVersion, v)
	}
	if err := importComState(d, &c.comState); err != nil {
		return err
	}
	c.highCtr = d.U64()
	c.inViewChange = d.Bool()
	c.myVC = nil
	c.vcResends = 0
	c.vcBackoff = 0
	if d.Bool() {
		vc, err := decodeMessage[*messages.ViewChange](d)
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
			pp, err := decodeMessage[*messages.PrePrepare](d)
			if err != nil {
				return err
			}
			s.prePrepare = pp
		}
		nPreps := d.Count(1 << 12)
		for j := 0; j < nPreps; j++ {
			prep, err := decodeMessage[*messages.Prepare](d)
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

// --- Execution -------------------------------------------------------------

// StateEpoch implements tee.Durable.
func (e *execution) StateEpoch() uint64 { return e.lowWatermark }

// ExportState implements tee.Durable. Alongside the agreement bookkeeping
// it captures the application state, the exactly-once reply caches, and
// the provisioned client sessions — everything a client-visible guarantee
// depends on.
func (e *execution) ExportState() []byte {
	enc := exportEncoder(&e.comState)
	exportComState(enc, &e.comState)
	enc.U64(e.lastExec)

	// Decided-but-unexecuted slots.
	enc.U32(uint32(len(e.committed)))
	for seq, digest := range e.committed {
		enc.U64(seq)
		enc.Digest(digest)
	}
	// Cached batch bodies (keyed by digest, watermarked by batchSeq).
	enc.U32(uint32(len(e.batchSeq)))
	for digest, seq := range e.batchSeq {
		enc.Digest(digest)
		enc.U64(seq)
		if b, ok := e.batches[digest]; ok {
			enc.VarAppend(func(dst []byte) []byte { return messages.AppendBatch(dst, b) })
		} else {
			enc.VarBytes(nil)
		}
	}
	// In-flight commit votes.
	nSets := 0
	for _, vs := range e.commits {
		nSets += len(vs)
	}
	enc.U32(uint32(nSets))
	for view, vs := range e.commits {
		for seq, set := range vs {
			enc.U64(view)
			enc.U64(seq)
			enc.U32(uint32(len(set)))
			for _, cm := range set {
				enc.VarMessage(cm)
			}
		}
	}
	// Exactly-once reply caches.
	enc.U32(uint32(len(e.clients)))
	for id, cl := range e.clients {
		enc.U32(id)
		enc.U64(cl.maxExecuted)
		enc.U32(uint32(len(cl.replies)))
		for ts, rep := range cl.replies {
			enc.U64(ts)
			if rep == nil {
				// Skip-only entry installed by state transfer: the
				// timestamp was executed but no reply body is held.
				enc.VarBytes(nil)
			} else {
				enc.VarMessage(rep)
			}
		}
	}
	// Confidential sessions: raw key + nonce position.
	enc.U32(uint32(len(e.sessionKeys)))
	for id, key := range e.sessionKeys {
		enc.U32(id)
		enc.VarBytes(key[:])
		var counter uint64
		if s, ok := e.sessions[id]; ok {
			counter = s.Counter()
		}
		enc.U64(counter)
	}
	enc.U32(uint32(len(e.clientPubs)))
	for id, pub := range e.clientPubs {
		enc.U32(id)
		enc.VarBytes(pub[:])
	}
	// The stable snapshot (served to lagging peers) and the live
	// application state at lastExec.
	if snap, ok := e.snapshots[e.stableCert.Seq]; ok {
		enc.Bool(true)
		enc.VarBytes(snap)
	} else {
		enc.Bool(false)
	}
	enc.VarAppend(func(dst []byte) []byte { return app.AppendSnapshot(dst, e.app) })
	e.exportSize = enc.Len()
	return enc.Bytes()
}

// ImportState implements tee.Durable.
func (e *execution) ImportState(data []byte) error {
	d := messages.NewDecoder(data)
	if v := d.U8(); v != stateVersion {
		return fmt.Errorf("%w: execution v%d", errStateVersion, v)
	}
	if err := importComState(d, &e.comState); err != nil {
		return err
	}
	e.lastExec = d.U64()

	e.committed = make(map[uint64]crypto.Digest)
	n := d.Count(1 << 20)
	for i := 0; i < n; i++ {
		seq := d.U64()
		e.committed[seq] = d.Digest()
	}
	e.batches = make(map[crypto.Digest]*messages.Batch)
	e.batchSeq = make(map[crypto.Digest]uint64)
	e.held = make(map[uint64]crypto.Digest)
	n = d.Count(1 << 20)
	for i := 0; i < n; i++ {
		digest := d.Digest()
		seq := d.U64()
		raw := d.VarBytes()
		e.batchSeq[digest] = seq
		if len(raw) > 0 {
			b, err := messages.UnmarshalBatch(raw)
			if err != nil {
				return err
			}
			e.batches[digest] = b
		}
	}
	e.commits = make(map[uint64]map[uint64]map[uint32]*messages.Commit)
	n = d.Count(1 << 20)
	for i := 0; i < n; i++ {
		view := d.U64()
		seq := d.U64()
		nVotes := d.Count(1 << 12)
		set := make(map[uint32]*messages.Commit, nVotes)
		for j := 0; j < nVotes; j++ {
			cm, err := decodeMessage[*messages.Commit](d)
			if err != nil {
				return err
			}
			set[cm.Replica] = cm
		}
		vs, ok := e.commits[view]
		if !ok {
			vs = make(map[uint64]map[uint32]*messages.Commit)
			e.commits[view] = vs
		}
		vs[seq] = set
	}
	e.clients = make(map[uint32]*execClient)
	n = d.Count(1 << 20)
	for i := 0; i < n; i++ {
		id := d.U32()
		cl := &execClient{maxExecuted: d.U64(), replies: make(map[uint64]*messages.Reply)}
		nReps := d.Count(1 << 16)
		for j := 0; j < nReps; j++ {
			ts := d.U64()
			raw := d.VarBytes()
			if len(raw) == 0 {
				cl.replies[ts] = nil // skip-only entry, no cached body
				continue
			}
			m, err := messages.Unmarshal(raw)
			if err != nil {
				return err
			}
			rep, ok := m.(*messages.Reply)
			if !ok {
				return fmt.Errorf("core: state holds %s where reply expected", m.MsgType())
			}
			cl.replies[ts] = rep
		}
		e.clients[id] = cl
	}
	e.sessions = make(map[uint32]*crypto.Session)
	e.sessionKeys = make(map[uint32]crypto.SessionKey)
	n = d.Count(1 << 16)
	for i := 0; i < n; i++ {
		id := d.U32()
		keyBytes := d.VarBytes()
		counter := d.U64()
		if len(keyBytes) != crypto.SessionKeySize {
			return fmt.Errorf("core: session key for client %d has %d bytes", id, len(keyBytes))
		}
		var key crypto.SessionKey
		copy(key[:], keyBytes)
		sess, err := crypto.NewSession(key, byte(10+e.id))
		if err != nil {
			return err
		}
		// The nonce-counter slack is applied once, in finishRecovery —
		// it runs after both this import and the WAL replay, covering
		// imported and replay-created sessions uniformly.
		sess.SetCounter(counter)
		e.sessions[id] = sess
		e.sessionKeys[id] = key
	}
	e.clientPubs = make(map[uint32][32]byte)
	n = d.Count(1 << 16)
	for i := 0; i < n; i++ {
		id := d.U32()
		pubBytes := d.VarBytes()
		if len(pubBytes) != 32 {
			return fmt.Errorf("core: client %d ECDH key has %d bytes", id, len(pubBytes))
		}
		var pub [32]byte
		copy(pub[:], pubBytes)
		e.clientPubs[id] = pub
	}
	e.snapshots = make(map[uint64][]byte)
	if d.Bool() {
		e.snapshots[e.stableCert.Seq] = d.VarBytes()
	}
	appState := d.VarBytes()
	if err := d.Finish(); err != nil {
		return err
	}
	return e.app.Restore(appState)
}

// finishRecovery runs after the sealed snapshot import and the WAL replay,
// before the replica starts serving: it advances every session nonce
// counter past anything the pre-crash process may have used (the sole
// application of sessionCounterSlack, covering snapshot-imported and
// replay-created sessions alike), and re-arms the missing-body stall
// detector — replay discards enclave outputs, so a BatchFetch fired
// during replay went nowhere; the live one re-fires as soon as traffic
// flows.
func (e *execution) finishRecovery() {
	for _, s := range e.sessions {
		s.SetCounter(s.Counter() + sessionCounterSlack)
	}
	e.stallSeq = 0
	e.stallTicks = 0
	// Arm the rejoin nudge: whatever committed while this replica was down
	// is invisible to the local log, and on an idle cluster no checkpoint
	// traffic would ever reveal it. Probing asks the peers directly; if
	// none is ahead the budget drains quietly.
	e.probing = true
	e.probesLeft = probeBudget
}
