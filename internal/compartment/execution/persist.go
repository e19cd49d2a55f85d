package execution

import (
	"fmt"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// sessionCounterSlack is added to every restored session nonce counter.
// The un-fsynced WAL tail may hold executions whose encrypted replies
// already used counters past the snapshotted value; jumping far ahead
// makes nonce reuse impossible without burning meaningful nonce space
// (2^64 >> 2^20 per restart).
const sessionCounterSlack = 1 << 20

// ExportState implements tee.Durable. Alongside the agreement bookkeeping
// it captures the application state, the exactly-once records, and the
// attested client sessions — everything a client-visible guarantee depends
// on.
func (e *Compartment) ExportState() []byte {
	enc := e.BeginExport()
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
	// Exactly-once records: the executed window as the checkpoint snapshot
	// carries it, then the reply bodies it still holds.
	enc.U32(uint32(len(e.clients)))
	for id, cl := range e.clients {
		appendClientWindow(enc, id, cl)
		enc.U32(uint32(len(cl.replies)))
		for _, rep := range cl.replies {
			enc.VarMessage(rep)
		}
	}
	// Attested sessions: the client's ECDH key, and once provisioned the
	// raw session key (the AEAD is not serializable) and nonce position.
	enc.U32(uint32(len(e.sessions)))
	for id, s := range e.sessions {
		enc.U32(id)
		enc.VarBytes(s.pub[:])
		if s.aead == nil {
			enc.VarBytes(nil)
			continue
		}
		enc.VarBytes(s.key[:])
		enc.U64(s.aead.Counter())
	}
	// The stable snapshot (served to lagging peers) and the live
	// application state at lastExec.
	if snap, ok := e.snapshots[e.StableCert.Seq]; ok {
		enc.Bool(true)
		enc.VarBytes(snap)
	} else {
		enc.Bool(false)
	}
	enc.VarAppend(func(dst []byte) []byte { return app.AppendSnapshot(dst, e.app) })
	return e.EndExport(enc)
}

// ImportState implements tee.Durable.
func (e *Compartment) ImportState(data []byte) error {
	d, err := e.BeginImport(data, "execution")
	if err != nil {
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
			cm, err := compartment.DecodeMessage[*messages.Commit](d)
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
	for i := 0; i < n && d.Err() == nil; i++ {
		id, cl := decodeClientWindow(d)
		nReps := d.Count(execReplyWindow)
		for j := 0; j < nReps; j++ {
			rep, err := compartment.DecodeMessage[*messages.Reply](d)
			if err != nil {
				return err
			}
			// A body is held only for a timestamp its record's window marks.
			_, done := cl.executed(rep.Timestamp)
			if rep.ClientID != id || !done || cl.maxExecuted-rep.Timestamp >= execReplyWindow {
				return fmt.Errorf("execution: client %d record holds a reply to client %d timestamp %d it does not mark executed",
					id, rep.ClientID, rep.Timestamp)
			}
			if cl.replies == nil {
				cl.replies = make(map[uint64]*messages.Reply, nReps)
			}
			cl.replies[rep.Timestamp] = rep
		}
		e.clients[id] = cl
	}
	e.sessions = make(map[uint32]clientSession)
	n = d.Count(1 << 16)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.U32()
		var s clientSession
		pub := d.VarBytes()
		if len(pub) != len(s.pub) {
			return fmt.Errorf("execution: client %d ECDH key has %d bytes", id, len(pub))
		}
		copy(s.pub[:], pub)
		// An empty key is a session attested but never provisioned.
		if key := d.VarBytes(); len(key) > 0 {
			if len(key) != crypto.SessionKeySize {
				return fmt.Errorf("execution: session key for client %d has %d bytes", id, len(key))
			}
			copy(s.key[:], key)
			aead, err := crypto.NewSession(s.key, byte(10+e.ID))
			if err != nil {
				return err
			}
			// The nonce-counter slack is applied once, in FinishRecovery —
			// it runs after both this import and the WAL replay, covering
			// imported and replay-created sessions uniformly.
			aead.SetCounter(d.U64())
			s.aead = aead
		}
		e.sessions[id] = s
	}
	e.snapshots = make(map[uint64][]byte)
	if d.Bool() {
		e.snapshots[e.StableCert.Seq] = d.VarBytes()
	}
	appState := d.VarBytes()
	if err := d.Finish(); err != nil {
		return err
	}
	return e.app.Restore(appState)
}

// FinishRecovery runs after the sealed snapshot import and the WAL replay,
// before the replica starts serving: it advances every session nonce
// counter past anything the pre-crash process may have used (the sole
// application of sessionCounterSlack, covering snapshot-imported and
// replay-created sessions alike).
func (e *Compartment) FinishRecovery() {
	for _, s := range e.sessions {
		if s.aead != nil {
			s.aead.SetCounter(s.aead.Counter() + sessionCounterSlack)
		}
	}
}
