// Sealed state export/import for the three compartments — the
// tee.Durable hooks behind the durability subsystem (internal/store).
//
// A compartment's sealed snapshot must capture everything that a WAL
// replay starting *at* the snapshot point cannot rebuild: the agreement
// bookkeeping above the stable checkpoint (proposals, prepare slots,
// in-flight commits), the application state, the exactly-once records (each
// client's executed window, in the encoding the checkpoint snapshot uses,
// plus the reply bodies it still covers), and the attested client sessions.
// Transient collections that peers re-feed on their own — checkpoint vote
// sets, view-change collections — are deliberately left out; losing them
// costs at most one detection period of liveness, never safety.
//
// Wire messages embedded in the state (PrePrepares, Prepares, Commits,
// Replies, Checkpoint certificates) reuse the deterministic wire codec, so
// the export format inherits its bounds checking. They, the batches and the
// application state are encoded in place, behind a length prefix the
// encoder fills in afterwards (Encoder.VarMessage, VarAppend), into a buffer
// sized from the previous export: one buffer per export, which the enclave
// then seals into a second (tee.Enclave.SealState). Each compartment
// package encodes its own fields after the shared ones this file handles.

package compartment

import (
	"errors"
	"fmt"

	"github.com/splitbft/splitbft/internal/messages"
)

// stateVersion tags every compartment export; imports refuse other
// versions rather than guessing. Version 2 added the trusted-counter fields
// (counter bases, the preparation counter position, the confirmation high
// counter); version 3 changed the skip-state layout of the checkpoint
// snapshot Execution embeds (a fixed window per client),
// which a version-2 blob would be misparsed against; version 4 dropped the
// executed sequence number from the Reply bodies Execution caches; version 5
// stores each client's executed window instead of a timestamp per body and
// body-less skip entries, and one record per attested session.
const stateVersion = 5

// ErrStateVersion is the import error for an export of another version.
var ErrStateVersion = errors.New("compartment: unsupported state version")

// StateEpoch implements tee.Durable for every compartment: the stable
// checkpoint sequence is the snapshot generation.
func (s *State) StateEpoch() uint64 { return s.LowWatermark }

// BeginExport starts a state export with the version tag and the fields
// every compartment persists, in a buffer sized from the previous export, so
// a steady-state export grows its buffer rarely instead of doubling its way
// up from a guess.
func (s *State) BeginExport() *messages.Encoder {
	e := messages.NewEncoder(s.exportSize + s.exportSize/8 + 1024)
	e.U8(stateVersion)
	e.U64(s.View)
	e.U64(s.LowWatermark)
	e.VarAppend(s.StableCert.AppendCert)
	e.U64(s.CtrBase)
	e.U64(s.SeqBase)
	return e
}

// EndExport returns a finished export, remembering its size for the next.
func (s *State) EndExport(e *messages.Encoder) []byte {
	s.exportSize = e.Len()
	return e.Bytes()
}

// BeginImport refuses an export of another version, then restores the
// shared fields and returns the decoder positioned at the compartment's own;
// role names the compartment in the version error. The checkpoint vote
// collection restarts empty (peers re-send votes every interval).
func (s *State) BeginImport(data []byte, role string) (*messages.Decoder, error) {
	d := messages.NewDecoder(data)
	if v := d.U8(); v != stateVersion {
		return nil, fmt.Errorf("%w: %s v%d", ErrStateVersion, role, v)
	}
	s.View = d.U64()
	s.LowWatermark = d.U64()
	certBytes := d.VarBytes()
	if d.Err() != nil {
		return nil, d.Err()
	}
	cert, err := messages.UnmarshalCheckpointCert(certBytes)
	if err != nil {
		return nil, fmt.Errorf("compartment: import stable certificate: %w", err)
	}
	s.StableCert = cert
	s.CtrBase = d.U64()
	s.SeqBase = d.U64()
	s.checkpoints = make(map[uint64]map[uint32]*messages.Checkpoint)
	return d, nil
}

// DecodeMessage decodes one VarBytes-framed wire message of type T.
func DecodeMessage[T messages.Message](d *messages.Decoder) (T, error) {
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
		return zero, fmt.Errorf("compartment: state holds %s where %T expected", m.MsgType(), zero)
	}
	return typed, nil
}
