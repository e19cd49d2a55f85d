package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Tail marker: the store's stand-in for a hardware monotonic counter.
//
// The WAL alone cannot tell an honest crash from an adversarial rollback:
// both present as "the log ends earlier than it once did". The marker
// pins the durable extent — the highest WAL index that has been fsynced —
// into a separate sealed, monotonically-advancing file, refreshed
// whenever a snapshot is written (the same moments the trusted counter
// position is sealed into the enclave state export). At recovery, a WAL
// whose durable extent falls short of the marker is refused with
// ErrTailRollback instead of silently replaying a truncated history.
//
// Honest limitation (see README): the marker lives on the same untrusted
// disk. An adversary who rolls back the WAL *and* the marker (and the
// snapshots) consistently presents a plausible older crash image that
// this simulation cannot distinguish; on real SGX the marker's value
// would be held in a hardware monotonic counter, which is exactly the
// gap this file is shaped to be replaced by. What the marker does defeat
// is the cheaper and far more common attack of truncating or deleting
// recent WAL segments alone.

// tailMarkName is the marker file, one per store directory.
const tailMarkName = "tailmark"

// ErrTailRollback is returned by Open when the recovered WAL ends before
// the durable extent pinned by the tail marker — records the store proved
// durable are missing, i.e. the log tail was rolled back.
var ErrTailRollback = errors.New("store: WAL tail rollback detected")

// encodeTailMark seals the durable extent. The index is sealed rather
// than CRC'd: a rollback adversary by definition edits files, so the
// marker's integrity must rest on the enclave sealing key, not on a
// checksum anyone can recompute.
func (s *Store) encodeTailMark(index uint64) ([]byte, error) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], index)
	return s.sealer.Seal(nil, buf[:])
}

// writeTailMark durably records index as the new marker value. Callers
// guarantee monotonicity (see markTailLocked).
func (s *Store) writeTailMark(index uint64) error {
	sealed, err := s.encodeTailMark(index)
	if err != nil {
		return fmt.Errorf("store: seal tail marker: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, tailMarkName), sealed); err != nil {
		return fmt.Errorf("store: write tail marker: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// readTailMark loads the marker, returning (0, nil) when none exists —
// a fresh store, or a pre-marker directory layout. An unsealable marker
// is tampering (or the wrong sealing key) and fails recovery.
func (s *Store) readTailMark() (uint64, error) {
	sealed, err := os.ReadFile(filepath.Join(s.dir, tailMarkName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	pt, err := s.sealer.Unseal(sealed)
	if err != nil {
		return 0, fmt.Errorf("store: unseal tail marker: %w", err)
	}
	if len(pt) != 8 {
		return 0, fmt.Errorf("store: tail marker has %d payload bytes, want 8", len(pt))
	}
	return binary.LittleEndian.Uint64(pt), nil
}

// markTailLocked captures the current durable extent for a marker refresh
// if it advanced, returning (index, true) when a write is due. The caller
// performs the (fsync-heavy) writeTailMark outside the store mutex and
// MUST hold the flush invariant: every record up to the returned index is
// already fsynced. A failed write is retried at the next refresh point —
// the marker lags but never overstates, so recovery stays sound.
func (s *Store) markTailLocked() (uint64, bool) {
	if s.failed != nil {
		// failLocked discarded pending records that were never written;
		// nextIndex already counts them, so the formula below would
		// overstate the durable extent.
		return 0, false
	}
	durable := s.nextIndex - 1 - uint64(s.pendingCount)
	if durable <= s.tailMark {
		return 0, false
	}
	s.tailMark = durable
	return durable, true
}
