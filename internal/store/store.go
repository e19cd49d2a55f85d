// Package store implements the sealed durability subsystem: a
// per-compartment append-only write-ahead log plus snapshot store.
//
// Each compartment of a replica owns one Store. Every message delivered
// into the compartment's enclave is sealed (AEAD under the enclave sealing
// key) and appended to the log before the ecall runs; when the
// compartment's stable checkpoint advances, the enclave's sealed state
// export is written as a snapshot and older log segments are garbage
// collected. Recovery loads the newest intact snapshot and replays the
// records appended after it — the compartments are deterministic state
// machines, so replaying the post-snapshot input log reconstructs the
// pre-crash state up to the last durable record. Anything lost beyond that
// (the un-fsynced tail) is re-fetched from peers through the ordinary
// checkpoint/state-transfer path.
//
// Appends land in a memory buffer; nothing flushes it on a timer. It
// reaches disk, all of it under one fsync, only when a record's effect
// could escape or be relied on: at Sync, which the broker calls before
// any output of a crossing leaves (one Sync covers the whole run), at a
// snapshot and at Close. A compartment that emits nothing keeps its
// records buffered until its next output or snapshot, and a crash drops
// them like lost messages: no output depended on them. Crash simulation
// (Store.Crash) discards the unflushed buffer, modeling the tail a SIGKILL
// would lose.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

const (
	// DefaultSegmentSize rotates the log every 4 MiB.
	DefaultSegmentSize = 4 << 20
	// keepSnapshots is how many snapshot generations survive GC; keeping
	// two means a corrupt newest snapshot can still fall back one
	// generation with full WAL coverage.
	keepSnapshots = 2
)

// ErrClosed is returned by operations on a closed or crashed store.
var ErrClosed = errors.New("store: closed")

// Options parameterizes Open.
type Options struct {
	// Sealer encrypts records before they reach disk and decrypts them on
	// recovery. Nil stores plaintext (NopSealer).
	Sealer Sealer
	// SegmentSize is the rotation threshold in bytes. 0 means
	// DefaultSegmentSize.
	SegmentSize int
	// FsyncInterval selects the flush mode by its sign alone. Negative
	// flushes and fsyncs on every append (synchronous mode, for tests);
	// zero or positive leaves records buffered until Sync, a snapshot or
	// Close.
	FsyncInterval time.Duration
	// Faults, when non-nil, injects disk failures (write error, fsync
	// error, slow-disk stall) into the flush path for chaos testing.
	Faults *FaultInjector
}

// Recovered is what Open reconstructed from disk.
type Recovered struct {
	// Snapshot is the newest intact snapshot, verbatim as written (the
	// caller sealed it; the caller unseals it). Nil when none exists.
	Snapshot []byte
	// SnapshotIndex is the WAL index the snapshot covers through.
	SnapshotIndex uint64
	// Records are the unsealed WAL records after SnapshotIndex, in append
	// order, ready to be replayed through the enclave.
	Records [][]byte
}

// segMeta tracks one on-disk segment holding records [first, next).
type segMeta struct{ first, next uint64 }

// Store is one compartment's durable log + snapshot directory. All methods
// are safe for concurrent use, though in practice a single dispatcher
// thread appends.
type Store struct {
	dir     string
	lock    *os.File // flock'd LOCK file: exactly one live owner per directory
	sealer  Sealer
	segSize int
	syncAll bool           // fsync on every Append (FsyncInterval < 0)
	inj     *FaultInjector // nil when no chaos fault injection

	mu           sync.Mutex
	pending      []byte // framed records awaiting flush
	pendingFirst uint64
	pendingCount int
	nextIndex    uint64 // 1-based index of the next record to append
	f            *os.File
	fSize        int
	segs         []segMeta
	snaps        []uint64 // snapshot WAL indices on disk, ascending
	crashed      bool
	closed       bool
	// failed is sticky: after a segment write error the file may hold a
	// partial frame at an unknown offset, so retrying the same buffer
	// would interleave garbage mid-segment — the one corruption shape
	// recovery cannot repair. The store refuses all further writes
	// instead; the abandoned partial frame reads as an ordinary torn
	// tail on the next Open.
	failed error

	// tailMark is the in-memory high-water mark of the sealed tail marker
	// (see tailmark.go). It may run ahead of the on-disk marker after a
	// failed refresh; the next refresh rewrites it — the marker lags but
	// never overstates the durable extent, so recovery stays sound.
	tailMark uint64

	appended uint64
	flushed  uint64
	fsyncs   uint64
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Appended      uint64 // records accepted by Append
	Flushed       uint64 // records written to the OS
	Fsyncs        uint64 // fsync calls issued
	Segments      int    // segments currently on disk
	NextIndex     uint64 // index the next Append will get
	SnapshotIndex uint64 // WAL index of the newest snapshot
}

// Open opens (creating if necessary) the store in dir and recovers its
// contents: the newest intact snapshot plus the unsealed records after it.
// Corruption — a CRC failure, an unsealable record, a gap in the segment
// chain, or a truncation anywhere but the tail of the newest segment — is
// refused with an error rather than silently skipped. A torn frame at the
// very end of the newest segment is the normal artifact of a crash and is
// dropped.
func Open(dir string, o Options) (*Store, *Recovered, error) {
	if o.Sealer == nil {
		o.Sealer = NopSealer{}
	}
	if o.SegmentSize == 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:     dir,
		lock:    lock,
		sealer:  o.Sealer,
		segSize: o.SegmentSize,
		syncAll: o.FsyncInterval < 0,
		inj:     o.Faults,
	}
	rec, err := s.recover()
	if err != nil {
		s.unlock()
		return nil, nil, err
	}
	return s, rec, nil
}

// recover scans the directory, fills in the Store's append position and
// segment bookkeeping, and returns the recovered snapshot and records.
func (s *Store) recover() (*Recovered, error) {
	rec := &Recovered{}

	// Newest intact snapshot wins; corrupt ones are removed so the
	// fallback is deterministic on the next open too.
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		idx, data, err := readSnapshot(filepath.Join(s.dir, snapshotName(snaps[i])))
		if err == nil {
			rec.Snapshot = data
			rec.SnapshotIndex = idx
			s.snaps = append([]uint64(nil), snaps[:i+1]...)
			break
		}
		if !errors.Is(err, errSnapshotCorrupt) {
			// A transient read failure is not corruption: deleting the
			// file here would destroy an intact snapshot we merely could
			// not read right now.
			return nil, err
		}
		removeSnapshot(s.dir, snaps[i])
	}

	// Scan the segment chain in index order.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		if idx, ok := parseIndexedName(e.Name(), segPrefix, segSuffix); ok {
			firsts = append(firsts, idx)
		}
	}
	slices.Sort(firsts)
	for i, first := range firsts {
		path := filepath.Join(s.dir, segmentName(first))
		res, err := scanSegment(path, func(idx uint64, sealed []byte) error {
			if idx <= rec.SnapshotIndex {
				return nil // already covered by the snapshot
			}
			pt, err := s.sealer.Unseal(sealed)
			if err != nil {
				return fmt.Errorf("store: unseal record %d: %w", idx, err)
			}
			rec.Records = append(rec.Records, pt)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The header's firstIndex has no CRC of its own; the filename
		// (written from the same value) is its integrity check. A
		// mismatch would silently shift every record's index — refuse it
		// like any other corruption.
		if res.firstIndex != first {
			return nil, fmt.Errorf("store: segment %s header claims first record %d",
				segmentName(first), res.firstIndex)
		}
		if i > 0 && res.firstIndex != s.segs[len(s.segs)-1].next {
			return nil, fmt.Errorf("store: gap in WAL: segment starts at record %d, want %d",
				res.firstIndex, s.segs[len(s.segs)-1].next)
		}
		if res.truncated {
			if i != len(firsts)-1 {
				return nil, fmt.Errorf("store: segment %s truncated mid-log", segmentName(first))
			}
			// Repair the crash artifact: chop the torn frame off so the
			// segment scans clean on every later Open — once new appends
			// create a newer segment, this one is no longer "the tail"
			// and a leftover tear would read as mid-log corruption. The
			// repair itself must be durable for the same reason: a crash
			// that loses the truncation resurrects the tear mid-log.
			if err := truncateDurably(path, res.validBytes); err != nil {
				return nil, fmt.Errorf("store: repair torn segment %s: %w", segmentName(first), err)
			}
			syncDir(s.dir)
		}
		s.segs = append(s.segs, segMeta{first: res.firstIndex, next: res.firstIndex + uint64(res.count)})
	}

	if len(s.segs) > 0 {
		if s.segs[0].first > rec.SnapshotIndex+1 {
			return nil, fmt.Errorf("store: WAL starts at record %d but snapshot covers only through %d",
				s.segs[0].first, rec.SnapshotIndex)
		}
		s.nextIndex = s.segs[len(s.segs)-1].next
	} else {
		s.nextIndex = rec.SnapshotIndex + 1
	}
	if s.nextIndex == 0 {
		s.nextIndex = 1
	}

	// Rollback detection: the sealed tail marker pins the durable extent
	// the directory once proved. A recovered WAL that ends short of it is
	// missing fsynced records — an honest crash cannot produce that, only
	// a rolled-back (truncated or partially deleted) log can.
	mark, err := s.readTailMark()
	if err != nil {
		return nil, err
	}
	if extent := s.nextIndex - 1; mark > extent {
		return nil, fmt.Errorf("%w: marker pins durable record %d, recovered log ends at %d",
			ErrTailRollback, mark, extent)
	}
	s.tailMark = mark

	// Appends never continue into a recovered segment (its tail may be
	// torn); a fresh segment is created at nextIndex on the first flush.
	// An empty recovered segment at that index would collide by name, so
	// drop it.
	if n := len(s.segs); n > 0 && s.segs[n-1].first == s.segs[n-1].next {
		_ = os.Remove(filepath.Join(s.dir, segmentName(s.segs[n-1].first)))
		s.segs = s.segs[:n-1]
	}
	return rec, nil
}

// Append seals payload and adds it to the log, returning the record's
// index. The record becomes durable at the next Sync, snapshot or Close
// (or immediately in synchronous mode). It is sealed straight into its frame in
// the pending buffer, which the flush empties and keeps: a warm store
// allocates nothing per record.
func (s *Store) Append(payload []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.crashed {
		return 0, ErrClosed
	}
	if s.failed != nil {
		return 0, s.failed
	}
	start := len(s.pending)
	framed, err := s.sealer.Seal(append(s.pending, make([]byte, recHeaderSize)...), payload)
	if err != nil {
		// A seal failure skips a record mid-log, which is as bad as a
		// write failure: it must trip the sticky barrier so the broker's
		// pre-route Sync sees it and suppresses the enclave outputs.
		return 0, s.failLocked(err)
	}
	putFrameHeader(framed[start:])
	if start == 0 {
		s.pendingFirst = s.nextIndex
	}
	s.pending = framed
	s.pendingCount++
	idx := s.nextIndex
	s.nextIndex++
	s.appended++
	if s.syncAll {
		if err := s.flushLocked(); err != nil {
			return idx, err
		}
	}
	return idx, nil
}

// Sync writes and fsyncs every appended record before it returns: one write
// and one fsync however many records wait.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.crashed {
		return ErrClosed
	}
	return s.flushLocked()
}

// flushLocked writes the pending buffer to the current segment, fsyncs,
// and rotates when the segment exceeds the size threshold. Any write
// error fails the store permanently (see Store.failed).
func (s *Store) flushLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if len(s.pending) == 0 {
		return nil
	}
	// Chaos injection points: a stall holds the store lock for the
	// duration (a degraded device stalls every appender), and injected
	// errors take the same sticky-failure path as real device errors.
	if d := s.inj.stallFor(); d > 0 {
		time.Sleep(d)
	}
	if err := s.inj.writeFault(); err != nil {
		return s.failLocked(err)
	}
	if s.f == nil {
		first := s.pendingFirst
		f, err := os.OpenFile(filepath.Join(s.dir, segmentName(first)),
			os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return s.failLocked(err)
		}
		if _, err := f.Write(segmentHeader(first)); err != nil {
			f.Close()
			return s.failLocked(err)
		}
		s.f = f
		s.fSize = segHeaderSize
		s.segs = append(s.segs, segMeta{first: first, next: first})
		syncDir(s.dir)
	}
	if _, err := s.f.Write(s.pending); err != nil {
		return s.failLocked(err)
	}
	s.fSize += len(s.pending)
	s.flushed += uint64(s.pendingCount)
	s.segs[len(s.segs)-1].next = s.nextIndex
	s.pending = s.pending[:0]
	s.pendingCount = 0
	if err := s.inj.fsyncFault(); err != nil {
		return s.failLocked(err)
	}
	if err := s.f.Sync(); err != nil {
		return s.failLocked(err)
	}
	s.fsyncs++
	if s.fSize >= s.segSize {
		_ = s.f.Close()
		s.f = nil
	}
	return nil
}

// failLocked records the first write error, discards the pending buffer
// (how much of it reached the file is unknown) and closes the segment.
func (s *Store) failLocked(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("store: write failed, log disabled: %w", err)
	}
	s.pending = nil
	s.pendingCount = 0
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
	return s.failed
}

// WriteSnapshot records data (already sealed by the caller) as covering
// every record appended so far.
func (s *Store) WriteSnapshot(data []byte) error {
	s.mu.Lock()
	idx := s.nextIndex - 1
	s.mu.Unlock()
	return s.WriteSnapshotAt(data, idx)
}

// WriteSnapshotAt records data as covering the WAL through index, then
// garbage-collects log segments and snapshots it supersedes. The explicit
// index lets a caller capture the coverage point when the state was
// exported and perform the (fsync-heavy) write off its hot path: appends
// that happen in between are simply replayed on top at recovery. The WAL
// is flushed first so the snapshot never claims records that are not
// durable; a snapshot at or below the newest existing one is a no-op.
func (s *Store) WriteSnapshotAt(data []byte, index uint64) error {
	s.mu.Lock()
	if s.closed || s.crashed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if index > s.nextIndex-1 {
		last := s.nextIndex - 1
		s.mu.Unlock()
		return fmt.Errorf("store: snapshot index %d beyond appended log (%d)", index, last)
	}
	if n := len(s.snaps); n > 0 && index <= s.snaps[n-1] {
		s.mu.Unlock()
		return nil // superseded (e.g. reordered background writes)
	}
	s.mu.Unlock()

	// The fsync-heavy part runs outside the lock: Append on the
	// dispatcher hot path must not stall behind a checkpoint-sized write.
	// The file is self-contained and named by its index, so nothing it
	// needs is guarded by the mutex.
	if err := writeFileAtomic(filepath.Join(s.dir, snapshotName(index)), snapshotHeader(index, data), data); err != nil {
		return err
	}
	syncDir(s.dir)

	s.mu.Lock()
	if s.closed || s.crashed {
		s.mu.Unlock()
		return ErrClosed // file is on disk but unrecorded; the next Open lists it anyway
	}
	var drop []string
	if n := len(s.snaps); n == 0 || index > s.snaps[n-1] {
		s.snaps = append(s.snaps, index)
		drop = s.gcPlanLocked()
	}
	// Snapshot time is also tail-marker time: flushLocked above fsynced
	// everything appended so far, so the durable extent moved and the
	// rollback-detection marker must pin the new position before GC makes
	// the old one the only evidence.
	mark, refresh := s.markTailLocked()
	s.mu.Unlock()
	if refresh {
		if err := s.writeTailMark(mark); err != nil {
			return err
		}
	}
	for _, path := range drop {
		_ = os.Remove(path)
	}
	if len(drop) > 0 {
		syncDir(s.dir)
	}
	return nil
}

// gcPlanLocked drops snapshots beyond the retention count and segments
// whose records are all covered by the oldest retained snapshot from the
// bookkeeping, returning the file paths to unlink. The caller removes
// them outside the lock — unlink plus the directory fsync would
// otherwise stall every Append for the duration. A crash between plan
// and removal only leaves orphan files the next Open re-lists and the
// next GC collects.
func (s *Store) gcPlanLocked() []string {
	var drop []string
	for len(s.snaps) > keepSnapshots {
		drop = append(drop, filepath.Join(s.dir, snapshotName(s.snaps[0])))
		s.snaps = s.snaps[1:]
	}
	if len(s.snaps) == 0 {
		return drop
	}
	keepFrom := s.snaps[0]
	kept := s.segs[:0]
	for i, m := range s.segs {
		// The last segment may be open for appends; never remove it.
		if i < len(s.segs)-1 && m.next-1 <= keepFrom {
			drop = append(drop, filepath.Join(s.dir, segmentName(m.first)))
			continue
		}
		kept = append(kept, m)
	}
	s.segs = kept
	return drop
}

// Crash simulates a SIGKILL: the unflushed buffer is discarded (that tail is what a real crash loses) and the store stops
// accepting writes. Already-fsynced data survives for the next Open.
func (s *Store) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.pending = nil
	s.pendingCount = 0
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
	s.mu.Unlock()
	s.unlock()
}

// Close flushes, fsyncs and closes the store. A clean shutdown also
// refreshes the tail marker so the whole log — not just the portion below
// the last snapshot — is rollback-protected across the restart.
func (s *Store) Close() error {
	s.mu.Lock()
	var err error
	var mark uint64
	var refresh bool
	if !s.closed && !s.crashed {
		err = s.flushLocked()
		if err == nil {
			mark, refresh = s.markTailLocked()
		}
	}
	s.closed = true
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
	s.mu.Unlock()
	if refresh {
		if werr := s.writeTailMark(mark); werr != nil && err == nil {
			err = werr
		}
	}
	s.unlock()
	return err
}

func (s *Store) unlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock != nil {
		_ = s.lock.Close() // closing releases the flock
		s.lock = nil
	}
}

// Failed returns the store's sticky failure, nil while it is healthy. A
// failed store refuses all further writes (see the failed field); the
// health endpoint reports it so an operator learns the compartment went
// mute on durability grounds rather than guessing from silence.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Appended:  s.appended,
		Flushed:   s.flushed,
		Fsyncs:    s.fsyncs,
		Segments:  len(s.segs),
		NextIndex: s.nextIndex,
	}
	if len(s.snaps) > 0 {
		st.SnapshotIndex = s.snaps[len(s.snaps)-1]
	}
	return st
}
