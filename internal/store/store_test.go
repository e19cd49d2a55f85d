package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
)

// sessionSealer seals with AES-GCM under a fixed key — the test stand-in
// for an enclave sealing key.
type sessionSealer struct{ key crypto.SessionKey }

func (s sessionSealer) session() *crypto.Session {
	sess, err := crypto.NewSession(s.key, 2)
	if err != nil {
		panic(err)
	}
	return sess
}

func (s sessionSealer) Seal(dst, data []byte) ([]byte, error) {
	return s.session().AppendSealRandom(dst, data, nil)
}

func (s sessionSealer) Unseal(sealed []byte) ([]byte, error) {
	return s.session().Open(sealed, nil)
}

func testKey(b byte) crypto.SessionKey {
	var k crypto.SessionKey
	for i := range k {
		k[i] = b
	}
	return k
}

// syncOpts flushes on every append so tests see bytes on disk immediately.
func syncOpts(sealer Sealer) Options {
	return Options{Sealer: sealer, FsyncInterval: -1}
}

func mustAppend(t *testing.T, s *Store, payload []byte) uint64 {
	t.Helper()
	idx, err := s.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func record(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records))
	}
	for i := 0; i < 10; i++ {
		if idx := mustAppend(t, s, record(i)); idx != uint64(i+1) {
			t.Fatalf("record %d got index %d", i, idx)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec.Records))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, record(i)) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
	// Appends continue after the recovered log.
	if idx := mustAppend(t, s2, record(10)); idx != 11 {
		t.Fatalf("post-recovery append got index %d, want 11", idx)
	}
}

func TestSnapshotReplayAndGC(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so GC has something to collect.
	opts := Options{FsyncInterval: -1, SegmentSize: 128}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshot([]byte("state@20")); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 25; i++ {
		mustAppend(t, s, record(i))
	}
	// A second snapshot supersedes the first; with keepSnapshots=2 both
	// stay, and segments below the first snapshot are collected.
	if err := s.WriteSnapshot([]byte("state@25")); err != nil {
		t.Fatal(err)
	}
	for i := 25; i < 28; i++ {
		mustAppend(t, s, record(i))
	}
	if st := s.Stats(); st.SnapshotIndex != 25 {
		t.Fatalf("snapshot index = %d, want 25", st.SnapshotIndex)
	}
	s.Close()

	s2, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !bytes.Equal(rec.Snapshot, []byte("state@25")) || rec.SnapshotIndex != 25 {
		t.Fatalf("recovered snapshot %q @%d", rec.Snapshot, rec.SnapshotIndex)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d post-snapshot records, want 3", len(rec.Records))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, record(25+i)) {
			t.Fatalf("replay record %d = %q", i, r)
		}
	}
	// GC actually removed early segments: the first remaining segment must
	// start at or after a record covered by the oldest retained snapshot.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) == 0 {
		t.Fatal("no segments on disk")
	}
	first, ok := parseIndexedName(filepath.Base(segs[0]), segPrefix, segSuffix)
	if !ok || first == 1 {
		t.Fatalf("GC kept the genesis segment (first=%d)", first)
	}
}

func TestRecoverTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, record(i))
	}
	// Die abruptly: a clean Close would refresh the tail marker, and a
	// marker covering record 5 turns the truncation below into a detected
	// rollback rather than an honest torn tail.
	s.Crash()
	// Chop the newest segment mid-record: a torn frame, as a crash during
	// a write would leave.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %d", len(segs))
	}
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatalf("torn tail must recover cleanly: %v", err)
	}
	if len(rec.Records) != 4 {
		t.Fatalf("recovered %d records, want 4 (torn 5th dropped)", len(rec.Records))
	}
	// The tear must have been repaired, not just tolerated: once new
	// appends open a newer segment, the old one is no longer the tail —
	// a leftover tear there would brick every subsequent Open as mid-log
	// corruption.
	mustAppend(t, s2, record(4))
	s2.Close()
	s3, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatalf("open after post-tear appends: %v", err)
	}
	defer s3.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records after repair, want 5", len(rec.Records))
	}
}

func TestRecoverRefusesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, record(i))
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	data, _ := os.ReadFile(segs[0])
	data[segHeaderSize+recHeaderSize+2] ^= 0xff // flip a byte inside record 1
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, syncOpts(nil)); err == nil {
		t.Fatal("corrupt record was not refused")
	}
}

func TestRecoverRefusesCorruptLengthField(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, record(i))
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	data, _ := os.ReadFile(segs[0])
	// Blow up record 0's length field so the frame appears to extend past
	// EOF. Without a header CRC this would be misread as a torn tail and
	// "repaired" by truncating away four durable records.
	data[segHeaderSize+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, syncOpts(nil)); err == nil {
		t.Fatal("corrupted length field was not refused")
	}
	// And nothing was truncated by the failed open.
	after, _ := os.ReadFile(segs[0])
	if len(after) != len(data) {
		t.Fatalf("failed recovery truncated the segment (%d -> %d bytes)", len(data), len(after))
	}
}

func TestRecoverRefusesHeaderIndexMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, s, record(i))
	}
	s.Close()
	// Corrupt the header's firstIndex (its integrity check is the
	// filename): a shifted index would silently replay records at wrong
	// positions, so it must be refused.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	data, _ := os.ReadFile(segs[0])
	data[8] ^= 0xff // low byte of firstIndex
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, syncOpts(nil)); err == nil {
		t.Fatal("segment with mismatched header index was not refused")
	}
}

func TestRecoverRefusesTruncatedMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FsyncInterval: -1, SegmentSize: 64}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mustAppend(t, s, record(i))
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) < 2 {
		t.Fatalf("want several segments, have %d", len(segs))
	}
	info, _ := os.Stat(segs[0])
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, opts); err == nil {
		t.Fatal("mid-log truncation was not refused")
	}
}

func TestSealedRecoveryWrongKeyRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(sessionSealer{key: testKey(1)}))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, []byte("sealed-record"))
	s.Close()

	// The right key round-trips.
	s2, rec, err := Open(dir, syncOpts(sessionSealer{key: testKey(1)}))
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if len(rec.Records) != 1 || !bytes.Equal(rec.Records[0], []byte("sealed-record")) {
		t.Fatalf("sealed round trip = %q", rec.Records)
	}
	// A different sealing key (another enclave identity) must be refused.
	if _, _, err := Open(dir, syncOpts(sessionSealer{key: testKey(2)})); err == nil {
		t.Fatal("unseal under the wrong identity succeeded")
	}
}

func TestSealedRecordsAreNotPlaintext(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(sessionSealer{key: testKey(7)}))
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("super-secret-compartment-state")
	mustAppend(t, s, secret)
	if err := s.WriteSnapshot([]byte("sealed-by-caller")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, secret) {
			t.Fatalf("%s contains the plaintext record", f.Name())
		}
	}
}

func TestOpenRefusesSecondOwner(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	// A second live owner would interleave appends into one segment chain.
	if _, _, err := Open(dir, syncOpts(nil)); err == nil {
		t.Fatal("second Open of a live store directory succeeded")
	}
	s.Close()
	// Close releases the lock; the next owner proceeds.
	s2, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestCrashDropsUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	// Default options: nothing flushes unless Sync is called.
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 8; i++ {
		mustAppend(t, s, record(i)) // never flushed
	}
	s.Crash()
	if _, err := s.Append([]byte("late")); err == nil {
		t.Fatal("append accepted after crash")
	}
	s2, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want the 3 flushed ones", len(rec.Records))
	}
	// The lost tail's indices are reused: the log stays gap-free.
	if idx := mustAppend(t, s2, record(3)); idx != 4 {
		t.Fatalf("post-crash append got index %d, want 4", idx)
	}
}

// TestStoreBuffersUntilBarrier: with default options no timer flushes the log.
// Appended records stay in memory however long the store idles, and reach
// disk only at Sync (one fsync for all of them), at a snapshot and at
// Close.
func TestStoreBuffersUntilBarrier(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, record(i))
	}
	time.Sleep(20 * time.Millisecond)
	if st := s.Stats(); st.Flushed != 0 || st.Fsyncs != 0 {
		t.Fatalf("idle store flushed on its own: %+v", st)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushed != 5 || st.Fsyncs != 1 {
		t.Fatalf("after Sync: flushed %d in %d fsyncs, want 5 in 1", st.Flushed, st.Fsyncs)
	}
	for i := 5; i < 8; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshotAt([]byte("snap"), 6); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushed != 8 {
		t.Fatalf("after snapshot: flushed %d of 8", st.Flushed)
	}
	for i := 8; i < 10; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushed != 10 {
		t.Fatalf("after Close: flushed %d of 10", st.Flushed)
	}
	s2, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.SnapshotIndex != 6 || len(rec.Records) != 4 {
		t.Fatalf("recovered snapshot @%d + %d records, want @6 + 4", rec.SnapshotIndex, len(rec.Records))
	}
}

// TestSnapshotFileEncoding pins the snapshot file byte for byte: the header
// and the blob are written as two parts, and the file must read exactly as
// the single-buffer encoding did.
func TestSnapshotFileEncoding(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 7; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshot([]byte("sealed-state")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotName(7)))
	if err != nil {
		t.Fatal(err)
	}
	// magic | version | walIndex 7 | length 12 | crc32 | "sealed-state"
	const want = "544642530100000007000000000000000c00000038afaffa7365616c65642d7374617465"
	if hex.EncodeToString(got) != want {
		t.Fatalf("snapshot file\n got %x\nwant %s", got, want)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshot([]byte("snap-a")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshot([]byte("snap-b")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Corrupt the newest snapshot; recovery must fall back to the older
	// one and replay the records between them.
	path := filepath.Join(dir, snapshotName(6))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, syncOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !bytes.Equal(rec.Snapshot, []byte("snap-a")) || rec.SnapshotIndex != 4 {
		t.Fatalf("fallback snapshot = %q @%d", rec.Snapshot, rec.SnapshotIndex)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records after fallback, want 2", len(rec.Records))
	}
}

// aeadSealer seals like an enclave does, under one AES-GCM session built
// once.
type aeadSealer struct{ s *crypto.Session }

func (a aeadSealer) Seal(dst, data []byte) ([]byte, error) {
	return a.s.AppendSealRandom(dst, data, nil)
}
func (a aeadSealer) Unseal(sealed []byte) ([]byte, error) { return a.s.Open(sealed, nil) }

// TestWALAppendWarmAllocatesNothing: a record is sealed straight into its
// frame in the pending buffer, which a flush empties but keeps, so once the
// buffer has grown an Append allocates nothing.
func TestWALAppendWarmAllocatesNothing(t *testing.T) {
	sess, err := crypto.NewSession(testKey(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 300)
	for name, sealer := range map[string]Sealer{"plain": NopSealer{}, "sealed": aeadSealer{sess}} {
		s, _, err := Open(t.TempDir(), Options{Sealer: sealer})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := s.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.Append(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Append on a warm store allocates %.1f times per record", name, allocs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkWALAppend is the durability-path baseline: 1 KiB records, synced
// every 32 appends, since nothing else flushes the buffer. The Sealed
// variant adds the AES-GCM sealing cost every record pays in a deployment.
func BenchmarkWALAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 1024)
	bench := func(b *testing.B, sealer Sealer) {
		s, _, err := Open(b.TempDir(), Options{Sealer: sealer})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Append(payload); err != nil {
				b.Fatal(err)
			}
			if i%32 == 31 {
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Plain", func(b *testing.B) { bench(b, nil) })
	b.Run("Sealed", func(b *testing.B) { bench(b, sessionSealer{key: testKey(9)}) })
}

// TestFaultInjectorWriteError pins that an injected write error trips the
// sticky-failure barrier exactly like a real device error: the store
// refuses all further writes and Failed() reports the cause.
func TestFaultInjectorWriteError(t *testing.T) {
	inj := &FaultInjector{}
	s, _, err := Open(t.TempDir(), Options{FsyncInterval: -1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected write error")
	inj.FailWrites(boom)
	if _, err := s.Append([]byte("doomed")); err == nil {
		t.Fatal("append succeeded past injected write error")
	}
	if inj.Injected() == 0 {
		t.Fatal("injector did not count the applied fault")
	}
	// Sticky: clearing the fault must not resurrect the store.
	inj.Clear()
	if _, err := s.Append([]byte("still doomed")); err == nil {
		t.Fatal("store recovered from sticky failure")
	}
	if s.Failed() == nil || !strings.Contains(s.Failed().Error(), "injected write error") {
		t.Fatalf("Failed() = %v, want injected cause", s.Failed())
	}
}

// TestFaultInjectorFsyncError pins the same sticky path via Sync.
func TestFaultInjectorFsyncError(t *testing.T) {
	inj := &FaultInjector{}
	s, _, err := Open(t.TempDir(), Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	inj.FailFsync(errors.New("injected fsync error"))
	if err := s.Sync(); err == nil {
		t.Fatal("sync succeeded past injected fsync error")
	}
	if s.Failed() == nil {
		t.Fatal("fsync fault did not stick")
	}
}

// TestFaultInjectorStall pins that a stall delays the flush but leaves the
// store healthy: records survive a reopen.
func TestFaultInjectorStall(t *testing.T) {
	inj := &FaultInjector{}
	dir := t.TempDir()
	s, _, err := Open(dir, Options{FsyncInterval: -1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	inj.Stall(30 * time.Millisecond)
	start := time.Now()
	if _, err := s.Append([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("stalled append returned in %v, want ≥30ms", d)
	}
	if s.Failed() != nil {
		t.Fatalf("stall failed the store: %v", s.Failed())
	}
	inj.Clear()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0]) != "slow" {
		t.Fatalf("stalled record lost: %v", rec.Records)
	}
}
