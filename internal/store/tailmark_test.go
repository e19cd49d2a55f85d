package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// tamperSetup produces a store directory with a snapshot at record 4 and
// a WAL extending to record 8, cleanly closed — so the sealed tail marker
// pins record 8 as durable.
func tamperSetup(t *testing.T) (dir string, sealer Sealer) {
	t.Helper()
	dir = t.TempDir()
	sealer = sessionSealer{key: testKey(5)}
	s, _, err := Open(dir, syncOpts(sealer))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshot([]byte("state@4")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, sealer
}

// TestTailRollbackSegmentDeleted: deleting the WAL segment rolls the
// recoverable history back to the snapshot. Without the marker this is
// indistinguishable from a crash right after the snapshot; with it, the
// pinned durable extent exposes the missing records.
func TestTailRollbackSegmentDeleted(t *testing.T) {
	dir, sealer := tamperSetup(t)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = Open(dir, syncOpts(sealer))
	if !errors.Is(err, ErrTailRollback) {
		t.Fatalf("rolled-back WAL recovered with err=%v, want ErrTailRollback", err)
	}
}

// TestTailRollbackTruncatedSegment: chopping bytes off the newest segment
// normally reads as the torn tail of an honest crash and is silently
// dropped. The marker turns that into a detected rollback: the dropped
// records were proven durable, so an honest crash cannot have lost them.
func TestTailRollbackTruncatedSegment(t *testing.T) {
	dir, sealer := tamperSetup(t)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d found)", err, len(segs))
	}
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, syncOpts(sealer))
	if !errors.Is(err, ErrTailRollback) {
		t.Fatalf("truncated WAL recovered with err=%v, want ErrTailRollback", err)
	}
}

// TestTailMarkerTamperRefused: the marker is sealed under the enclave
// sealing key precisely so a rollback adversary cannot rewrite it to
// match a truncated log. Any bit flip must refuse recovery.
func TestTailMarkerTamperRefused(t *testing.T) {
	dir, sealer := tamperSetup(t)
	path := filepath.Join(dir, tailMarkName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, syncOpts(sealer)); err == nil {
		t.Fatal("tampered tail marker accepted")
	}
}

// TestHonestCrashNotFlagged: a SIGKILL loses only the un-fsynced tail,
// which the marker never covered — recovery must succeed, and the
// reopened store must keep working across further marker refreshes.
func TestHonestCrashNotFlagged(t *testing.T) {
	dir := t.TempDir()
	sealer := sessionSealer{key: testKey(6)}
	// Default options keep post-snapshot appends in the buffer so the
	// simulated crash genuinely loses them.
	s, _, err := Open(dir, Options{Sealer: sealer})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, s, record(i))
	}
	if err := s.WriteSnapshot([]byte("state@4")); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		mustAppend(t, s, record(i))
	}
	s.Crash()

	s2, rec, err := Open(dir, Options{Sealer: sealer})
	if err != nil {
		t.Fatalf("honest crash flagged as rollback: %v", err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d un-fsynced records after crash", len(rec.Records))
	}
	// Life goes on: new appends, a new snapshot (marker refresh), a clean
	// close and a clean reopen.
	for i := 4; i < 10; i++ {
		mustAppend(t, s2, record(i))
	}
	if err := s2.WriteSnapshot([]byte("state@10")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, _, err := Open(dir, syncOpts(sealer))
	if err != nil {
		t.Fatalf("reopen after marker refresh: %v", err)
	}
	s3.Close()
}
