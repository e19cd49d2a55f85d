package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// parentSegment is a segment written before segments were zero-filled:
// record(0)..record(2) and record(3)..record(4) in two Syncs, then a crash.
// It ends at its last frame.
const parentSegment = "544642530100000001000000000000000b00000009e63e6a9cb38d047265636f72642d" +
	"303030300b0000009fd6391d2c9aed397265636f72642d303030310b00000025873084fce04d7e7265636f72" +
	"642d303030320b000000b3b737f34cc92d437265636f72642d303030330b0000001022536d5c150df1726563" +
	"6f72642d30303034"

// TestParentLayoutSegmentRecovers: a segment without fill recovers record
// for record and is left as it was; the store appends to a new, zero-filled
// segment, and a reopened store cuts that fill so the segment ends at its
// last frame again. The same records written now read back as the
// fixture, byte for byte.
func TestParentLayoutSegmentRecovers(t *testing.T) {
	fixture, err := hex.DecodeString(parentSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open a segment without fill: %v", err)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r, record(i)) {
			t.Fatalf("record %d = %q", i, r)
		}
	}
	mustAppend(t, s, record(5))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, segmentName(6))
	if fi, err := os.Stat(newest); err != nil || fi.Size() != fillChunk {
		t.Fatalf("new segment: %v, want %d zero-filled bytes", err, fillChunk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(rec.Records) != 6 || !bytes.Equal(rec.Records[5], record(5)) {
		t.Fatalf("reopen recovered %d records, want 6", len(rec.Records))
	}
	if fi, err := os.Stat(newest); err != nil || fi.Size() != segHeaderSize+recHeaderSize+int64(len(record(5))) {
		t.Fatalf("reopened store left the fill: %v", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, segmentName(1))); !bytes.Equal(got, fixture) {
		t.Fatal("recovery rewrote the segment without fill")
	}

	// The same two flushes written now, cut at reopen, are the fixture.
	dir = t.TempDir()
	s3, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s3, record(i))
		if i == 2 || i == 4 {
			if err := s3.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s3.Crash()
	s4, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s4.Crash()
	if got, _ := os.ReadFile(filepath.Join(dir, segmentName(1))); !bytes.Equal(got, fixture) {
		t.Fatalf("segment written now\n got %x\nwant %x", got, fixture)
	}
}

// TestWALClosedSegmentHoldsNoFill: the fill stops at the rotation
// threshold, so every closed segment ends at its last frame.
func TestWALClosedSegmentHoldsNoFill(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{SegmentSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustAppend(t, s, paddedRecord(i, 100))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) < 3 {
		t.Fatalf("want several segments, have %d", len(segs))
	}
	for _, seg := range segs[:len(segs)-1] {
		data, _ := os.ReadFile(seg)
		spans := frameSpans(data)
		if len(spans) == 0 || spans[len(spans)-1][1] != len(data) {
			t.Fatalf("closed segment %s: %d bytes, frames end at %v", filepath.Base(seg), len(data), spans)
		}
	}
}

// TestPowerCutRecoversSyncedPrefix: power fails in the middle of a flush,
// and any subset of the 512-byte sectors that flush wrote may not have
// reached the disk; a sector that did not still reads as the fill. On a
// copy of the directory with such a subset zeroed, Open succeeds and
// returns every record of the completed Syncs in order, then the records
// of the last flush up to its first torn frame, and none after it. A
// non-zero garbled byte in a synced record is still refused.
func TestPowerCutRecoversSyncedPrefix(t *testing.T) {
	root := t.TempDir()
	for seed := int64(1); seed <= 200; seed++ {
		powerCut(t, seed, root)
	}
}

// powerCut runs one seed in root/store, simulating each power cut on the
// copy root/copy.
func powerCut(t *testing.T, seed int64, root string) {
	rng := rand.New(rand.NewSource(seed))
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	// Payload bytes are never zero, and no synced length is a multiple of
	// 256, so no piece of a synced frame is all zero by chance.
	nonZero := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(1 + rng.Intn(255))
		}
		return p
	}
	payload := func() []byte {
		n := 1 + rng.Intn(600)
		if n%256 == 0 {
			n++
		}
		return nonZero(n)
	}
	dir, cp := filepath.Join(root, "store"), filepath.Join(root, "copy")
	for _, d := range []string{dir, cp} {
		if err := os.RemoveAll(d); err != nil {
			fatalf("%v", err)
		}
	}
	s, _, err := Open(dir, Options{})
	if err != nil {
		fatalf("%v", err)
	}
	var synced [][]byte
	for rounds := 1 + rng.Intn(4); rounds > 0; rounds-- {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			p := payload()
			if _, err := s.Append(p); err != nil {
				fatalf("%v", err)
			}
			synced = append(synced, p)
		}
		if err := s.Sync(); err != nil {
			fatalf("%v", err)
		}
	}
	// The last flush: a filler frame sized so the next frame's header
	// straddles a sector boundary, then a few more.
	start := s.fSize
	boundary := (start/sectorSize + 1) * sectorSize
	for boundary-start < 2*recHeaderSize+1 {
		boundary += sectorSize
	}
	straddle := boundary - 1 - rng.Intn(recHeaderSize-1) // header starts 1..11 bytes before it
	last := [][]byte{nonZero(straddle - start - recHeaderSize)}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		last = append(last, payload())
	}
	for _, p := range last {
		if _, err := s.Append(p); err != nil {
			fatalf("%v", err)
		}
	}
	if err := s.Sync(); err != nil {
		fatalf("%v", err)
	}
	end := s.fSize
	s.Crash()
	image, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		fatalf("%v", err)
	}
	spans := frameSpans(image)
	if len(spans) != len(synced)+len(last) || spans[len(synced)+1][0] != straddle {
		fatalf("frames at %v, want the header of frame %d at %d", spans, len(synced)+1, straddle)
	}
	flushSpans := spans[len(synced):]

	lo, hi := start/sectorSize, (end-1)/sectorSize
	all := make([]int, 0, hi-lo+1)
	for sec := lo; sec <= hi; sec++ {
		all = append(all, sec)
	}
	subsets := [][]int{
		nil,                     // every sector made it
		all,                     // none did
		{start / sectorSize},    // the first frame's header
		{straddle / sectorSize}, // the straddling header's first part
		{boundary / sectorSize}, // and its second
	}
	for r := 0; r < 2; r++ {
		var sub []int
		for _, sec := range all {
			if rng.Intn(2) == 0 {
				sub = append(sub, sec)
			}
		}
		subsets = append(subsets, sub)
	}
	for _, sub := range subsets {
		img := bytes.Clone(image)
		for _, sec := range sub {
			// Only the flush's own bytes are lost: the part of the sector
			// before it holds synced records, the part after it the fill.
			clear(img[max(sec*sectorSize, start):min((sec+1)*sectorSize, end)])
		}
		want := append([][]byte(nil), synced...)
		cut := start
		for i, sp := range flushSpans {
			if !bytes.Equal(img[sp[0]:sp[1]], image[sp[0]:sp[1]]) {
				break // the first torn frame: nothing from here on
			}
			want = append(want, last[i])
			cut = sp[1]
		}
		powerCutCopy(t, dir, cp, img[:end], len(img))
		s, rec, err := Open(cp, Options{})
		if err != nil {
			fatalf("sectors %v lost: Open: %v", sub, err)
		}
		s.Crash()
		if len(rec.Records) != len(want) {
			fatalf("sectors %v lost: recovered %d records, want %d", sub, len(rec.Records), len(want))
		}
		for i := range want {
			if !bytes.Equal(rec.Records[i], want[i]) {
				fatalf("sectors %v lost: record %d differs", sub, i)
			}
		}
		if fi, err := os.Stat(filepath.Join(cp, segmentName(1))); err != nil || fi.Size() != int64(cut) {
			fatalf("sectors %v lost: repaired segment %v, want %d bytes", sub, err, cut)
		}
	}

	// A garbled byte in a synced record is corruption, never a tear.
	img := bytes.Clone(image)
	sp := spans[rng.Intn(len(synced))]
	at := sp[0] + rng.Intn(sp[1]-sp[0])
	img[at] = byte(1 + (int(img[at])+rng.Intn(254))%255) // non-zero, and not the old byte
	powerCutCopy(t, dir, cp, img[:end], len(img))
	if _, _, err := Open(cp, Options{}); err == nil {
		fatalf("byte %d of a synced record garbled to %#x: Open succeeded", at, img[at])
	}
}

// powerCutCopy copies the store directory dir to cp, with its one segment
// replaced by seg and zero-filled to size. The zeros are copied as a hole,
// which reads back the same without writing them.
func powerCutCopy(t *testing.T, dir, cp string, seg []byte, size int) {
	t.Helper()
	if err := os.MkdirAll(cp, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(cp, e.Name())
		if e.Name() == segmentName(1) {
			err = os.WriteFile(path, seg, 0o644)
			if err == nil {
				err = os.Truncate(path, int64(size))
			}
		} else {
			var data []byte
			if data, err = os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
				err = os.WriteFile(path, data, 0o644)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// faultsOnPath checks the fault injector on one barrier path. prime leaves
// the store so that its next Sync takes that path: a write or fsync fault
// there trips the sticky failure, and a stall delays the flush, counts in
// Stats.SyncTime and leaves the store healthy.
func faultsOnPath(t *testing.T, prime func(t *testing.T, s *Store), extends bool) {
	const stall = 30 * time.Millisecond
	for _, tc := range []struct {
		name string
		arm  func(*FaultInjector)
	}{
		{"write", func(i *FaultInjector) { i.FailWrites(errors.New("injected write error")) }},
		{"fsync", func(i *FaultInjector) { i.FailFsync(errors.New("injected fsync error")) }},
		{"stall", func(i *FaultInjector) { i.Stall(stall) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := &FaultInjector{}
			s, _, err := Open(t.TempDir(), Options{Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			prime(t, s)
			fill, before := s.fFill, s.Stats().SyncTime
			tc.arm(inj)
			err = s.Sync()
			inj.Clear()
			if tc.name != "stall" {
				if err == nil || s.Failed() == nil {
					t.Fatalf("Sync = %v, Failed() = %v: the fault did not trip the store", err, s.Failed())
				}
				if _, err := s.Append([]byte("after")); err == nil {
					t.Fatal("store recovered from sticky failure")
				}
				return
			}
			if err != nil || s.Failed() != nil {
				t.Fatalf("stalled Sync = %v, Failed() = %v", err, s.Failed())
			}
			if d := s.Stats().SyncTime - before; d < stall {
				t.Fatalf("stalled Sync counted %v of flush time, want ≥ %v", d, stall)
			}
			if grew := s.fFill > fill; grew != extends {
				t.Fatalf("flush extended the fill: %v, want %v", grew, extends)
			}
		})
	}
}

// TestFaultInjectorFdatasyncPath: faults on a flush that fits inside the
// fill.
func TestFaultInjectorFdatasyncPath(t *testing.T) {
	faultsOnPath(t, func(t *testing.T, s *Store) {
		mustAppend(t, s, record(0))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, s, record(1))
	}, false)
}

// TestFaultInjectorFsyncPath: faults on a flush that runs past the fill and
// extends it, so it fsyncs in full.
func TestFaultInjectorFsyncPath(t *testing.T) {
	faultsOnPath(t, func(t *testing.T, s *Store) {
		mustAppend(t, s, record(0))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, s, make([]byte, fillChunk))
	}, true)
}

// TestTornFrameMidLogRefused: a tear is an artifact of the last flush, so
// a frame with a zero sector in any segment but the newest is refused.
func TestTornFrameMidLogRefused(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 1000}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, s, paddedRecord(i, 100))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	s.Crash()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) < 2 {
		t.Fatalf("want several segments, have %d", len(segs))
	}
	data, _ := os.ReadFile(segs[0])
	spans := frameSpans(data)
	sp := spans[len(spans)/2]
	from := (sp[0]/sectorSize + 1) * sectorSize
	if from >= sp[1] {
		t.Fatalf("frame [%d, %d) does not cross a sector boundary", sp[0], sp[1])
	}
	clear(data[from:sp[1]])
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, opts); err == nil {
		t.Fatal("a torn frame in a closed segment was not refused")
	}
}
