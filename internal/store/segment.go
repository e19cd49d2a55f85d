package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
)

// On-disk layout of one WAL segment:
//
//	header:  magic u32 | version u32 | firstIndex u64
//	records: { length u32 | crc32(payload) u32 | crc32(hdr[0:8]) u32 | payload } *
//
// Records are sealed before framing, so the length and CRCs cover
// ciphertext. The frame header carries its own CRC: without it, a
// corrupted length field would read as "payload extends past EOF" and be
// misclassified as a torn tail — silently truncating durable records
// instead of refusing corruption. With it, the only remaining ambiguity
// is a partial frame at the very end of the *newest* segment, which is
// the normal artifact of a crash mid-write and is dropped; any CRC
// mismatch, or a partial frame in an older segment, refuses recovery.
const (
	segMagic      = 0x53424654 // "SBFT"
	segVersion    = 1
	segHeaderSize = 16
	recHeaderSize = 12
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".bin"
)

func segmentName(firstIndex uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstIndex, segSuffix)
}

func snapshotName(index uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, index, snapSuffix)
}

// parseIndexedName extracts the hex index from "<prefix><16 hex><suffix>".
func parseIndexedName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexPart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexPart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// putFrameHeader fills the record header at the front of frame for the
// sealed record that follows it: Append seals each record straight into its
// place in the pending buffer and writes the header once the length is
// known.
func putFrameHeader(frame []byte) {
	sealed := frame[recHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(sealed)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(sealed))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(frame[0:8]))
}

// segmentHeader builds the 16-byte segment header.
func segmentHeader(firstIndex uint64) []byte {
	h := make([]byte, 0, segHeaderSize)
	h = binary.LittleEndian.AppendUint32(h, segMagic)
	h = binary.LittleEndian.AppendUint32(h, segVersion)
	h = binary.LittleEndian.AppendUint64(h, firstIndex)
	return h
}

// scanResult is one segment's scan outcome.
type scanResult struct {
	firstIndex uint64
	count      int   // valid records found
	truncated  bool  // a partial frame ended the segment early
	validBytes int64 // file offset just past the last intact record
}

// scanSegment reads every intact record of one segment, calling fn with the
// record's global index and sealed payload. It returns how far it got and
// whether the segment ended in a torn (partially written) frame. CRC
// mismatches are returned as errors — torn tails are not.
func scanSegment(path string, fn func(index uint64, sealed []byte) error) (scanResult, error) {
	var res scanResult
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if len(data) < segHeaderSize {
		return res, fmt.Errorf("store: segment %s: short header (%d bytes)", path, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:4]) != segMagic {
		return res, fmt.Errorf("store: segment %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
		return res, fmt.Errorf("store: segment %s: unsupported version %d", path, v)
	}
	res.firstIndex = binary.LittleEndian.Uint64(data[8:16])
	off := segHeaderSize
	res.validBytes = int64(off)
	for {
		if off == len(data) {
			return res, nil // clean end
		}
		if len(data)-off < recHeaderSize {
			res.truncated = true
			return res, nil // torn frame header
		}
		hdr := data[off : off+recHeaderSize]
		if crc32.ChecksumIEEE(hdr[0:8]) != binary.LittleEndian.Uint32(hdr[8:12]) {
			return res, fmt.Errorf("store: segment %s: record %d frame header failed CRC",
				path, res.firstIndex+uint64(res.count))
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		off += recHeaderSize
		if len(data)-off < n {
			// The header checked out, so the length is trustworthy: the
			// payload genuinely ends past EOF — a torn write.
			res.truncated = true
			return res, nil
		}
		payload := data[off : off+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return res, fmt.Errorf("store: segment %s: record %d failed CRC",
				path, res.firstIndex+uint64(res.count))
		}
		off += n
		if fn != nil {
			if err := fn(res.firstIndex+uint64(res.count), payload); err != nil {
				return res, err
			}
		}
		res.count++
		res.validBytes = int64(off)
	}
}

// truncateDurably truncates path to size and fsyncs the result.
func truncateDurably(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// writeFileAtomic writes parts, concatenated, to path via a temp file,
// fsync and rename.
func writeFileAtomic(path string, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, data := range parts {
		if _, err := f.Write(data); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory so renames and removals are durable.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
