package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// errSnapshotCorrupt marks a snapshot refused for its *content* (format or
// CRC). Only these may be deleted and fallen back from — a transient read
// error must propagate, or recovery would destroy intact snapshots it
// merely failed to read.
var errSnapshotCorrupt = errors.New("store: snapshot corrupt")

// Snapshot file layout:
//
//	magic u32 | version u32 | walIndex u64 | length u32 | crc32 u32 | data
//
// walIndex is the index of the last WAL record whose effect the snapshot
// state includes; recovery replays strictly newer records on top. The CRC
// covers walIndex and length as well as the data — a flipped walIndex
// passing validation would make replay silently skip the records between
// the real and claimed coverage point. The data is stored verbatim — the
// caller (the enclave runtime) seals it before handing it to the store,
// so sealing happens exactly once and inside the trusted boundary.
const snapHeaderSize = 24

// snapCRC covers the walIndex and length fields (bytes 8..20 of the
// header) plus the data.
func snapCRC(hdr, data []byte) uint32 {
	crc := crc32.ChecksumIEEE(hdr[8:20])
	return crc32.Update(crc, crc32.IEEETable, data)
}

// snapshotHeader builds the snapshot file header for data. The file is the
// header followed by data verbatim, written as two parts so a
// checkpoint-sized blob is never copied into a second buffer.
func snapshotHeader(walIndex uint64, data []byte) []byte {
	hdr := make([]byte, 0, snapHeaderSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, segMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, walIndex)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(data)))
	return binary.LittleEndian.AppendUint32(hdr, snapCRC(hdr, data))
}

// readSnapshot loads and validates one snapshot file.
func readSnapshot(path string) (walIndex uint64, data []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(raw) < snapHeaderSize {
		return 0, nil, fmt.Errorf("%w: %s: short header", errSnapshotCorrupt, path)
	}
	if binary.LittleEndian.Uint32(raw[0:4]) != segMagic {
		return 0, nil, fmt.Errorf("%w: %s: bad magic", errSnapshotCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != segVersion {
		return 0, nil, fmt.Errorf("%w: %s: unsupported version %d", errSnapshotCorrupt, path, v)
	}
	walIndex = binary.LittleEndian.Uint64(raw[8:16])
	n := int(binary.LittleEndian.Uint32(raw[16:20]))
	sum := binary.LittleEndian.Uint32(raw[20:24])
	body := raw[snapHeaderSize:]
	if len(body) != n {
		return 0, nil, fmt.Errorf("%w: %s: truncated (%d of %d bytes)", errSnapshotCorrupt, path, len(body), n)
	}
	if snapCRC(raw[:20], body) != sum {
		return 0, nil, fmt.Errorf("%w: %s: failed CRC", errSnapshotCorrupt, path)
	}
	return walIndex, body, nil
}

// listSnapshots returns the WAL indices of all snapshot files in dir,
// sorted ascending.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseIndexedName(e.Name(), snapPrefix, snapSuffix); ok {
			out = append(out, idx)
		}
	}
	slices.Sort(out)
	return out, nil
}

// removeSnapshot deletes one snapshot file, ignoring absence.
func removeSnapshot(dir string, index uint64) {
	_ = os.Remove(filepath.Join(dir, snapshotName(index)))
}
