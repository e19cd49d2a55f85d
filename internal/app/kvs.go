package app

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// KVS op codes.
const (
	opPut uint8 = iota + 1
	opGet
	opDelete
)

// KVS is the trusted key-value store application from the paper's first use
// case. Operations are PUT/GET/DELETE encoded with EncodePut and friends.
type KVS struct {
	mu   sync.RWMutex
	data map[string][]byte
	// order caches the keys in sorted order — the order of the canonical
	// encoding Snapshot returns and Digest hashes. An insert or a delete
	// sets it to nil; the next Snapshot or Digest rebuilds it, under the
	// write lock. Overwriting a value keeps it. size is the exact length of
	// that encoding, kept current by every write.
	order []string
	size  int
}

// NewKVS returns an empty key-value store.
func NewKVS() *KVS { return &KVS{data: make(map[string][]byte), size: 4} }

// entrySize is the encoded length of one key/value pair.
func entrySize(key string, val []byte) int { return 8 + len(key) + len(val) }

// EncodePut encodes a PUT operation.
func EncodePut(key string, value []byte) []byte {
	e := messages.NewEncoder(9 + len(key) + len(value))
	e.U8(opPut)
	e.VarBytes([]byte(key))
	e.VarBytes(value)
	return e.Bytes()
}

// EncodeGet encodes a GET operation.
func EncodeGet(key string) []byte {
	e := messages.NewEncoder(5 + len(key))
	e.U8(opGet)
	e.VarBytes([]byte(key))
	return e.Bytes()
}

// IsRead reports whether op is a read-only KVS operation (a GET). Reads
// may legitimately execute more than once — identical GETs from one client
// are identical requests — so exactly-once checkers skip them.
func IsRead(op []byte) bool { return len(op) > 0 && op[0] == opGet }

// EncodeDelete encodes a DELETE operation.
func EncodeDelete(key string) []byte {
	e := messages.NewEncoder(5 + len(key))
	e.U8(opDelete)
	e.VarBytes([]byte(key))
	return e.Bytes()
}

// Execute implements Application.
func (k *KVS) Execute(_ uint32, op []byte) []byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	d := messages.NewDecoder(op)
	code := d.U8()
	switch code {
	case opPut:
		key := d.VarBytes()
		val := d.VarBytes()
		if d.Finish() != nil {
			return NoOpResult
		}
		if old, ok := k.data[string(key)]; ok {
			k.size += len(val) - len(old)
		} else {
			k.size += entrySize(string(key), val)
			k.order = nil
		}
		k.data[string(key)] = val
		return []byte("OK")
	case opGet:
		key := d.VarBytes()
		if d.Finish() != nil {
			return NoOpResult
		}
		val, ok := k.data[string(key)]
		if !ok {
			return []byte("NOTFOUND")
		}
		out := make([]byte, len(val))
		copy(out, val)
		return out
	case opDelete:
		key := d.VarBytes()
		if d.Finish() != nil {
			return NoOpResult
		}
		if old, ok := k.data[string(key)]; ok {
			k.size -= entrySize(string(key), old)
			k.order = nil
			delete(k.data, string(key))
		}
		return []byte("OK")
	default:
		return NoOpResult
	}
}

// ExecuteRead implements ReadExecutor: GETs are side-effect-free and may be
// served from a lease-holding replica without ordering; every other op code
// (including malformed operations, which Execute turns into a no-op write of
// an error result) must go through agreement.
func (k *KVS) ExecuteRead(_ uint32, op []byte) ([]byte, bool) {
	d := messages.NewDecoder(op)
	if d.U8() != opGet {
		return nil, false
	}
	key := d.VarBytes()
	if d.Finish() != nil {
		return nil, false
	}
	k.mu.RLock()
	defer k.mu.RUnlock()
	val, ok := k.data[string(key)]
	if !ok {
		return []byte("NOTFOUND"), true
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, true
}

// Len returns the number of stored keys.
func (k *KVS) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.data)
}

// Get reads a key directly (test helper; not part of the replicated API).
func (k *KVS) Get(key string) ([]byte, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	v, ok := k.data[key]
	return v, ok
}

// Digest implements Application: SHA-256 over the Snapshot encoding.
func (k *KVS) Digest() crypto.Digest { return crypto.HashData(k.Snapshot()) }

// Snapshot implements Application: one allocation of the exact size, in the
// cached key order.
func (k *KVS) Snapshot() []byte { return AppendSnapshot(nil, k) }

// AppendSnapshot appends a's Snapshot to dst and returns the extended slice.
// A KVS encodes straight into dst, grown once to the exact size, so a caller
// that frames the snapshot inside a larger buffer (a checkpoint, a sealed
// export) encodes it once and never holds a second copy. Any other
// Application's Snapshot is copied in.
func AppendSnapshot(dst []byte, a Application) []byte {
	k, ok := a.(*KVS)
	if !ok {
		return append(dst, a.Snapshot()...)
	}
	k.mu.RLock()
	if k.order != nil {
		defer k.mu.RUnlock()
	} else {
		// A stale order is rebuilt under the write lock only, so concurrent
		// readers never write it.
		k.mu.RUnlock()
		k.mu.Lock()
		defer k.mu.Unlock()
		if k.order == nil {
			k.order = make([]string, 0, len(k.data))
			for key := range k.data {
				k.order = append(k.order, key)
			}
			slices.Sort(k.order)
		}
	}
	if cap(dst)-len(dst) < k.size {
		dst = append(make([]byte, 0, len(dst)+k.size), dst...)
	}
	// The canonical encoding: the key count, then every key and value as
	// VarBytes, in key order.
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k.order)))
	for _, key := range k.order {
		val := k.data[key]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
		dst = append(dst, key...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val)))
		dst = append(dst, val...)
	}
	return dst
}

// Restore implements Application. The declared key count sizes the map only
// as far as the snapshot's bytes can hold entries (two length prefixes each).
func (k *KVS) Restore(snapshot []byte) error {
	d := messages.NewDecoder(snapshot)
	n := d.Count(1 << 24)
	data := make(map[string][]byte, min(n, d.Remaining()/8))
	for i := 0; i < n; i++ {
		key := d.VarBytes()
		val := d.VarBytes()
		if d.Err() != nil {
			break
		}
		data[string(key)] = val
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("kvs restore: %w", err)
	}
	size := 4
	for key, val := range data {
		size += entrySize(key, val)
	}
	k.mu.Lock()
	k.data, k.order, k.size = data, nil, size
	k.mu.Unlock()
	return nil
}
