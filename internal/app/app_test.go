package app

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"github.com/splitbft/splitbft/internal/crypto"
)

func TestKVSPutGetDelete(t *testing.T) {
	k := NewKVS()
	if got := k.Execute(1, EncodePut("a", []byte("1"))); !bytes.Equal(got, []byte("OK")) {
		t.Fatalf("put = %q", got)
	}
	if got := k.Execute(1, EncodeGet("a")); !bytes.Equal(got, []byte("1")) {
		t.Fatalf("get = %q", got)
	}
	if got := k.Execute(1, EncodeGet("missing")); !bytes.Equal(got, []byte("NOTFOUND")) {
		t.Fatalf("get missing = %q", got)
	}
	if got := k.Execute(1, EncodeDelete("a")); !bytes.Equal(got, []byte("OK")) {
		t.Fatalf("delete = %q", got)
	}
	if got := k.Execute(1, EncodeGet("a")); !bytes.Equal(got, []byte("NOTFOUND")) {
		t.Fatalf("get after delete = %q", got)
	}
	if k.Len() != 0 {
		t.Fatalf("Len = %d", k.Len())
	}
}

func TestKVSCorruptOpsAreNoOps(t *testing.T) {
	k := NewKVS()
	k.Execute(1, EncodePut("a", []byte("1")))
	before := k.Digest()
	for _, op := range [][]byte{
		nil,
		{},
		{99},            // unknown opcode
		{1, 0xff, 0xff}, // truncated PUT
		append(EncodePut("b", []byte("2")), 0xEE), // trailing garbage
	} {
		if got := k.Execute(1, op); !bytes.Equal(got, NoOpResult) {
			t.Fatalf("corrupt op %v executed: %q", op, got)
		}
	}
	if k.Digest() != before {
		t.Fatal("corrupt ops changed state")
	}
}

func TestKVSDigestDeterministic(t *testing.T) {
	a, b := NewKVS(), NewKVS()
	// Same content, inserted in different orders, must agree.
	a.Execute(1, EncodePut("x", []byte("1")))
	a.Execute(1, EncodePut("y", []byte("2")))
	b.Execute(2, EncodePut("y", []byte("2")))
	b.Execute(2, EncodePut("x", []byte("1")))
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on insertion order")
	}
	b.Execute(2, EncodePut("x", []byte("other")))
	if a.Digest() == b.Digest() {
		t.Fatal("digest insensitive to values")
	}
}

func TestKVSSnapshotRestore(t *testing.T) {
	k := NewKVS()
	for i := 0; i < 50; i++ {
		k.Execute(1, EncodePut(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
	}
	snap := k.Snapshot()
	restored := NewKVS()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != k.Digest() {
		t.Fatal("restored digest differs")
	}
	if v, ok := restored.Get("k7"); !ok || !bytes.Equal(v, []byte("v7")) {
		t.Fatalf("restored value = %q, %v", v, ok)
	}
	if err := NewKVS().Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestQuickKVSSnapshotRoundTrip: puts (new keys and overwrites) and deletes
// between snapshots, so the cached key order and encoded size are exercised
// across invalidations. After every step Digest is the hash of Snapshot,
// Restore(Snapshot()) round-trips, and the store encodes and hashes exactly
// like one freshly built from the same data in another order.
func TestQuickKVSSnapshotRoundTrip(t *testing.T) {
	type step struct {
		Key    uint8
		Val    []byte
		Delete bool
	}
	f := func(steps []step) bool {
		k := NewKVS()
		want := make(map[string][]byte)
		for _, s := range steps {
			key := fmt.Sprintf("k%d", s.Key%16)
			if s.Delete {
				k.Execute(1, EncodeDelete(key))
				delete(want, key)
			} else {
				val := bytes.Repeat(s.Val, 256)
				k.Execute(1, EncodePut(key, val))
				want[key] = val
			}
			snap := k.Snapshot()
			r := NewKVS()
			if k.Digest() != crypto.HashData(snap) {
				return false
			}
			if err := r.Restore(snap); err != nil || !bytes.Equal(r.Snapshot(), snap) || r.Digest() != k.Digest() {
				return false
			}
			fresh := NewKVS()
			for i := 15; i >= 0; i-- {
				if v, ok := want[fmt.Sprintf("k%d", i)]; ok {
					fresh.Execute(2, EncodePut(fmt.Sprintf("k%d", i), v))
				}
			}
			if !bytes.Equal(fresh.Snapshot(), snap) || fresh.Digest() != k.Digest() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestKVSConcurrentSnapshotDigest: observers snapshot and hash the store
// while it executes inserts and deletes, as tests and the benchmark do
// beside a running replica. The cached key order is rebuilt by whichever
// reader finds it stale, so this is a -race test of that hand-off.
func TestKVSConcurrentSnapshotDigest(t *testing.T) {
	k := NewKVS()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := k.Snapshot()
				if err := NewKVS().Restore(snap); err != nil {
					t.Error(err)
					return
				}
				k.Digest()
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i%64)
		if i%3 == 0 {
			k.Execute(1, EncodeDelete(key))
		} else {
			k.Execute(1, EncodePut(key, []byte(fmt.Sprint(i))))
		}
	}
	close(stop)
	wg.Wait()
}

func TestBlockchainSealsBlocksOfFive(t *testing.T) {
	var persisted [][]byte
	b := NewBlockchain(DefaultBlockSize, func(data []byte) error {
		persisted = append(persisted, data)
		return nil
	})
	for i := 0; i < 12; i++ {
		res := b.Execute(uint32(i), []byte(fmt.Sprintf("tx%d", i)))
		if bytes.Equal(res, NoOpResult) {
			t.Fatalf("tx %d rejected", i)
		}
	}
	if b.Height() != 2 {
		t.Fatalf("height = %d, want 2 (12 txs / 5 per block)", b.Height())
	}
	if len(persisted) != 2 {
		t.Fatalf("persisted %d blocks, want 2", len(persisted))
	}
	if err := VerifyChain(b.Headers()); err != nil {
		t.Fatalf("chain verification: %v", err)
	}
}

func TestBlockchainChainLinkage(t *testing.T) {
	b := NewBlockchain(2, nil)
	for i := 0; i < 6; i++ {
		b.Execute(1, []byte{byte(i)})
	}
	headers := b.Headers()
	if len(headers) != 3 {
		t.Fatalf("got %d blocks", len(headers))
	}
	// Tamper with a middle block.
	headers[1].TxRoot[0] ^= 1
	if err := VerifyChain(headers); err == nil {
		t.Fatal("tampered chain verified")
	}
	// Break linkage.
	headers = b.Headers()
	headers[2].PrevHash[0] ^= 1
	if err := VerifyChain(headers); err == nil {
		t.Fatal("broken linkage verified")
	}
}

func TestBlockchainEmptyOpIsNoOp(t *testing.T) {
	b := NewBlockchain(5, nil)
	if got := b.Execute(1, nil); !bytes.Equal(got, NoOpResult) {
		t.Fatalf("empty op = %q", got)
	}
	if b.Digest() != NewBlockchain(5, nil).Digest() {
		t.Fatal("no-op changed state")
	}
}

func TestBlockchainSnapshotRestore(t *testing.T) {
	b := NewBlockchain(3, nil)
	for i := 0; i < 10; i++ {
		b.Execute(1, []byte{byte(i)})
	}
	snap := b.Snapshot()
	r := NewBlockchain(3, nil)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Digest() != b.Digest() {
		t.Fatal("restored digest differs")
	}
	if r.Height() != b.Height() {
		t.Fatalf("restored height %d != %d", r.Height(), b.Height())
	}
	// Continue executing on both: must stay in sync.
	b.Execute(2, []byte("next"))
	r.Execute(2, []byte("next"))
	if r.Digest() != b.Digest() {
		t.Fatal("divergence after restore")
	}
	// Tampered snapshot must be rejected (chain verification).
	bad := b.Snapshot()
	bad[12] ^= 0xff
	if err := NewBlockchain(3, nil).Restore(bad); err == nil {
		t.Fatal("tampered snapshot accepted")
	}
}

func TestBlockchainDeterminism(t *testing.T) {
	a := NewBlockchain(5, nil)
	b := NewBlockchain(5, nil)
	for i := 0; i < 23; i++ {
		op := []byte(fmt.Sprintf("op-%d", i))
		a.Execute(uint32(i%3), op)
		b.Execute(uint32(i%3), op)
		if a.Digest() != b.Digest() {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestBlockchainPersistFailureDoesNotDiverge(t *testing.T) {
	failing := NewBlockchain(2, func([]byte) error { return fmt.Errorf("disk full") })
	healthy := NewBlockchain(2, nil)
	for i := 0; i < 6; i++ {
		failing.Execute(1, []byte{byte(i)})
		healthy.Execute(1, []byte{byte(i)})
	}
	if failing.Digest() != healthy.Digest() {
		t.Fatal("persist failure changed replicated state")
	}
}

func TestQuickBlockchainNeverPanicsOnGarbageRestore(t *testing.T) {
	f := func(data []byte) bool {
		b := NewBlockchain(5, nil)
		_ = b.Restore(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAllocationBoundedByInput: a few-byte snapshot that declares
// the most entries its decoder admits (2^24 headers or KVS keys, 2^20
// pending transactions) is refused without allocating for the entries it
// claims. Before the bound, the header claim alone asked for 1.7 GB.
func TestRestoreAllocationBoundedByInput(t *testing.T) {
	claim := func(prefix []byte, n uint32) []byte {
		return append(binary.LittleEndian.AppendUint32(prefix, n), 1, 2, 3, 4, 5, 6, 7)
	}
	noHeaders := binary.LittleEndian.AppendUint32(nil, 0)
	cases := []struct {
		name     string
		app      Application
		snapshot []byte
	}{
		{"blockchain-headers", NewBlockchain(5, nil), claim(nil, 1<<24)},
		{"blockchain-pending", NewBlockchain(5, nil), claim(noHeaders, 1<<20)},
		{"kvs", NewKVS(), claim(nil, 1<<24)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.app.Restore(c.snapshot)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("restored a %d-byte snapshot claiming more entries than it holds", len(c.snapshot))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("allocated %d bytes refusing a %d-byte snapshot, want under 1 MiB", alloc, len(c.snapshot))
			}
		})
	}
}

func BenchmarkKVSPut(b *testing.B) {
	k := NewKVS()
	op := EncodePut("key", bytes.Repeat([]byte("v"), 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Execute(1, op)
	}
}

func BenchmarkBlockchainExecute(b *testing.B) {
	c := NewBlockchain(DefaultBlockSize, nil)
	op := bytes.Repeat([]byte("t"), 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Execute(1, op)
	}
}
