package execution

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// steadyExecution is an Execution compartment in the steady state of the
// benchmark's workloads: 1024 keys of 64-byte values, 8 clients each with a
// full reply window, 16 cached batches of 32 requests, and a stable
// checkpoint snapshot — and no key inserted since that snapshot.
func steadyExecution(tb testing.TB) *Compartment {
	tb.Helper()
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := withDefaults(compartment.Config{N: 4, F: 1, ID: 0, MACSecret: []byte("steady")})
	e := mustExecution(tb, cfg, app.NewKVS(), ver)
	value := bytes.Repeat([]byte("v"), 64)
	for k := 0; k < 1024; k++ {
		e.app.Execute(1, app.EncodePut(fmt.Sprintf("key-%04d", k), value))
	}
	for c := uint32(1000); c < 1008; c++ {
		cl := &execClient{}
		for ts := uint64(1); ts <= 2*execReplyWindow; ts++ {
			cl.record(ts, &messages.Reply{ClientID: c, Timestamp: ts, Replica: e.ID, Result: []byte("OK")})
		}
		e.clients[c] = cl
	}
	for s := uint64(1); s <= 16; s++ {
		b := &messages.Batch{}
		for r := 0; r < 32; r++ {
			b.Requests = append(b.Requests, messages.Request{ClientID: 1000 + uint32(r%8), Timestamp: s,
				Payload: app.EncodePut(fmt.Sprintf("key-%04d", r), value)})
		}
		d := b.Digest()
		e.batches[d], e.batchSeq[d] = b, s
	}
	e.snapshots[e.StableCert.Seq] = e.snapshotState()
	return e
}

// bytesPerRun is the heap allocated per call of f, the least of three
// measurements (anything else running can only add to one).
func bytesPerRun(runs int, f func()) float64 {
	best := -1.0
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs); best < 0 || per < best {
			best = per
		}
	}
	return best
}

// TestCheckpointSnapshotAllocBudget: a steady-state checkpoint snapshot is
// built in one buffer the size of the snapshot — no sort of the keys, no
// intermediate application encoding — so it allocates at most 1.25 times
// its length.
func TestCheckpointSnapshotAllocBudget(t *testing.T) {
	e := steadyExecution(t)
	size := len(e.snapshotState())
	perRun := bytesPerRun(20, func() { e.snapshotState() })
	if perRun > 1.25*float64(size) {
		t.Fatalf("snapshotState allocates %.0f B for a %d B snapshot (%.2f×), budget 1.25×",
			perRun, size, perRun/float64(size))
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	e := steadyExecution(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crypto.HashData(e.snapshotState())
	}
}

func BenchmarkExportState(b *testing.B) {
	e := steadyExecution(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExportState()
	}
}
