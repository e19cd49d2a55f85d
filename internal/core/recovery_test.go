package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/transport"
)

// withPersistence gives every replica a durability directory under root
// and the deterministic key seed recovery depends on. Synchronous fsync
// keeps the tests deterministic: a simulated crash then loses nothing
// locally, so what the assertions exercise is the recovery path itself.
func withPersistence(root string, seed []byte) clusterOpt {
	return func(cfg *Config) {
		cfg.KeySeed = seed
		cfg.DataDir = filepath.Join(root, fmt.Sprintf("r%d", cfg.ID))
		cfg.FsyncInterval = -1
		cfg.CheckpointInterval = 4
	}
}

func TestReplicaRecoversAfterCrashRestart(t *testing.T) {
	root := t.TempDir()
	seed := []byte("core-recovery-seed")
	c := newCluster(t, false, withPersistence(root, seed))
	cl := c.client(100)

	put := func(i int) {
		t.Helper()
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		put(i)
	}
	waitFor(t, 5*time.Second, "replica 3 catches up pre-crash", func() bool {
		return c.kvs[3].Digest() == c.kvs[0].Digest()
	})

	// SIGKILL replica 3 and keep the protocol running without it.
	c.replicas[3].Crash()
	for i := 10; i < 16; i++ {
		put(i)
	}

	// Restart: a fresh Replica over the same data directory recovers from
	// the sealed snapshot plus WAL replay, then closes the gap (ops 10–15)
	// through the peers' checkpoints and state transfer.
	r2, err := NewReplica(c.replicas[3].cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(r2.Stop)
	rs := r2.Recovery()
	if rs.Snapshots == 0 {
		t.Fatal("recovery restored no sealed snapshots (checkpoints were reached pre-crash)")
	}
	if rs.WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	conn, err := c.net.Join(transport.ReplicaEndpoint(3), r2.Handler())
	if err != nil {
		t.Fatal(err)
	}
	r2.Start(conn)

	for i := 16; i < 26; i++ {
		put(i)
	}
	waitFor(t, 10*time.Second, "restarted replica converges", func() bool {
		return c.kvs[3].Digest() == c.kvs[0].Digest()
	})
	// Byte-identical state, not just matching digests.
	if !bytes.Equal(c.kvs[3].Snapshot(), c.kvs[0].Snapshot()) {
		t.Fatal("recovered replica state differs from the group")
	}
}

// TestRestartReplayCountsNoEvents: the protocol-event counters count what
// the broker forwards, so WAL replay — whose outputs are discarded — counts
// nothing, though a replayed StateProbe is answered again inside Execution.
func TestRestartReplayCountsNoEvents(t *testing.T) {
	root := t.TempDir()
	c := newCluster(t, false, withPersistence(root, []byte("replay-events-seed")))
	cl := c.client(100)
	for i := 0; i < 10; i++ {
		if _, err := cl.Invoke(app.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	r := c.replicas[3]
	waitFor(t, 5*time.Second, "replica 3 catches up", func() bool {
		return c.kvs[3].Digest() == c.kvs[0].Digest()
	})
	// A peer's probe from genesis lands in replica 3's WAL and is answered
	// once replica 3 holds a stable checkpoint.
	probe := messages.Marshal(&messages.StateProbe{Have: 0, Replica: 1})
	waitFor(t, 5*time.Second, "a probe is answered", func() bool {
		r.Handler()(transport.ReplicaEndpoint(1), probe)
		return r.Events().ProbesAnswered > 0
	})

	r.Crash()
	r2, err := NewReplica(r.cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(r2.Stop)
	if r2.Recovery().WALRecords == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	if ev := r2.Events(); ev != (EventStats{}) || r2.LocalReads() != 0 {
		t.Fatalf("replay counted events %+v and %d local reads, want none", ev, r2.LocalReads())
	}
}

func TestPersistenceRequiresKeySeed(t *testing.T) {
	cfg := Config{Registry: crypto.NewRegistry(), App: app.NewKVS(), DataDir: t.TempDir()}
	cfg.N, cfg.F, cfg.MACSecret = 4, 1, []byte("secret")
	if _, err := NewReplica(cfg); err == nil {
		t.Fatal("DataDir without KeySeed accepted — sealed state would be unrecoverable")
	}
}
