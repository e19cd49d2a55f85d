package splitbft_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// TestClusterCrashRestartConverges is the end-to-end recovery acceptance
// path: SIGKILL-equivalent crash of one replica mid-run, Restart recovers
// from the sealed snapshot + WAL replay + peer state transfer, and the
// cluster converges to byte-identical application state — including
// across a forced view change after the restart.
func TestClusterCrashRestartConverges(t *testing.T) {
	dir := t.TempDir()
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithKeySeed([]byte("restart-e2e-seed")),
		splitbft.WithPersistence(dir),
		splitbft.WithBatchSize(1),
		splitbft.WithCheckpointInterval(4),
		splitbft.WithRequestTimeout(300*time.Millisecond),
		splitbft.WithNetworkSeed(21),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int) {
		t.Helper()
		if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		put(i)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})

	// Kill replica 3 mid-run. The remaining 2f+1 keep the service live.
	cluster.CrashNode(3)
	for i := 10; i < 16; i++ {
		put(i)
	}

	// Restart: the node recovers locally, then closes the outage gap via
	// the peers' checkpoints and state transfer.
	if err := cluster.RestartNode(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	rs := cluster.Node(3).RecoveryStats()
	if rs.Snapshots == 0 && rs.WALRecords == 0 {
		t.Fatal("restart recovered nothing from the durability store")
	}
	for i := 16; i < 22; i++ {
		put(i)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})

	// Force a view change with the recovered replica in the quorum: cut
	// the view-0 primary off. Progress now needs all of 1, 2 and 3 —
	// including the restarted node — to agree.
	cluster.Partition(0)
	for i := 22; i < 26; i++ {
		put(i)
	}
	waitForAgreement(t, cluster, []int{1, 2, 3})
	cluster.Heal()
	// Enough post-heal traffic to cross the next checkpoint boundary: the
	// healed ex-primary catches up via checkpoint-driven state transfer,
	// and checkpoints only fire every CheckpointInterval sequence numbers.
	for i := 26; i < 34; i++ {
		put(i)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})

	// Byte-identical ledgers, not merely matching digests.
	ref := cluster.Node(0).App().Snapshot()
	for id := 1; id < 4; id++ {
		if !bytes.Equal(cluster.Node(id).App().Snapshot(), ref) {
			t.Fatalf("replica %d state is not byte-identical after recovery", id)
		}
	}
}

// TestConfidentialPersistenceNoPlaintextOnDisk greps every byte the
// durability subsystem wrote: with WithConfidential set, neither client
// payloads nor compartment state may reach untrusted storage in the
// clear — the WAL records and snapshots are sealed, and request payloads
// inside them are additionally end-to-end ciphertext.
func TestConfidentialPersistenceNoPlaintextOnDisk(t *testing.T) {
	dir := t.TempDir()
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithConfidential(),
		splitbft.WithKeySeed([]byte("confidential-disk-seed")),
		splitbft.WithPersistence(dir),
		splitbft.WithBatchSize(1),
		splitbft.WithCheckpointInterval(4),
		splitbft.WithNetworkSeed(22),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Attest(); err != nil {
		t.Fatal(err)
	}
	secretKey := "classified-key-material"
	secretVal := "top-secret-payload-42"
	if _, err := cl.Put(secretKey, []byte(secretVal)); err != nil {
		t.Fatal(err)
	}
	// Enough follow-up traffic to cross a checkpoint, so sealed snapshots
	// (which contain the application state holding the secret) exist too.
	for i := 0; i < 8; i++ {
		if _, err := cl.Put(fmt.Sprintf("pad%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Close() // flush every store

	var files, bytesOnDisk int
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		bytesOnDisk += len(data)
		if bytes.Contains(data, []byte(secretKey)) || bytes.Contains(data, []byte(secretVal)) {
			t.Errorf("%s contains plaintext client data", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The assertion is only meaningful if the subsystem actually wrote the
	// state somewhere.
	if files == 0 || bytesOnDisk == 0 {
		t.Fatalf("durability subsystem wrote nothing (%d files, %d bytes)", files, bytesOnDisk)
	}
}

// TestConfidentialCrashRestartRestoresSessions crashes a replica before
// any checkpoint, so the client's provisioned session exists only in the
// WAL: replaying the ProvisionKey must restore it (the enclave ECDH key
// re-derives deterministically), or the recovered replica would execute
// every later encrypted request as a no-op and silently diverge.
func TestConfidentialCrashRestartRestoresSessions(t *testing.T) {
	dir := t.TempDir()
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithConfidential(),
		splitbft.WithKeySeed([]byte("confidential-restart-seed")),
		splitbft.WithPersistence(dir),
		splitbft.WithBatchSize(1),
		splitbft.WithCheckpointInterval(8),
		splitbft.WithNetworkSeed(23),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Attest(); err != nil {
		t.Fatal(err)
	}
	// Two ops only — well below the checkpoint interval, so no sealed
	// snapshot exists yet and recovery is pure WAL replay.
	if _, err := cl.Put("pre", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})
	cluster.CrashNode(3)
	if err := cluster.RestartNode(3); err != nil {
		t.Fatal(err)
	}
	if rs := cluster.Node(3).RecoveryStats(); rs.WALRecords == 0 {
		t.Fatal("expected a pure WAL-replay recovery")
	}
	// The recovered replica must execute these encrypted requests for
	// real — a lost session would no-op them and its state would diverge
	// from the group forever (equal lastExec, different digest: state
	// transfer never repairs that).
	for i := 0; i < 10; i++ {
		if _, err := cl.Put(fmt.Sprintf("post%d", i), []byte("x")); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})
}

// TestPersistenceOptionValidation: sealing keys must be re-derivable, so
// WithPersistence without WithKeySeed is a configuration error.
func TestPersistenceOptionValidation(t *testing.T) {
	_, err := splitbft.NewCluster(4, splitbft.WithPersistence(t.TempDir()))
	if err == nil {
		t.Fatal("WithPersistence without WithKeySeed accepted")
	}
}

// TestRestartIdleTailBehindStateTransfer: a replica restarted into an idle
// cluster behind a stable checkpoint plus a short tail catches up on both.
// The StateProbe brings the snapshot at 16 and the peers' Commits for 17
// and 18, and the detector-period queries fetch the two missing bodies —
// neither the state transfer nor the absence of traffic may stop the asking.
func TestRestartIdleTailBehindStateTransfer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	dir := t.TempDir()
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithKeySeed([]byte("idle-tail-seed")),
		splitbft.WithPersistence(dir),
		splitbft.WithBatchSize(1),
		splitbft.WithCheckpointInterval(4),
		splitbft.WithRequestTimeout(timeout),
		splitbft.WithNetworkSeed(47),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int) {
		t.Helper()
		if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i := 0; i < 8; i++ {
		put(i)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2, 3})

	// Crash replica 3 and commit through the checkpoint at 16 and a tail of
	// two slots past it, then go quiet before restarting.
	cluster.CrashNode(3)
	for i := 8; i < 18; i++ {
		put(i)
	}
	waitForAgreement(t, cluster, []int{0, 1, 2})
	if err := cluster.RestartNode(3); err != nil {
		t.Fatalf("restart: %v", err)
	}

	ref := cluster.Node(0).App().Digest()
	deadline := time.Now().Add(10 * timeout)
	for time.Now().Before(deadline) {
		if cluster.Node(3).App().Digest() == ref {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("restarted replica did not close a checkpoint plus a two-slot tail on an idle cluster within %v", 10*timeout)
}
