package pbft

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
)

func TestInLogSlotIdentity(t *testing.T) {
	l := newInLog()
	s1 := l.slot(0, 5)
	s2 := l.slot(0, 5)
	if s1 != s2 {
		t.Fatal("slot() must return the same slot for the same coordinates")
	}
	if s3 := l.slot(1, 5); s3 == s1 {
		t.Fatal("slots are per (view, seq)")
	}
	if _, ok := l.peek(0, 5); !ok {
		t.Fatal("peek missed an existing slot")
	}
	if _, ok := l.peek(9, 9); ok {
		t.Fatal("peek invented a slot")
	}
}

func TestInLogGC(t *testing.T) {
	l := newInLog()
	for seq := uint64(1); seq <= 10; seq++ {
		l.slot(0, seq)
		l.addCheckpoint(&messages.Checkpoint{Seq: seq, Replica: 0})
	}
	l.gc(5)
	for seq := uint64(1); seq <= 5; seq++ {
		if _, ok := l.peek(0, seq); ok {
			t.Fatalf("slot %d survived gc(5)", seq)
		}
	}
	for seq := uint64(6); seq <= 10; seq++ {
		if _, ok := l.peek(0, seq); !ok {
			t.Fatalf("slot %d lost by gc(5)", seq)
		}
	}
	// Checkpoints strictly below the stable seq are pruned; the stable
	// one itself is retained (it feeds ViewChange certificates).
	if _, ok := l.checkpoints[4]; ok {
		t.Fatal("checkpoint 4 survived gc(5)")
	}
	if _, ok := l.checkpoints[5]; !ok {
		t.Fatal("stable checkpoint 5 must be retained")
	}
}

func TestAddCheckpointDedups(t *testing.T) {
	l := newInLog()
	c := &messages.Checkpoint{Seq: 5, Replica: 2}
	set := l.addCheckpoint(c)
	if len(set) != 1 {
		t.Fatalf("set = %d", len(set))
	}
	set = l.addCheckpoint(&messages.Checkpoint{Seq: 5, Replica: 2, Sig: []byte("other")})
	if len(set) != 1 {
		t.Fatal("duplicate sender accepted")
	}
	set = l.addCheckpoint(&messages.Checkpoint{Seq: 5, Replica: 3})
	if len(set) != 2 {
		t.Fatal("distinct sender not added")
	}
}

// preparedSlot builds a prepared slot with the given digest at (view, seq).
func preparedSlot(view, seq uint64, digest crypto.Digest, twoF int) *slot {
	s := newSlot()
	s.prePrepare = &messages.PrePrepare{View: view, Seq: seq, Digest: digest, Replica: uint32(view % 4)}
	for r := 0; r < twoF+1; r++ {
		id := uint32(r + 1)
		s.prepares[id] = &messages.Prepare{View: view, Seq: seq, Digest: digest, Replica: id}
	}
	s.prepared = true
	return s
}

func TestPrepareCertsAbove(t *testing.T) {
	l := newInLog()
	d1 := crypto.HashData([]byte("1"))
	d2 := crypto.HashData([]byte("2"))
	l.slots[0] = map[uint64]*slot{
		3: preparedSlot(0, 3, d1, 2),
		5: preparedSlot(0, 5, d1, 2),
		7: {prePrepare: &messages.PrePrepare{View: 0, Seq: 7, Digest: d1}}, // not prepared
	}
	// Seq 5 also prepared in view 1 with a different digest: the higher
	// view must win.
	l.slots[1] = map[uint64]*slot{5: preparedSlot(1, 5, d2, 2)}

	certs := l.prepareCertsAbove(3, 2)
	if len(certs) != 1 {
		t.Fatalf("got %d certs, want 1 (only seq 5; 3 is at the watermark, 7 unprepared)", len(certs))
	}
	if certs[0].Seq() != 5 || certs[0].View() != 1 || certs[0].Digest() != d2 {
		t.Fatalf("cert = v%d n%d %v, want v1 n5 d2", certs[0].View(), certs[0].Seq(), certs[0].Digest())
	}
	if len(certs[0].Prepares) != 2 {
		t.Fatalf("cert carries %d prepares, want exactly 2f=2", len(certs[0].Prepares))
	}
	if len(certs[0].PrePrepare.Batch.Requests) != 0 {
		t.Fatal("certificate PrePrepare must be stripped of request bodies")
	}
}

func TestPrepareCertsSorted(t *testing.T) {
	l := newInLog()
	d := crypto.HashData([]byte("d"))
	l.slots[0] = map[uint64]*slot{
		9: preparedSlot(0, 9, d, 2),
		4: preparedSlot(0, 4, d, 2),
		6: preparedSlot(0, 6, d, 2),
	}
	certs := l.prepareCertsAbove(0, 2)
	if len(certs) != 3 {
		t.Fatalf("got %d certs", len(certs))
	}
	for i := 1; i < len(certs); i++ {
		if certs[i].Seq() < certs[i-1].Seq() {
			t.Fatal("certificates not sorted by sequence")
		}
	}
}

func TestBuildPrepareCertInsufficient(t *testing.T) {
	d := crypto.HashData([]byte("d"))
	s := newSlot()
	s.prePrepare = &messages.PrePrepare{View: 0, Seq: 1, Digest: d}
	s.prepares[1] = &messages.Prepare{View: 0, Seq: 1, Digest: d, Replica: 1}
	if pc := buildPrepareCert(s, 2); pc != nil {
		t.Fatal("certificate built from a single prepare")
	}
	// Prepares for a different digest must not count.
	other := crypto.HashData([]byte("other"))
	s.prepares[2] = &messages.Prepare{View: 0, Seq: 1, Digest: other, Replica: 2}
	if pc := buildPrepareCert(s, 2); pc != nil {
		t.Fatal("certificate built from mismatched prepares")
	}
}

func TestClientEntryWindow(t *testing.T) {
	e := &clientEntry{}
	if _, done := e.executed(1); done {
		t.Fatal("fresh entry reports executed")
	}
	rep := &messages.Reply{Timestamp: 5}
	e.record(5, rep)
	got, done := e.executed(5)
	if !done || got != rep {
		t.Fatal("recorded reply not found")
	}
	if _, done := e.executed(4); done {
		t.Fatal("unexecuted lower timestamp reported executed")
	}
	// Out-of-order execution within the window works.
	e.record(3, &messages.Reply{Timestamp: 3})
	if _, done := e.executed(3); !done {
		t.Fatal("out-of-order record lost")
	}
	// Far beyond the window, old timestamps are treated as executed (no
	// replay) even though the cached reply is gone.
	e.record(5+2*clientReplyWindow, &messages.Reply{})
	rep2, done := e.executed(1)
	if !done || rep2 != nil {
		t.Fatalf("ancient timestamp: done=%v rep=%v, want done with no cached reply", done, rep2)
	}
}

func TestClientEntryPruning(t *testing.T) {
	e := &clientEntry{}
	for ts := uint64(1); ts <= 5*clientReplyWindow; ts++ {
		e.record(ts, &messages.Reply{Timestamp: ts})
	}
	if len(e.replies) > 2*clientReplyWindow {
		t.Fatalf("reply cache grew to %d entries (window %d)", len(e.replies), clientReplyWindow)
	}
	// Recent timestamps keep their cached replies.
	if rep, done := e.executed(5 * clientReplyWindow); !done || rep == nil {
		t.Fatal("most recent reply evicted")
	}
}

func TestQuickClientEntryNeverExecutesTwice(t *testing.T) {
	f := func(tss []uint16) bool {
		e := &clientEntry{}
		executions := make(map[uint64]int)
		for _, raw := range tss {
			ts := uint64(raw%300) + 1
			if _, done := e.executed(ts); done {
				continue
			}
			executions[ts]++
			e.record(ts, &messages.Reply{Timestamp: ts})
		}
		for ts, n := range executions {
			if n > 1 {
				t.Logf("timestamp %d executed %d times", ts, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	kp := crypto.MustGenerateKeyPair()
	base := Config{
		N: 4, F: 1, ID: 0,
		Key:      kp,
		Registry: crypto.NewRegistry(),
		MACs:     crypto.NewMACStore([]byte("s"), ReplicaIdentity(0)),
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"bad quorum", func(c *Config) { c.N = 5 }},
		{"id out of range", func(c *Config) { c.ID = 4; c.App = nil }},
		{"missing key", func(c *Config) { c.Key = nil }},
		{"missing app", func(c *Config) { c.App = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mod(&cfg)
			if _, err := NewReplica(cfg); err == nil {
				t.Fatalf("config %s accepted", tc.name)
			}
		})
	}
}

func TestBaselineAuthReceivers(t *testing.T) {
	rs := BaselineAuthReceivers(4)
	if len(rs) != 4 {
		t.Fatalf("len = %d", len(rs))
	}
	for i, r := range rs {
		if r.ReplicaID != uint32(i) || r.Role != crypto.RoleReplica {
			t.Fatalf("receiver %d = %+v", i, r)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	for name, got := range map[string]bool{
		"checkpoint interval": c.CheckpointInterval == defaults.CheckpointInterval,
		"watermark window":    c.WatermarkWindow == defaults.WatermarkWindow,
		"batch size":          c.BatchSize == defaults.BatchSize,
		"batch timeout":       c.BatchTimeout == defaults.BatchTimeout,
		"request timeout":     c.RequestTimeout == defaults.RequestTimeout,
	} {
		if !got {
			t.Fatalf("default not applied: %s", name)
		}
	}
}

func TestReplicaIdentityString(t *testing.T) {
	id := ReplicaIdentity(3)
	if got := fmt.Sprintf("%d/%v", id.ReplicaID, id.Role); got != "3/replica" {
		t.Fatalf("identity = %s", got)
	}
}
