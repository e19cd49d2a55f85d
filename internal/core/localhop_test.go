package core

import (
	"fmt"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Tests for the two places Ed25519 left the classic×sig normal case — the
// Confirmation→Execution hop inside one replica and Execution's use of a
// PrePrepare as a request body — and for the emission order around them.
// They drive real replicas' enclaves by hand (no broker threads, no
// network), so every compartment has its own verifier and pairwise keys, as
// deployed.

const hopSecret = "hop-test-secret"

// handDriven builds n wired but unstarted replicas over one registry.
func handDriven(t *testing.T, n, f int, opts ...clusterOpt) []*Replica {
	t.Helper()
	reg := crypto.NewRegistry()
	rs := make([]*Replica, n)
	for i := range rs {
		cfg := Config{Registry: reg, App: app.NewKVS()}
		cfg.N, cfg.F, cfg.ID, cfg.MACSecret = n, f, uint32(i), []byte(hopSecret)
		for _, opt := range opts {
			opt(&cfg)
		}
		r, err := NewReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	return rs
}

func hopBatch(n int, ts uint64) *messages.Batch {
	key := fmt.Sprintf("k%d", ts)
	return &messages.Batch{Requests: []messages.Request{
		testRequest([]byte(hopSecret), n, 7, ts, app.EncodePut(key, []byte("v"))),
	}}
}

func mustInvoke(t *testing.T, r *Replica, role crypto.Role, payload []byte) []tee.OutMsg {
	t.Helper()
	out, err := r.Enclave(role).Invoke(payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compStats returns one compartment's crypto-op counters.
func compStats(r *Replica, role crypto.Role) messages.VerifierStats {
	return r.vers[int(role-crypto.RolePreparation)].Stats()
}

// wantOrder fails unless out is exactly: one copy per named local
// compartment, in that order, then one broadcast — all of type typ.
func wantOrder(t *testing.T, site string, out []tee.OutMsg, typ messages.Type, locals ...crypto.Role) {
	t.Helper()
	if len(out) != len(locals)+1 {
		t.Fatalf("%s: %d outputs, want %d", site, len(out), len(locals)+1)
	}
	for i, m := range out {
		if messages.Type(m.Payload[0]) != typ {
			t.Fatalf("%s: output %d is a %s, want %s", site, i, messages.Type(m.Payload[0]), typ)
		}
		if i < len(locals) {
			if m.Kind != tee.DestLocal || m.Local != locals[i] {
				t.Fatalf("%s: output %d goes to kind %v/%v, want the local %v copy", site, i, m.Kind, m.Local, locals[i])
			}
		} else if m.Kind != tee.DestBroadcast {
			t.Fatalf("%s: the broadcast must come last, output %d has kind %v", site, i, m.Kind)
		}
	}
}

// runSlot drives one proposal through Preparation and Confirmation of every
// replica by hand and returns, per replica, Confirmation's outputs (local
// Commit copy, then the broadcast), plus the PrePrepare as broadcast.
func runSlot(t *testing.T, rs []*Replica, ts uint64) (commits [][]tee.OutMsg, ppWire []byte) {
	t.Helper()
	n := len(rs)
	out := mustInvoke(t, rs[0], crypto.RolePreparation, wrapBatch(hopBatch(n, ts)))
	wantOrder(t, "proposeBatch", out, messages.TPrePrepare, crypto.RoleConfirmation, crypto.RoleExecution)
	ppLocal, ppWire := out[0].Payload, out[2].Payload

	prepares := make([][]tee.OutMsg, n)
	for i := 1; i < n; i++ {
		prepares[i] = mustInvoke(t, rs[i], crypto.RolePreparation, wrapMessage(ppWire))
		wantOrder(t, "backup Prepare", prepares[i], messages.TPrepare, crypto.RoleConfirmation)
	}
	commits = make([][]tee.OutMsg, n)
	for i := 0; i < n; i++ {
		pp := ppWire
		if i == 0 {
			pp = ppLocal
		}
		got := mustInvoke(t, rs[i], crypto.RoleConfirmation, wrapMessage(pp))
		for j := 1; j < n && len(got) == 0; j++ {
			p := prepares[j][1].Payload
			if j == i {
				p = prepares[j][0].Payload
			}
			got = mustInvoke(t, rs[i], crypto.RoleConfirmation, wrapMessage(p))
		}
		wantOrder(t, "maybeCommit", got, messages.TCommit, crypto.RoleExecution)
		commits[i] = got
	}
	return commits, ppWire
}

// TestLocalFirstOutMsgOrder pins "local compartments first, then the wire"
// at the four sites that originate normal-case traffic.
func TestLocalFirstOutMsgOrder(t *testing.T) {
	rs := handDriven(t, 4, 1, func(c *Config) { c.CheckpointInterval = 1 })
	commits, ppWire := runSlot(t, rs, 1) // checks proposeBatch, Prepare, maybeCommit

	// maybeCheckpoint: execute the slot on replica 2 with interval 1.
	mustInvoke(t, rs[2], crypto.RoleExecution, wrapMessage(ppWire))
	var out []tee.OutMsg
	for _, from := range []int{2, 0, 1} {
		cm := commits[from][1].Payload
		if from == 2 {
			cm = commits[from][0].Payload
		}
		out = mustInvoke(t, rs[2], crypto.RoleExecution, wrapMessage(cm))
	}
	var ckpt []tee.OutMsg
	for _, m := range out {
		if messages.Type(m.Payload[0]) == messages.TCheckpoint {
			ckpt = append(ckpt, m)
		}
	}
	wantOrder(t, "maybeCheckpoint", ckpt, messages.TCheckpoint, crypto.RolePreparation, crypto.RoleConfirmation)
}

// TestLocalHopOwnCommit: Confirmation's copy of its Commit for its own
// replica's Execution carries one hop MAC beside the signature and is
// accepted without an Ed25519 verification; the broadcast is the parent's
// frame (no Auth); and the same local copy misrouted to another replica's
// Execution is judged by its signature alone.
func TestLocalHopOwnCommit(t *testing.T) {
	rs := handDriven(t, 4, 1)
	commits, ppWire := runSlot(t, rs, 1)

	decode := func(b []byte) *messages.Commit {
		m, err := messages.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*messages.Commit)
	}
	local, wire := decode(commits[1][0].Payload), decode(commits[1][1].Payload)
	if len(local.Auth.MACs) != 1 || len(local.Sig) == 0 {
		t.Fatalf("local Commit copy carries %d MACs and a %d-byte signature, want 1 and a signature", len(local.Auth.MACs), len(local.Sig))
	}
	if len(wire.Auth.MACs) != 0 || string(wire.Sig) != string(local.Sig) {
		t.Fatal("the broadcast Commit must be the signed frame, without Auth")
	}
	if grow := len(commits[1][0].Payload) - len(commits[1][1].Payload); grow != crypto.MACSize {
		t.Fatalf("the in-machine copy is %d bytes longer than the frame, want one MAC", grow)
	}

	mustInvoke(t, rs[1], crypto.RoleExecution, wrapMessage(ppWire))
	before := compStats(rs[1], crypto.RoleExecution)
	mustInvoke(t, rs[1], crypto.RoleExecution, wrapMessage(commits[1][0].Payload))
	after := compStats(rs[1], crypto.RoleExecution)
	if after.SigVerifies != before.SigVerifies || after.MACVerifies != before.MACVerifies+1 {
		t.Fatalf("own Commit cost %d signature and %d MAC verifications, want 0 and 1",
			after.SigVerifies-before.SigVerifies, after.MACVerifies-before.MACVerifies)
	}
	// It counted: two remote Commits now complete the certificate.
	var out []tee.OutMsg
	for _, from := range []int{0, 2} {
		out = mustInvoke(t, rs[1], crypto.RoleExecution, wrapMessage(commits[from][1].Payload))
	}
	if _, replied := findMsg[*messages.Reply](t, out, tee.DestClient); !replied {
		t.Fatal("own Commit (by MAC) plus two remote ones (by signature) did not execute the slot")
	}
	if got := compStats(rs[1], crypto.RoleExecution).SigVerifies - after.SigVerifies; got != 2 {
		t.Fatalf("two remote Commits cost %d signature verifications, want 2", got)
	}

	// Replica 1's local copy at replica 3's Execution: a remote signer.
	before = compStats(rs[3], crypto.RoleExecution)
	mustInvoke(t, rs[3], crypto.RoleExecution, wrapMessage(commits[1][0].Payload))
	after = compStats(rs[3], crypto.RoleExecution)
	if after.SigVerifies != before.SigVerifies+1 || after.MACVerifies != before.MACVerifies {
		t.Fatalf("misrouted hop copy cost %d signature and %d MAC verifications, want 1 and 0",
			after.SigVerifies-before.SigVerifies, after.MACVerifies-before.MACVerifies)
	}
}
