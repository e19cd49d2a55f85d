package preparation

import (
	"fmt"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/counter"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/defaults"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// batchOf is a one-request batch from client 7 at ts, authenticated to
// every Preparation enclave of an n-replica group keyed from secret.
func batchOf(secret []byte, n int, ts uint64, op []byte) []byte {
	req := messages.Request{ClientID: 7, Timestamp: ts, Payload: op}
	var prep []crypto.Identity
	for i := 0; i < n; i++ {
		prep = append(prep, crypto.Identity{ReplicaID: uint32(i), Role: crypto.RolePreparation})
	}
	macs := crypto.NewMACStore(secret, crypto.Identity{ReplicaID: 7, Role: crypto.RoleClient})
	req.Auth = macs.Authenticate(req.AuthenticatedBytes(), prep)
	return append([]byte{compartment.EcallBatch}, messages.MarshalBatch(&messages.Batch{Requests: []messages.Request{req}})...)
}

// proposes reports whether out holds a PrePrepare.
func proposes(out []tee.OutMsg) bool {
	for i := range out {
		if len(out[i].Payload) > 0 && messages.Type(out[i].Payload[0]) == messages.TPrePrepare {
			return true
		}
	}
	return false
}

// node is one Preparation compartment in its enclave, a primary-to-be:
// replica 1 of four, leases on, its refusals recorded.
type node struct {
	code     *Compartment
	enc      *tee.Enclave
	refusals []refusal
}

// refusal is one decoded OcallRefused.
type refusal struct {
	reason byte
	left   time.Duration
	pairs  [][2]uint64 // (client, ts)
}

const testSecret = "lease-test"

// launch builds a node in view 0 whose watermark window is window slots.
func launch(t *testing.T, window uint64) *node {
	t.Helper()
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := counter.New(crypto.Identity{ReplicaID: 1, Role: crypto.RoleCounter})
	if err != nil {
		t.Fatal(err)
	}
	n := &node{code: New(compartment.Config{
		N: 4, F: 1, ID: 1, MACSecret: []byte(testSecret),
		CheckpointInterval: window / 2, WatermarkWindow: window,
		ReadLeases: true, LeaseTTL: defaults.RequestTimeout / 4,
	}, ver, ctr)}
	n.enc, err = tee.NewEnclave(1, crypto.RolePreparation, n.code, tee.ZeroCostModel())
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(n.enc.Identity(), n.enc.PublicKey())
	n.enc.RegisterOcall(OcallRefused, func(data []byte) ([]byte, error) {
		d := messages.NewDecoder(data)
		r := refusal{reason: d.U8(), left: time.Duration(d.U64())}
		for d.Remaining() >= 4+8 {
			r.pairs = append(r.pairs, [2]uint64{uint64(d.U32()), d.U64()})
		}
		n.refusals = append(n.refusals, r)
		return nil, nil
	})
	return n
}

func (n *node) invoke(t *testing.T, raw []byte) []tee.OutMsg {
	t.Helper()
	out, err := n.enc.Invoke(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// enterView1 makes the node the primary of view 1 by a white-box view
// install, which stands for the NewView (the full certificate path is the
// view-change tests' job) and arms the write fence.
func (n *node) enterView1() { n.code.installView(1, messages.CheckpointCert{}, nil, 0) }

// liftFence moves the node's write fence into the past.
func (n *node) liftFence() { n.code.leaseFence = time.Now().Add(-time.Millisecond) }

// lastRefusal returns the node's one refusal since the last call.
func (n *node) lastRefusal(t *testing.T) refusal {
	t.Helper()
	if len(n.refusals) != 1 {
		t.Fatalf("%d refusals, want 1", len(n.refusals))
	}
	r := n.refusals[0]
	n.refusals = nil
	return r
}

var tick = []byte{compartment.EcallTick, 0}

// TestNewPrimaryWriteFence: a primary taking over a lease-enabled
// deployment must not assign fresh proposals until every lease its
// predecessor could have kept alive has expired — otherwise a partitioned
// holder could serve a linearizable read missing a write the new view
// already acknowledged. It refuses the batch, naming its requests and the
// time the fence has left, and keeps nothing: the lease tick proposes
// nothing, and the batch goes out when offered again after the fence.
func TestNewPrimaryWriteFence(t *testing.T) {
	n := launch(t, defaults.WatermarkWindow)
	n.code.FinishRecovery()
	n.enterView1()
	b := batchOf([]byte(testSecret), 4, 1, app.EncodePut("k", []byte("v")))
	if proposes(n.invoke(t, b)) {
		t.Fatal("fenced new primary proposed a fresh batch")
	}
	r := n.lastRefusal(t)
	span := 2*n.code.leaseTTL + n.code.leaseTTL/2
	if r.reason != RefusedFence || r.left <= 0 || r.left > span {
		t.Fatalf("refusal reason %d with %v left, want fence (%d) with (0, %v] left", r.reason, r.left, RefusedFence, span)
	}
	if len(r.pairs) != 1 || r.pairs[0] != [2]uint64{7, 1} {
		t.Fatalf("refusal named %v, want [(7, 1)]", r.pairs)
	}
	n.liftFence()
	if proposes(n.invoke(t, tick)) || n.code.nextSeq != 0 {
		t.Fatal("the lease tick proposed")
	}
	if !proposes(n.invoke(t, b)) {
		t.Fatal("the batch offered again after the fence did not go out")
	}
	if len(n.refusals) != 0 {
		t.Fatalf("post-fence offer refused: %+v", n.refusals)
	}
}

// TestFullWindowRefusesBatch: with every slot up to the high watermark
// assigned, the primary refuses the next batch for the window, naming its
// requests, and proposes it once a stable checkpoint moves the window.
func TestFullWindowRefusesBatch(t *testing.T) {
	n := launch(t, 2)
	n.code.FinishRecovery()
	n.enterView1()
	n.liftFence()
	for ts := uint64(1); ts <= 2; ts++ {
		if !proposes(n.invoke(t, batchOf([]byte(testSecret), 4, ts, app.EncodePut("k", nil)))) {
			t.Fatalf("batch %d inside the window was not proposed", ts)
		}
	}
	b := batchOf([]byte(testSecret), 4, 3, app.EncodePut("k", nil))
	if proposes(n.invoke(t, b)) {
		t.Fatal("proposed past the high watermark")
	}
	if r := n.lastRefusal(t); r.reason != RefusedWindow || r.left != 0 || len(r.pairs) != 1 || r.pairs[0] != [2]uint64{7, 3} {
		t.Fatalf("refusal %+v, want the window naming (7, 3)", r)
	}
	n.code.AdvanceStable(messages.CheckpointCert{Seq: 1})
	if !proposes(n.invoke(t, b)) {
		t.Fatal("batch not proposed once the window moved")
	}
}

// slots records the proposal digest a node emitted per (view, seq).
type slots map[[2]uint64]crypto.Digest

// emit records the PrePrepares in out, failing t on a slot emitted with a
// second digest, and reports whether out proposed.
func (s slots) emit(t *testing.T, out []tee.OutMsg) (proposed bool) {
	t.Helper()
	for i := range out {
		if len(out[i].Payload) == 0 || messages.Type(out[i].Payload[0]) != messages.TPrePrepare {
			continue
		}
		m, err := messages.Unmarshal(out[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		pp := m.(*messages.PrePrepare)
		slot := [2]uint64{pp.View, pp.Seq}
		if d, ok := s[slot]; ok && d != pp.Digest {
			t.Errorf("(view %d, seq %d) emitted with two digests", pp.View, pp.Seq)
		}
		s[slot] = pp.Digest
		proposed = true
	}
	return proposed
}

// TestRestartedPrimaryNeverRespendsSlot: a primary that restarts from its
// sealed state and WAL must never propose a slot it proposed before the
// crash with another batch. The snapshot case exports while the write
// fence is up, proposes after it lifted, and recovers from the export plus
// the inputs logged since; the replay case recovers from the whole input
// log, replaying the view install — which re-arms the fence at replay time
// — after the live fence lifted. Replay outputs are discarded, as the
// replica discards them; everything else the nodes emit is checked for a
// (view, seq) with two digests.
func TestRestartedPrimaryNeverRespendsSlot(t *testing.T) {
	batch := func(ts uint64) []byte {
		return batchOf([]byte(testSecret), 4, ts, app.EncodePut(fmt.Sprintf("k%d", ts), []byte("v")))
	}
	// restart finishes recovery on restored and checks it refuses a fresh
	// batch until its re-armed fence passes.
	restart := func(t *testing.T, sent slots, restored *node, fresh []byte) {
		restored.code.FinishRecovery()
		if sent.emit(t, restored.invoke(t, fresh)) {
			t.Fatal("restored primary proposed before its re-armed fence passed")
		}
		if r := restored.lastRefusal(t); r.reason != RefusedFence {
			t.Fatalf("restored primary refused for reason %d, want the fence", r.reason)
		}
		restored.liftFence()
		if !sent.emit(t, restored.invoke(t, fresh)) {
			t.Fatal("restored primary did not propose after its fence")
		}
	}

	t.Run("snapshot", func(t *testing.T) {
		sent := slots{}
		live := launch(t, defaults.WatermarkWindow)
		live.code.FinishRecovery()
		live.enterView1()
		if sent.emit(t, live.invoke(t, batch(1))) {
			t.Fatal("fenced primary proposed")
		}
		snap := live.code.ExportState()
		live.liftFence()
		sent.emit(t, live.invoke(t, tick)) // never logged
		if !sent.emit(t, live.invoke(t, batch(2))) {
			t.Fatal("live primary did not propose after its fence")
		}
		restored := launch(t, defaults.WatermarkWindow)
		if err := restored.code.ImportState(snap); err != nil {
			t.Fatal(err)
		}
		restored.invoke(t, batch(2)) // the WAL past the snapshot; output discarded
		restart(t, sent, restored, batch(3))
	})

	t.Run("replay", func(t *testing.T) {
		sent := slots{}
		var wal []func(*node) []tee.OutMsg
		log := func(n *node, in func(*node) []tee.OutMsg) {
			wal = append(wal, in)
			sent.emit(t, in(n))
		}
		enter := func(n *node) []tee.OutMsg { n.enterView1(); return nil }
		offer := func(ts uint64) func(*node) []tee.OutMsg {
			return func(n *node) []tee.OutMsg { return n.invoke(t, batch(ts)) }
		}
		live := launch(t, defaults.WatermarkWindow)
		live.code.FinishRecovery()
		log(live, enter)
		log(live, offer(1)) // refused at the fence
		live.liftFence()
		log(live, offer(2))
		log(live, offer(3))
		restored := launch(t, defaults.WatermarkWindow)
		for _, in := range wal {
			in(restored) // output discarded
		}
		if got, want := restored.code.nextSeq, live.code.nextSeq; got < want {
			t.Fatalf("replay left nextSeq at %d, below the live run's %d", got, want)
		}
		restart(t, sent, restored, batch(4))
	})
}
