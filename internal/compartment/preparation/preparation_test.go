package preparation

import (
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

// TestNewPrimaryWriteFence: a primary taking over a lease-enabled
// deployment must not assign fresh proposals until every lease its
// predecessor could have kept alive has expired — otherwise a partitioned
// holder could serve a linearizable read missing a write the new view
// already acknowledged.
func TestNewPrimaryWriteFence(t *testing.T) {
	secret := []byte("lease-test")
	reg := crypto.NewRegistry()
	ver, err := messages.NewVerifier(4, 1, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := counter.New(crypto.Identity{ReplicaID: 1, Role: crypto.RoleCounter})
	if err != nil {
		t.Fatal(err)
	}
	code := New(compartment.Config{
		N: 4, F: 1, ID: 1, MACSecret: secret,
		CheckpointInterval: defaults.CheckpointInterval, WatermarkWindow: defaults.WatermarkWindow,
		ReadLeases: true, LeaseTTL: defaults.RequestTimeout / 4,
	}, ver, ctr)
	enc, err := tee.NewEnclave(1, crypto.RolePreparation, code, tee.ZeroCostModel())
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(enc.Identity(), enc.PublicKey())

	// White-box view install: replica 1 becomes the primary of view 1 (the
	// full NewView certificate path is the view-change tests' job).
	code.installView(1, messages.CheckpointCert{}, nil, 0)
	if code.leaseFence.IsZero() {
		t.Fatal("view install did not arm the write fence")
	}
	out, err := enc.Invoke(batchOf(secret, 4, 1, app.EncodePut("k", []byte("v"))))
	if err != nil {
		t.Fatal(err)
	}
	if proposes(out) {
		t.Fatal("fenced new primary proposed a fresh batch")
	}
	if got := len(code.fenced); got != 1 {
		t.Fatalf("fenced batches parked = %d, want 1", got)
	}
	// Fence passed: the lease tick flushes the parked batch — no client
	// retransmission needed (that dependency would race the failure
	// detector into another view change).
	code.leaseFence = time.Now().Add(-time.Millisecond)
	out, err = enc.Invoke([]byte{compartment.EcallTick})
	if err != nil {
		t.Fatal(err)
	}
	if !proposes(out) {
		t.Fatal("lease tick did not flush the parked batch after the fence")
	}
	// And fresh batches flow directly again.
	out, err = enc.Invoke(batchOf(secret, 4, 2, app.EncodePut("k", []byte("w"))))
	if err != nil {
		t.Fatal(err)
	}
	if !proposes(out) {
		t.Fatal("post-fence proposal did not go out")
	}
}
