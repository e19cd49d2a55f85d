package compartment

import (
	"testing"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// TestLocalFirstMarshalsOnce: a message handed to two co-located
// compartments and to the network is marshalled once — one encoding
// allocation beside the output slice — and the three outputs share its
// bytes, local copies first and in the order named.
func TestLocalFirstMarshalsOnce(t *testing.T) {
	b := messages.Batch{Requests: []messages.Request{{ClientID: 7, Timestamp: 1, Payload: []byte("put k v")}}}
	pp := &messages.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Replica: 0, Batch: b, Sig: make([]byte, 64)}
	var out []tee.OutMsg
	allocs := testing.AllocsPerRun(100, func() {
		out = LocalFirst(pp, crypto.RoleConfirmation, crypto.RoleExecution)
	})
	if allocs > 2 {
		t.Fatalf("LocalFirst to two locals and the network: %.1f allocations, want 2 (one Marshal, one output slice)", allocs)
	}
	locals := []crypto.Role{crypto.RoleConfirmation, crypto.RoleExecution}
	if len(out) != len(locals)+1 {
		t.Fatalf("%d outputs, want %d", len(out), len(locals)+1)
	}
	for i, m := range out {
		if i < len(locals) && (m.Kind != tee.DestLocal || m.Local != locals[i]) {
			t.Fatalf("output %d goes to kind %v/%v, want the local %v copy", i, m.Kind, m.Local, locals[i])
		}
		if i == len(locals) && m.Kind != tee.DestBroadcast {
			t.Fatalf("the broadcast must come last, output %d has kind %v", i, m.Kind)
		}
		if &m.Payload[0] != &out[0].Payload[0] || len(m.Payload) != len(out[0].Payload) {
			t.Fatalf("output %d does not share the one encoding", i)
		}
	}
	if messages.Type(out[0].Payload[0]) != messages.TPrePrepare {
		t.Fatalf("outputs carry a %s, want a PrePrepare", messages.Type(out[0].Payload[0]))
	}
}
