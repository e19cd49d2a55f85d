package core

import (
	"bytes"
	"testing"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
)

func TestDeterministicKeysMatchEnclaves(t *testing.T) {
	seed := []byte("deployment-seed")
	reg1 := crypto.NewRegistry()
	r, err := NewReplica(Config{
		Config: compartment.Config{
			N: 4, F: 1, ID: 2, MACSecret: []byte("s"),
			// Read leases launch the counter enclave on a classic group too.
			ReadLeases: true,
		},
		Registry: reg1, KeySeed: seed, App: app.NewKVS(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	reg2 := crypto.NewRegistry()
	if err := RegisterDeterministicKeys(reg2, seed, 4); err != nil {
		t.Fatal(err)
	}
	for _, role := range []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation, crypto.RoleExecution, crypto.RoleCounter} {
		id := crypto.Identity{ReplicaID: 2, Role: role}
		k1, err := reg1.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := reg2.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(k1, k2) {
			t.Fatalf("derived key mismatch for %v", role)
		}
		// The X25519 keys behind MAC-mode pairwise channels (the counter's
		// included: MAC attestations hang off it) must derive identically
		// too — a separate process computing a peer's ECDH key
		// from the seed must match the live enclave's.
		e1, err := reg1.LookupECDH(id)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := reg2.LookupECDH(id)
		if err != nil {
			t.Fatal(err)
		}
		if e1 != e2 {
			t.Fatalf("derived ECDH key mismatch for %v", role)
		}
	}
	// Different replicas and roles must get distinct keys.
	kA, _ := reg2.Lookup(crypto.Identity{ReplicaID: 0, Role: crypto.RolePreparation})
	kB, _ := reg2.Lookup(crypto.Identity{ReplicaID: 1, Role: crypto.RolePreparation})
	kC, _ := reg2.Lookup(crypto.Identity{ReplicaID: 0, Role: crypto.RoleExecution})
	if bytes.Equal(kA, kB) || bytes.Equal(kA, kC) {
		t.Fatal("derived keys must differ per identity")
	}
}
