package crypto

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// randomStores builds, from one seeded source, a secret-derived store and a
// callback-derived store for the same identity, plus the function giving
// the pairwise key each of them must be using for a peer — so every store
// result can be recomputed with the reference ComputeMAC/VerifyMAC.
func randomStores(rng *rand.Rand) (stores []*MACStore, keyOf []func(Identity) MACKey) {
	self := Identity{ReplicaID: uint32(rng.Intn(8)), Role: Role(rng.Intn(7))}
	secret := make([]byte, 1+rng.Intn(48))
	rng.Read(secret)
	bySecret := func(peer Identity) MACKey {
		a, b := self, peer
		if less(b, a) {
			a, b = b, a
		}
		return NewMACKey(secret, a, b)
	}
	var salt MACKey
	rng.Read(salt[:])
	byCallback := func(peer Identity) MACKey {
		k := salt
		k[0] ^= byte(peer.ReplicaID)
		k[1] ^= byte(peer.Role)
		return k
	}
	derived := NewDerivedMACStore(self, func(p Identity) (MACKey, error) { return byCallback(p), nil }, nil)
	return []*MACStore{NewMACStore(secret, self), derived}, []func(Identity) MACKey{bySecret, byCallback}
}

// TestKeyedMACMatchesReference: for random keys, peers and messages of
// 0–2048 bytes the store's four entry points produce and accept exactly
// what the re-keying reference implementation does, including after a
// single flipped bit in the message or the MAC.
func TestKeyedMACMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 300; round++ {
		stores, keyOf := randomStores(rng)
		peers := make([]Identity, 1+rng.Intn(6))
		for i := range peers {
			peers[i] = Identity{ReplicaID: uint32(rng.Intn(8)), Role: Role(rng.Intn(7))}
		}
		msg := make([]byte, rng.Intn(2049))
		rng.Read(msg)
		for s, store := range stores {
			auth := store.Authenticate(msg, peers)
			for i, peer := range peers {
				key := keyOf[s](peer)
				want := ComputeMAC(key, msg)
				if got := store.MAC(msg, peer); got != want {
					t.Fatalf("round %d store %d: MAC differs from ComputeMAC for a %d-byte message", round, s, len(msg))
				}
				if auth.MACs[i] != want {
					t.Fatalf("round %d store %d: Authenticate slot %d differs from ComputeMAC", round, s, i)
				}
				// Keys are symmetric, so the store verifies what it produced.
				if err := store.VerifySingle(msg, want, peer); err != nil {
					t.Fatalf("round %d store %d: VerifySingle rejected the reference MAC: %v", round, s, err)
				}
				if err := store.VerifyIndexed(msg, auth, i, peer); err != nil {
					t.Fatalf("round %d store %d: VerifyIndexed rejected slot %d: %v", round, s, i, err)
				}
				badMAC := want
				badMAC[rng.Intn(MACSize)] ^= 1 << rng.Intn(8)
				badAuth := Authenticator{MACs: append([][MACSize]byte(nil), auth.MACs...)}
				badAuth.MACs[i] = badMAC
				if VerifyMAC(key, msg, badMAC) {
					t.Fatal("reference accepted a flipped MAC bit")
				}
				if err := store.VerifySingle(msg, badMAC, peer); !errors.Is(err, ErrBadMAC) {
					t.Fatalf("round %d store %d: VerifySingle accepted a flipped MAC bit: %v", round, s, err)
				}
				if err := store.VerifyIndexed(msg, badAuth, i, peer); !errors.Is(err, ErrBadMAC) {
					t.Fatalf("round %d store %d: VerifyIndexed accepted a flipped MAC bit: %v", round, s, err)
				}
				if len(msg) > 0 {
					badMsg := append([]byte(nil), msg...)
					badMsg[rng.Intn(len(msg))] ^= 1 << rng.Intn(8)
					if VerifyMAC(key, badMsg, want) {
						t.Fatal("reference accepted a flipped message bit")
					}
					if err := store.VerifySingle(badMsg, want, peer); !errors.Is(err, ErrBadMAC) {
						t.Fatalf("round %d store %d: VerifySingle accepted a flipped message bit: %v", round, s, err)
					}
				}
			}
		}
	}
}

// TestKeyedMACConcurrent hammers one store — and therefore the same few
// keyed states — from 8 goroutines; every result must still equal the
// reference. Run under -race.
func TestKeyedMACConcurrent(t *testing.T) {
	secret := []byte("concurrent")
	self := Identity{ReplicaID: 0, Role: RoleExecution}
	store := NewMACStore(secret, self)
	peers := []Identity{{1, RolePreparation}, {2, RoleConfirmation}, {3, RoleExecution}}
	keys := make([]MACKey, len(peers))
	for i, p := range peers {
		keys[i] = NewMACKey(secret, self, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				msg := make([]byte, rng.Intn(300))
				rng.Read(msg)
				p := rng.Intn(len(peers))
				want := ComputeMAC(keys[p], msg)
				if got := store.MAC(msg, peers[p]); got != want {
					t.Errorf("goroutine %d: MAC differs from the reference", g)
					return
				}
				if err := store.VerifySingle(msg, want, peers[p]); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if auth := store.Authenticate(msg, peers); auth.MACs[p] != want {
					t.Errorf("goroutine %d: Authenticate differs from the reference", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyedMACEpochDiscardsState: when the epoch moves (the peer
// re-registered after a restart) the keyed state goes with the key — the
// next MAC is the reference MAC under the newly derived key, not one
// computed from the old state.
func TestKeyedMACEpochDiscardsState(t *testing.T) {
	peer := Identity{ReplicaID: 1, Role: RoleConfirmation}
	key := MACKey{0: 1}
	epoch := uint64(1)
	store := NewDerivedMACStore(Identity{ReplicaID: 0, Role: RolePreparation},
		func(Identity) (MACKey, error) { return key, nil },
		func() uint64 { return epoch })
	msg := []byte("attested")
	if store.MAC(msg, peer) != ComputeMAC(key, msg) {
		t.Fatal("MAC differs from the reference before the epoch move")
	}
	old := key
	key, epoch = MACKey{0: 2}, 2
	got := store.MAC(msg, peer)
	if got == ComputeMAC(old, msg) {
		t.Fatal("keyed state of the old key survived the epoch move")
	}
	if got != ComputeMAC(key, msg) {
		t.Fatal("MAC after the epoch move is not the reference MAC under the new key")
	}
}

// TestKeyedMACZeroAllocs pins the point of the keyed state: once a pairwise
// key is cached, computing or checking a MAC allocates nothing.
func TestKeyedMACZeroAllocs(t *testing.T) {
	store := NewMACStore([]byte("allocs"), Identity{ReplicaID: 0, Role: RoleExecution})
	peer := Identity{ReplicaID: 7, Role: RoleClient}
	msg := make([]byte, 96)
	mac := store.MAC(msg, peer) // caches the key
	if n := testing.AllocsPerRun(200, func() { store.MAC(msg, peer) }); n != 0 {
		t.Fatalf("MAC allocates %v times per call with the key cached, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := store.VerifySingle(msg, mac, peer); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("VerifySingle allocates %v times per call with the key cached, want 0", n)
	}
}
