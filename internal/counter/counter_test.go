package counter

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/tee"
)

// nopCode is an enclave program that does nothing: the receivers below only
// need their enclaves' keys.
type nopCode struct{}

func (nopCode) Measurement() crypto.Digest                { return crypto.HashData([]byte("nop")) }
func (nopCode) HandleECall(tee.Host, []byte) []tee.OutMsg { return nil }

// macCounter is a trusted counter wired the way a deployment wires it:
// attesting to a Preparation and a Confirmation enclave of replica 1 under
// the pairwise keys of its X25519 exchange with each.
type macCounter struct {
	*Counter
	receivers []crypto.Identity
	keys      []crypto.MACKey // the receivers' side of each pairwise key
}

func newMACCounter(t *testing.T) *macCounter {
	t.Helper()
	ctrID := crypto.Identity{ReplicaID: 0, Role: crypto.RoleCounter}
	tc, err := New(ctrID)
	if err != nil {
		t.Fatal(err)
	}
	mc := &macCounter{Counter: tc}
	pubs := make(map[crypto.Identity][32]byte)
	for _, role := range []crypto.Role{crypto.RolePreparation, crypto.RoleConfirmation} {
		e, err := tee.NewEnclave(1, role, nopCode{}, tee.ZeroCostModel())
		if err != nil {
			t.Fatal(err)
		}
		key, err := e.PairwiseMAC(tc.ECDHPublicKey())
		if err != nil {
			t.Fatal(err)
		}
		mc.receivers = append(mc.receivers, e.Identity())
		mc.keys = append(mc.keys, key)
		pubs[e.Identity()] = e.ECDHPublicKey()
	}
	tc.AttestWithMACs(crypto.NewDerivedMACStore(ctrID, func(peer crypto.Identity) (crypto.MACKey, error) {
		return tc.PairwiseMAC(pubs[peer])
	}, nil), mc.receivers)
	return mc
}

// verifies reports whether slot i of att checks under key.
func verifies(key crypto.MACKey, att Attestation, i int) bool {
	if len(att.Sig) < (i+1)*crypto.MACSize {
		return false
	}
	var mac [crypto.MACSize]byte
	copy(mac[:], att.Sig[i*crypto.MACSize:])
	return crypto.VerifyMAC(key, crypto.CounterSigningBytes(att.Replica, att.Value, att.Digest), mac)
}

// valid reports whether every receiver accepts its slot of att.
func (mc *macCounter) valid(att Attestation) bool {
	for i, key := range mc.keys {
		if !verifies(key, att, i) {
			return false
		}
	}
	return len(att.Sig) == len(mc.keys)*crypto.MACSize
}

func TestTrustedCounter(t *testing.T) {
	tc := newMACCounter(t)
	d1 := crypto.HashData([]byte("m1"))
	d2 := crypto.HashData([]byte("m2"))
	a1 := tc.CreateAttestation(d1)
	a2 := tc.CreateAttestation(d2)
	if a1.Value != 1 || a2.Value != 2 {
		t.Fatalf("counter values = %d,%d, want 1,2", a1.Value, a2.Value)
	}
	if !tc.valid(a1) || !tc.valid(a2) {
		t.Fatal("valid attestation rejected")
	}
	forged := a1
	forged.Digest = d2
	if tc.valid(forged) {
		t.Fatal("forged attestation accepted: equivocation possible")
	}
	if tc.Value() != 2 {
		t.Fatalf("Value = %d", tc.Value())
	}
}

// TestTrustedCounterMACAttestation: an attestation is one HMAC per
// receiver, in receiver order, each under the pairwise key the counter's
// X25519 exchange with that receiver's enclave yields — and the counter
// keeps counting gap-free. A counter never given its keys attests nothing
// a verifier could accept.
func TestTrustedCounterMACAttestation(t *testing.T) {
	tc := newMACCounter(t)
	digest := crypto.HashData([]byte("m1"))
	att := tc.CreateAttestation(digest)
	if att.Value != 1 || len(att.Sig) != len(tc.receivers)*crypto.MACSize {
		t.Fatalf("attestation value %d with %d bytes, want 1 and %d", att.Value, len(att.Sig), len(tc.receivers)*crypto.MACSize)
	}
	for i, r := range tc.receivers {
		if !verifies(tc.keys[i], att, i) {
			t.Fatalf("slot %d does not verify under %v's pairwise key", i, r)
		}
		if other := (i + 1) % len(tc.receivers); verifies(tc.keys[other], att, i) {
			t.Fatalf("slot %d verifies under another receiver's key", i)
		}
	}
	if next := tc.CreateAttestation(digest); next.Value != 2 || bytes.Equal(next.Sig, att.Sig) {
		t.Fatal("second attestation must take the next value and differ")
	}
	if tc.Creates() != 2 {
		t.Fatalf("Creates = %d, want 2", tc.Creates())
	}

	bare, err := New(crypto.Identity{ReplicaID: 0, Role: crypto.RoleCounter})
	if err != nil {
		t.Fatal(err)
	}
	if att := bare.CreateAttestation(digest); att.Value != 1 || len(att.Sig) != 0 {
		t.Fatalf("counter without keys attested value %d with %d bytes, want 1 and none", att.Value, len(att.Sig))
	}
}

func TestQuickTrustedCounterMonotonic(t *testing.T) {
	tc := newMACCounter(t)
	var last uint64
	f := func(msg []byte) bool {
		att := tc.CreateAttestation(crypto.HashData(msg))
		ok := att.Value == last+1 && tc.valid(att)
		last = att.Value
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
