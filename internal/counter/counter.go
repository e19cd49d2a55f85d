// Package counter is the trusted monotonic counter enclave: the anchor of
// trusted consensus and of read leases, and Table 2's comparison point.
package counter

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"
	"sync"

	"github.com/splitbft/splitbft/internal/crypto"
)

// Counter is the minimal trusted subsystem used by hybrid BFT protocols
// (MinBFT, CheapBFT, Hybster): a monotonic counter whose attestations bind a unique, gap-free counter value to each message,
// preventing equivocation. Classic SplitBFT does not rely on it for
// safety — it assumes enclaves themselves may fail — but the trusted
// consensus mode (ConsensusTrusted) binds it into PrePrepare assignment
// to drop the Prepare phase and shrink the group to 2f+1.
type Counter struct {
	mu      sync.Mutex
	id      crypto.Identity
	key     *crypto.KeyPair
	ecdhKey *ecdh.PrivateKey
	// macs and receivers, set by AttestWithMACs, key the pairwise HMAC
	// vector every attestation carries.
	macs      *crypto.MACStore
	receivers []crypto.Identity
	next      uint64
	creates   uint64
	grants    uint64
}

// New creates a trusted counter owned by id with random keys.
func New(id crypto.Identity) (*Counter, error) {
	return NewWithRand(id, nil)
}

// NewWithRand is New with an explicit entropy source for the counter's
// keys. Multi-process deployments pass a
// crypto.KeyStream derived from the shared deployment secret (its own
// stream, separate from the compartment enclaves' streams) so every
// process derives the same counter public keys; nil uses crypto/rand.
// Read order is part of the derivation contract (RegisterDeterministicKeys
// in the core package mirrors it): the Ed25519 lease-signing key first, then
// 32 bytes of X25519 key material — fed to NewPrivateKey directly for the
// reason tee.NewEnclaveWithRand gives.
func NewWithRand(id crypto.Identity, rng io.Reader) (*Counter, error) {
	if rng == nil {
		rng = rand.Reader
	}
	kp, err := crypto.GenerateKeyPair(rng)
	if err != nil {
		return nil, err
	}
	var ecdhSeed [32]byte
	if _, err := io.ReadFull(rng, ecdhSeed[:]); err != nil {
		return nil, fmt.Errorf("counter ECDH entropy: %w", err)
	}
	ek, err := ecdh.X25519().NewPrivateKey(ecdhSeed[:])
	if err != nil {
		return nil, fmt.Errorf("counter ECDH key: %w", err)
	}
	return &Counter{id: id, key: kp, ecdhKey: ek}, nil
}

// Identity returns the identity the counter's keys are registered under.
func (t *Counter) Identity() crypto.Identity { return t.id }

// PublicKey returns the counter's Ed25519 verification key (read-lease
// grants).
func (t *Counter) PublicKey() []byte { return t.key.Public }

// ECDHPublicKey returns the counter's X25519 public key, registered beside
// PublicKey so verifying compartments can establish their pairwise
// attestation-MAC key with this counter.
func (t *Counter) ECDHPublicKey() [32]byte {
	var pub [32]byte
	copy(pub[:], t.ecdhKey.PublicKey().Bytes())
	return pub
}

// PairwiseMAC derives the attestation-MAC key shared with a verifying
// compartment from its attested X25519 public key, exactly as
// tee.Enclave.PairwiseMAC does for agreement traffic.
func (t *Counter) PairwiseMAC(peerPub [32]byte) (crypto.MACKey, error) {
	return crypto.PairwiseMACKey(t.ecdhKey, peerPub)
}

// AttestWithMACs installs the keys CreateAttestation authenticates with:
// one MAC per entry of receivers, in order, under the pairwise key macs
// derives for that receiver. Call it before the first attestation
// (deployment wiring); read-lease grants are signed regardless.
func (t *Counter) AttestWithMACs(macs *crypto.MACStore, receivers []crypto.Identity) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.macs, t.receivers = macs, receivers
}

// Attestation binds a counter value to a message digest. Sig is the
// concatenated HMAC vector over crypto.CounterSigningBytes(Replica, Value,
// Digest), crypto.MACSize bytes per receiver, in receiver order.
type Attestation struct {
	Replica uint32
	Value   uint64
	Digest  crypto.Digest
	Sig     []byte
}

// CreateAttestation assigns the next counter value to digest and returns
// the attestation. Values are strictly increasing with no gaps, so a
// verifier that tracks the last value per replica detects both equivocation
// (same value, two digests — impossible to produce) and suppression (gaps).
// Before AttestWithMACs the attestation carries no authenticator, which
// every verifier rejects.
func (t *Counter) CreateAttestation(digest crypto.Digest) Attestation {
	t.mu.Lock()
	t.next++
	t.creates++
	v := t.next
	macs, receivers := t.macs, t.receivers
	t.mu.Unlock()
	att := Attestation{Replica: t.id.ReplicaID, Value: v, Digest: digest}
	if macs == nil {
		return att
	}
	msg := crypto.CounterSigningBytes(att.Replica, att.Value, att.Digest)
	att.Sig = make([]byte, 0, len(receivers)*crypto.MACSize)
	for _, r := range receivers {
		mac := macs.MAC(msg, r)
		att.Sig = append(att.Sig, mac[:]...)
	}
	return att
}

// LeaseAttestation is a time-bounded read lease issued by the primary's
// counter enclave: it authorizes Holder's Execution compartment to serve
// reads locally while the lease is fresh. The lease binds the view it was
// issued in, so a view change revokes every outstanding lease at once.
type LeaseAttestation struct {
	Granter uint32
	Holder  uint32
	View    uint64
	Expiry  int64 // UnixNano wall-clock bound
	// Probe marks a reachability probe: holders acknowledge it but must
	// never install or serve under it.
	Probe bool
	Sig   []byte
}

// GrantLease issues a signed read lease to holder. The expiry is chosen by
// the caller (the Preparation compartment renews leases on the
// failure-detector clock), as is the probe flag (a probe is acknowledged,
// never installed); the counter only signs, it does not keep lease state —
// revocation is by expiry and by view change, not by the counter.
func (t *Counter) GrantLease(holder uint32, view uint64, expiry int64, probe bool) LeaseAttestation {
	t.mu.Lock()
	t.grants++
	t.mu.Unlock()
	att := LeaseAttestation{
		Granter: t.id.ReplicaID,
		Holder:  holder,
		View:    view,
		Expiry:  expiry,
		Probe:   probe,
	}
	att.Sig = t.key.Sign(crypto.LeaseSigningBytes(att.Granter, att.Holder, att.View, att.Expiry, att.Probe))
	return att
}

// LeaseGrants returns the number of leases granted since boot (or since
// the last ResetCreates). A statistic, like Creates.
func (t *Counter) LeaseGrants() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.grants
}

// Value returns the last assigned counter value.
func (t *Counter) Value() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Creates returns the number of attestations created since boot (or since
// the last ResetCreates). Unlike Value it is a statistic, not protocol
// state: Import after recovery restores Value but not Creates.
func (t *Counter) Creates() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.creates
}

// ResetCreates zeroes the creation and lease-grant statistics (between
// benchmark phases).
func (t *Counter) ResetCreates() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.creates = 0
	t.grants = 0
}

// Export returns the counter position for sealed persistence.
func (t *Counter) Export() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Import restores the counter position from a sealed snapshot. The counter
// never moves backward: a stale import below the current position is
// ignored, preserving monotonicity across overlapping recovery paths.
func (t *Counter) Import(next uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if next > t.next {
		t.next = next
	}
}
