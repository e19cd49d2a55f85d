// Package crypto provides the cryptographic substrate used by SplitBFT:
// ED25519 key pairs and signatures for inter-enclave and inter-replica
// authentication, HMAC-SHA256 authenticator vectors for client requests and
// replies, AES-GCM sessions for request/reply confidentiality, and SHA-256
// digests for protocol certificates.
//
// The placement of primitives mirrors the paper (§5): signatures between
// replicas/enclaves, HMACs between clients and replicas, and symmetric
// encryption end-to-end between a client and the Execution compartment.
package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DigestSize is the size in bytes of protocol digests (SHA-256).
const DigestSize = sha256.Size

// Digest is a SHA-256 hash used to identify requests, batches, and
// checkpoints throughout the protocol.
type Digest [DigestSize]byte

// String returns the first 8 hex characters of the digest, enough to
// disambiguate in logs without flooding them.
func (d Digest) String() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether the digest is the all-zero value.
func (d Digest) IsZero() bool { return d == Digest{} }

// HashData returns the SHA-256 digest of data.
func HashData(data []byte) Digest { return sha256.Sum256(data) }

// HashConcat hashes the concatenation of the given byte slices. It is used
// for multi-field digests (e.g. checkpoint state digests) where callers must
// take care that the field encoding is unambiguous.
func HashConcat(parts ...[]byte) Digest {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix every part so (a,bc) and (ab,c) hash differently.
		var lenBuf [8]byte
		n := len(p)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// KeyPair is an ED25519 signing key pair belonging to a single protocol
// participant (an enclave, a replica environment, or a client).
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh ED25519 key pair using the given entropy
// source. Pass nil to use crypto/rand.Reader.
func GenerateKeyPair(rng io.Reader) (*KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("generate ed25519 key: %w", err)
	}
	return &KeyPair{Public: pub, private: priv}, nil
}

// MustGenerateKeyPair is GenerateKeyPair with a panic on failure; it is
// intended for tests and example setup where entropy failure is fatal anyway.
func MustGenerateKeyPair() *KeyPair {
	kp, err := GenerateKeyPair(nil)
	if err != nil {
		panic(err)
	}
	return kp
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature over msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// ErrUnknownSigner is returned by Registry lookups for identities that have
// not been registered.
var ErrUnknownSigner = errors.New("crypto: unknown signer identity")

// Identity names a protocol participant for key lookup. ReplicaID is the
// replica index (or client ID for Role=RoleClient); Role distinguishes the
// compartment types and the untrusted roles so that, per the fault model,
// each enclave has its own key pair.
type Identity struct {
	ReplicaID uint32
	Role      Role
}

// Role identifies which component of a replica (or a client) an identity and
// key pair belongs to.
type Role uint8

// Roles for every key-holding component in the system.
const (
	RoleClient Role = iota
	RoleEnvironment
	RolePreparation
	RoleConfirmation
	RoleExecution
	// RoleReplica is used by the non-compartmentalized PBFT baseline where
	// the whole replica is one unit of failure with one key.
	RoleReplica
	// RoleCounter is the trusted monotonic counter enclave used by the
	// trusted consensus mode and read leases. Its Ed25519 key signs
	// read-lease grants only; its X25519 key seeds the pairwise keys of
	// counter attestations.
	RoleCounter
)

// String returns a short human-readable role name.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RoleEnvironment:
		return "env"
	case RolePreparation:
		return "prep"
	case RoleConfirmation:
		return "conf"
	case RoleExecution:
		return "exec"
	case RoleReplica:
		return "replica"
	case RoleCounter:
		return "counter"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Registry maps identities to public keys. It is safe for concurrent use;
// in a deployment it is populated during setup/attestation and read-only
// afterwards. Alongside the Ed25519 identity keys it carries the enclaves'
// X25519 keys, exchanged during the same attestation ceremony: they are
// what pairwise agreement-MAC keys are derived from (the attested-ECDH
// path of the MAC-authenticated fast path).
type Registry struct {
	mu       sync.RWMutex
	keys     map[Identity]ed25519.PublicKey
	ecdhKeys map[Identity][32]byte
	// ecdhEpoch counts ECDH registrations. Pairwise MAC keys derived from
	// these entries are cached in MACStores; the epoch lets those caches
	// detect a re-registration (a peer enclave restarted with fresh keys)
	// and re-derive instead of serving stale keys.
	ecdhEpoch atomic.Uint64
}

// NewRegistry returns an empty key registry.
func NewRegistry() *Registry {
	return &Registry{
		keys:     make(map[Identity]ed25519.PublicKey),
		ecdhKeys: make(map[Identity][32]byte),
	}
}

// Register stores the public key for id, replacing any previous key.
func (r *Registry) Register(id Identity, pub ed25519.PublicKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := make(ed25519.PublicKey, len(pub))
	copy(k, pub)
	r.keys[id] = k
}

// Lookup returns the public key registered for id.
func (r *Registry) Lookup(id Identity) (ed25519.PublicKey, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v/%v", ErrUnknownSigner, id.ReplicaID, id.Role)
	}
	return pub, nil
}

// VerifyFrom verifies sig over msg under the key registered for id.
func (r *Registry) VerifyFrom(id Identity, msg, sig []byte) error {
	pub, err := r.Lookup(id)
	if err != nil {
		return err
	}
	if !Verify(pub, msg, sig) {
		return fmt.Errorf("crypto: bad signature from %v/%v", id.ReplicaID, id.Role)
	}
	return nil
}

// Len returns the number of registered identities.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// RegisterECDH stores the X25519 public key for id, replacing any previous
// key and advancing the ECDH epoch so derived-key caches refresh.
func (r *Registry) RegisterECDH(id Identity, pub [32]byte) {
	r.mu.Lock()
	r.ecdhKeys[id] = pub
	r.mu.Unlock()
	r.ecdhEpoch.Add(1)
}

// LookupECDH returns the X25519 public key registered for id.
func (r *Registry) LookupECDH(id Identity) ([32]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pub, ok := r.ecdhKeys[id]
	if !ok {
		return [32]byte{}, fmt.Errorf("%w: no ECDH key for %v/%v", ErrUnknownSigner, id.ReplicaID, id.Role)
	}
	return pub, nil
}

// ECDHEpoch returns the ECDH registration generation; it changes whenever
// RegisterECDH runs.
func (r *Registry) ECDHEpoch() uint64 { return r.ecdhEpoch.Load() }
