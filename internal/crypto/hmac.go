package crypto

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
)

// MACSize is the size in bytes of a single HMAC-SHA256 authenticator.
const MACSize = sha256.Size

// ErrBadMAC is returned when an authenticator fails verification.
var ErrBadMAC = errors.New("crypto: HMAC verification failed")

// MACKey is a shared symmetric key between two parties used for HMAC-SHA256
// authenticators. The paper uses HMAC-SHA2 between clients and replicas.
type MACKey [32]byte

// NewMACKey derives a deterministic pairwise key from two identities and a
// system secret. In a real deployment this would come from a key exchange
// during session setup; deriving deterministically keeps test setup simple
// while preserving the property that each (client, enclave) pair has a
// distinct key.
func NewMACKey(secret []byte, a, b Identity) MACKey {
	h := hmac.New(sha256.New, secret)
	var buf [10]byte
	binary.LittleEndian.PutUint32(buf[0:4], a.ReplicaID)
	buf[4] = byte(a.Role)
	binary.LittleEndian.PutUint32(buf[5:9], b.ReplicaID)
	buf[9] = byte(b.Role)
	h.Write(buf[:])
	var k MACKey
	copy(k[:], h.Sum(nil))
	return k
}

// ComputeMAC returns the HMAC-SHA256 of msg under key. It re-keys a fresh
// HMAC on every call — the reference implementation; MACStore computes the
// same bytes from a keyed state it keeps per pairwise key.
func ComputeMAC(key MACKey, msg []byte) [MACSize]byte {
	h := hmac.New(sha256.New, key[:])
	h.Write(msg)
	var out [MACSize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// VerifyMAC reports whether mac is the HMAC-SHA256 of msg under key, in
// constant time.
func VerifyMAC(key MACKey, msg []byte, mac [MACSize]byte) bool {
	want := ComputeMAC(key, msg)
	return hmac.Equal(want[:], mac[:])
}

// Authenticator is a vector of per-receiver MACs, as used by PBFT for client
// requests: the sender computes one MAC per replica so each replica can
// verify the request with its own shared key.
type Authenticator struct {
	// MACs[i] authenticates the message to replica i.
	MACs [][MACSize]byte
}

// keyedMAC is one pairwise key with its HMAC-SHA256 state already keyed.
// hash.Hash.Reset restores the state left by the key-pad compressions
// instead of redoing them, so a header-sized MAC costs two SHA-256
// compressions where hmac.New pays four plus the allocation of two
// digests and two pads. The lock serializes users of the state; sum is the
// scratch Sum appends into, part of the struct because a local array
// passed through the hash.Hash interface would escape to the heap.
type keyedMAC struct {
	mu  sync.Mutex
	h   hash.Hash
	sum [MACSize]byte
}

func newKeyedMAC(key MACKey) *keyedMAC {
	return &keyedMAC{h: hmac.New(sha256.New, key[:])}
}

// compute returns the HMAC-SHA256 of msg, byte-identical to ComputeMAC
// under the same key.
func (k *keyedMAC) compute(msg []byte) [MACSize]byte {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.h.Reset()
	k.h.Write(msg)
	k.h.Sum(k.sum[:0])
	return k.sum
}

// MACStore holds the pairwise MAC keys known to one participant. It is safe
// for concurrent use. Keys come from one of two sources: a shared system
// secret (NewMACStore — the client/replica keys the paper derives during
// session setup) or a per-pair derivation function (NewDerivedMACStore —
// the attested-ECDH path used for replica-to-replica agreement MACs, where
// each enclave pair computes its key from an X25519 exchange and no shared
// secret ever exists).
type MACStore struct {
	self   Identity
	secret []byte
	// derive, when set, replaces the secret-based derivation. epoch guards
	// the cache: when it moves (a peer re-registered fresh ECDH keys after
	// a restart), cached pairwise keys are discarded and re-derived.
	derive func(peer Identity) (MACKey, error)
	epoch  func() uint64

	mu          sync.RWMutex
	cache       map[Identity]*keyedMAC
	cachedEpoch uint64
}

// NewMACStore creates a MAC store for participant self. All stores built
// from the same system secret agree on pairwise keys.
func NewMACStore(secret []byte, self Identity) *MACStore {
	s := make([]byte, len(secret))
	copy(s, secret)
	return &MACStore{self: self, secret: s, cache: make(map[Identity]*keyedMAC)}
}

// NewDerivedMACStore creates a MAC store whose pairwise keys come from
// derive — typically an attested-ECDH exchange between enclaves — instead
// of a shared secret. derive must be symmetric: both ends of a pair must
// arrive at the same key. epoch, when non-nil, invalidates the key cache
// whenever its value changes (peers re-registering after a restart).
func NewDerivedMACStore(self Identity, derive func(peer Identity) (MACKey, error), epoch func() uint64) *MACStore {
	return &MACStore{self: self, derive: derive, epoch: epoch, cache: make(map[Identity]*keyedMAC)}
}

// Self returns the identity this store authenticates as.
func (m *MACStore) Self() Identity { return m.self }

// keyFor returns (caching) the keyed HMAC state of the pairwise key between
// self and peer. Keys are symmetric: keyFor(a→b) == keyFor(b→a). It fails
// only for derived stores whose peer key material is not (yet) registered.
func (m *MACStore) keyFor(peer Identity) (*keyedMAC, error) {
	var ep uint64
	if m.epoch != nil {
		ep = m.epoch()
	}
	m.mu.RLock()
	k, ok := m.cache[peer]
	stale := m.cachedEpoch != ep
	m.mu.RUnlock()
	if ok && !stale {
		return k, nil
	}
	var key MACKey
	if m.derive != nil {
		var err error
		if key, err = m.derive(peer); err != nil {
			return nil, err
		}
	} else {
		// Normalize the pair ordering so both directions derive the same key.
		a, b := m.self, peer
		if less(b, a) {
			a, b = b, a
		}
		key = NewMACKey(m.secret, a, b)
	}
	k = newKeyedMAC(key)
	m.mu.Lock()
	if m.cachedEpoch != ep {
		// The keyed states go with the keys they were built from.
		m.cache = make(map[Identity]*keyedMAC)
		m.cachedEpoch = ep
	}
	m.cache[peer] = k
	m.mu.Unlock()
	return k, nil
}

func less(a, b Identity) bool {
	if a.ReplicaID != b.ReplicaID {
		return a.ReplicaID < b.ReplicaID
	}
	return a.Role < b.Role
}

// Authenticate computes the authenticator vector over msg for the given
// receivers, in order. A receiver whose pairwise key cannot be derived
// (derived stores only; a deployment wiring gap) gets a zero MAC: that
// receiver will reject the message — a liveness loss on a misconfigured
// pair, never a safety one.
func (m *MACStore) Authenticate(msg []byte, receivers []Identity) Authenticator {
	auth := Authenticator{MACs: make([][MACSize]byte, len(receivers))}
	for i, r := range receivers {
		k, err := m.keyFor(r)
		if err != nil {
			continue
		}
		auth.MACs[i] = k.compute(msg)
	}
	return auth
}

// MAC computes a single MAC over msg for one receiver (zero on a derived
// store whose pairwise key is unavailable; see Authenticate).
func (m *MACStore) MAC(msg []byte, receiver Identity) [MACSize]byte {
	k, err := m.keyFor(receiver)
	if err != nil {
		return [MACSize]byte{}
	}
	return k.compute(msg)
}

// VerifyIndexed verifies the idx-th MAC of the authenticator as coming from
// sender and addressed to self.
func (m *MACStore) VerifyIndexed(msg []byte, auth Authenticator, idx int, sender Identity) error {
	if idx < 0 || idx >= len(auth.MACs) {
		return fmt.Errorf("%w: authenticator index %d out of range %d", ErrBadMAC, idx, len(auth.MACs))
	}
	return m.VerifySingle(msg, auth.MACs[idx], sender)
}

// VerifySingle verifies a single MAC from sender over msg.
func (m *MACStore) VerifySingle(msg []byte, mac [MACSize]byte, sender Identity) error {
	k, err := m.keyFor(sender)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadMAC, err)
	}
	if want := k.compute(msg); !hmac.Equal(want[:], mac[:]) {
		return fmt.Errorf("%w: from %v/%v", ErrBadMAC, sender.ReplicaID, sender.Role)
	}
	return nil
}

// PairwiseMACKey is the X25519-plus-expansion step behind every attested
// pairwise MAC key: compartment enclaves and the counter enclave derive
// through it, so both ends of any pair arrive at the same key.
func PairwiseMACKey(priv *ecdh.PrivateKey, peerPub [32]byte) (MACKey, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPub[:])
	if err != nil {
		return MACKey{}, fmt.Errorf("crypto: bad peer ECDH key: %w", err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return MACKey{}, fmt.Errorf("crypto: pairwise ECDH: %w", err)
	}
	h := hmac.New(sha256.New, []byte("splitbft-replica-mac-v1"))
	h.Write(shared)
	var key MACKey
	copy(key[:], h.Sum(nil))
	return key, nil
}
