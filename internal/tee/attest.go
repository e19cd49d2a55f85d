package tee

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// Quote produces the enclave's attestation evidence for a client challenge:
// the code measurement and the enclave's X25519 public key, bound to the
// client's nonce and signed by the enclave identity key. It stands in for
// an SGX DCAP quote (DESIGN.md §2).
func (e *Enclave) Quote(nonce [32]byte) *messages.AttestQuote {
	q := &messages.AttestQuote{
		Replica:     e.replicaID,
		Role:        uint8(e.role),
		Measurement: e.code.Measurement(),
		Nonce:       nonce,
	}
	copy(q.EnclavePub[:], e.ecdhKey.PublicKey().Bytes())
	q.Sig = e.Sign(q.SigningBytes())
	return q
}

// DeriveSession computes the session key shared with a client from the
// client's X25519 public key. Both sides arrive at the same key without it
// ever crossing the enclave boundary.
func (e *Enclave) DeriveSession(clientPub [32]byte) (crypto.SessionKey, error) {
	peer, err := ecdh.X25519().NewPublicKey(clientPub[:])
	if err != nil {
		return crypto.SessionKey{}, fmt.Errorf("tee: bad client ECDH key: %w", err)
	}
	shared, err := e.ecdhKey.ECDH(peer)
	if err != nil {
		return crypto.SessionKey{}, fmt.Errorf("tee: ECDH: %w", err)
	}
	return DeriveSessionKey(shared), nil
}

// DeriveSessionKey derives the AES session key from an X25519 shared
// secret with a single HKDF-style expansion. Exported so the client library
// performs the identical derivation.
func DeriveSessionKey(shared []byte) crypto.SessionKey {
	h := hmac.New(sha256.New, []byte("splitbft-session-v1"))
	h.Write(shared)
	var key crypto.SessionKey
	copy(key[:], h.Sum(nil))
	return key
}

// ECDHPublicKey returns the enclave's X25519 public key. It is registered
// alongside the Ed25519 identity key during the attestation ceremony so
// peer enclaves can establish pairwise agreement-MAC keys (the
// MAC-authenticated fast path).
func (e *Enclave) ECDHPublicKey() [32]byte {
	var pub [32]byte
	copy(pub[:], e.ecdhKey.PublicKey().Bytes())
	return pub
}

// PairwiseMAC derives the symmetric agreement-MAC key shared with a peer
// enclave from its attested X25519 public key. Both enclaves of a pair
// arrive at the same key (X25519 is symmetric and the expansion uses no
// direction-dependent input) without the key ever existing outside the two
// enclaves — the trusted-channel establishment the fast path rests on. The
// label domain-separates these keys from client session keys derived over
// the same exchange.
func (e *Enclave) PairwiseMAC(peerPub [32]byte) (crypto.MACKey, error) {
	return crypto.PairwiseMACKey(e.ecdhKey, peerPub)
}
