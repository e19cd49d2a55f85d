package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// SessionKeySize is the size of an AES-256-GCM session key in bytes.
const SessionKeySize = 32

// ErrDecrypt is returned when a ciphertext fails authentication or
// decryption.
var ErrDecrypt = errors.New("crypto: session decryption failed")

// SessionKey is a symmetric key a client provisions into the Execution
// enclave after attestation. All request payloads and replies between that
// client and the Execution compartments are encrypted under it, so the
// untrusted environment, the network, and the other compartments only ever
// see ciphertext (opportunity o3 in the paper).
type SessionKey [SessionKeySize]byte

// NewSessionKey draws a fresh random session key.
func NewSessionKey() (SessionKey, error) {
	var k SessionKey
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return SessionKey{}, fmt.Errorf("generate session key: %w", err)
	}
	return k, nil
}

// Session encrypts and decrypts payloads under a session key using
// AES-256-GCM with a counter nonce. A Session is safe for concurrent
// encryption because the nonce counter is atomic; decryption is stateless.
type Session struct {
	aead    cipher.AEAD
	nonceHi uint32 // random per-session salt to avoid cross-session reuse
	counter atomic.Uint64
}

// NewSession builds a Session from key. The direction byte separates client
// and enclave nonce spaces: both sides hold the same key, so they must never
// use overlapping nonces. Use distinct direction values on the two ends.
func NewSession(key SessionKey, direction byte) (*Session, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("session cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("session GCM: %w", err)
	}
	return &Session{aead: aead, nonceHi: uint32(direction)}, nil
}

// Seal encrypts plaintext with associated data ad and returns
// nonce||ciphertext.
func (s *Session) Seal(plaintext, ad []byte) []byte {
	n := s.counter.Add(1)
	nonce := make([]byte, s.aead.NonceSize())
	binary.LittleEndian.PutUint32(nonce[0:4], s.nonceHi)
	binary.LittleEndian.PutUint64(nonce[4:12], n)
	out := make([]byte, 0, len(nonce)+len(plaintext)+s.aead.Overhead())
	out = append(out, nonce...)
	return s.aead.Seal(out, nonce, plaintext, ad)
}

// AppendSealRandom encrypts like Seal but under a fresh random nonce instead
// of the session counter, appending nonce||ciphertext to dst and returning
// the extended slice. It is the sealing primitive for data that must stay
// decryptable across process restarts (durable storage): a restarted
// process would reset the counter to zero and reuse nonces, which
// catastrophically breaks GCM. Open decrypts both forms. The nonce is drawn
// into dst and the ciphertext sealed behind it, so a caller that frames the
// blob (a sealed export, a WAL record) builds it in its own buffer.
// plaintext and ad must not overlap dst's spare capacity.
func (s *Session) AppendSealRandom(dst, plaintext, ad []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if need := ns + len(plaintext) + s.aead.Overhead(); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	start := len(dst)
	dst = dst[:start+ns]
	nonce := dst[start:]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return dst[:start], fmt.Errorf("seal nonce: %w", err)
	}
	return s.aead.Seal(dst, nonce, plaintext, ad), nil
}

// Counter returns the number of counter-nonce seals performed so far. It
// is exported so sealed state snapshots can persist the nonce position.
func (s *Session) Counter() uint64 { return s.counter.Load() }

// SetCounter moves the nonce counter, used when restoring a session from
// sealed state: the restored counter must never fall below any value the
// pre-crash session may have used.
func (s *Session) SetCounter(v uint64) { s.counter.Store(v) }

// Open decrypts a Seal output, verifying the associated data.
func (s *Session) Open(sealed, ad []byte) ([]byte, error) {
	ns := s.aead.NonceSize()
	if len(sealed) < ns+s.aead.Overhead() {
		return nil, fmt.Errorf("%w: ciphertext too short (%d bytes)", ErrDecrypt, len(sealed))
	}
	pt, err := s.aead.Open(nil, sealed[:ns], sealed[ns:], ad)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	return pt, nil
}

// Overhead returns the total ciphertext expansion of Seal (nonce + tag).
func (s *Session) Overhead() int { return s.aead.NonceSize() + s.aead.Overhead() }

// ProvisionAD binds the wrapped session-key blob to the provisioning
// client; the client seals under it and the Execution compartment opens.
func ProvisionAD(clientID uint32) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, 4), clientID)
}

// RequestAD binds a confidential request payload to (client, timestamp):
// the AES-GCM associated data the client seals under and the Execution
// compartment opens with.
func RequestAD(clientID uint32, timestamp uint64) []byte {
	ad := binary.LittleEndian.AppendUint32(make([]byte, 0, 12), clientID)
	return binary.LittleEndian.AppendUint64(ad, timestamp)
}

// ReplyAD binds a confidential reply to (client, timestamp). The replica ID
// is intentionally excluded so honest replicas produce comparable
// ciphertext contents (plaintexts are compared after decryption anyway).
func ReplyAD(clientID uint32, timestamp uint64) []byte {
	return RequestAD(clientID, timestamp)
}
