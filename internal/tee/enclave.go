package tee

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// DestKind says where an enclave output message must be routed by the
// untrusted broker.
type DestKind uint8

// Destinations for enclave output messages.
const (
	// DestBroadcast sends to every replica (including looping back into the
	// local compartments, per the broker's routing table).
	DestBroadcast DestKind = iota
	// DestReplica sends to one replica's broker.
	DestReplica
	// DestClient sends to a client connection.
	DestClient
	// DestLocal delivers to another enclave on the same replica.
	DestLocal
)

// OutMsg is a serialized message leaving an enclave. The payload has
// already been copied out of the enclave (and charged for) by the runtime.
//
// Payloads are read-only once returned. Several outputs may share one: a
// message a compartment hands to its co-located compartments and to the
// network is marshalled once, as the broker in turn hands one broadcast
// payload to every peer. Whoever needs to change the bytes copies them.
type OutMsg struct {
	Kind    DestKind
	ID      uint32      // replica ID (DestReplica) or client ID (DestClient)
	Local   crypto.Role // target compartment for DestLocal
	Payload []byte
}

// Host is the view of the runtime available to code running inside an
// enclave: signing with the enclave identity key, sealing, and explicit
// ocalls into the untrusted environment.
type Host interface {
	// Identity returns the enclave's identity (replica, role).
	Identity() crypto.Identity
	// Sign signs with the enclave's private identity key. The key never
	// leaves the enclave.
	Sign(msg []byte) []byte
	// Ocall invokes a named untrusted function, paying a transition plus
	// copy costs in both directions.
	Ocall(name string, data []byte) ([]byte, error)
	// Seal encrypts data under the enclave's sealing key (SGX sealing),
	// appending the sealed blob to dst.
	Seal(dst, data []byte) ([]byte, error)
	// Unseal reverses Seal.
	Unseal(sealed []byte) ([]byte, error)
	// Quote produces attestation evidence bound to nonce (see attest.go).
	Quote(nonce [32]byte) *messages.AttestQuote
	// DeriveSession computes the key shared with a client's X25519 public
	// key; the enclave's ECDH private key never leaves the runtime.
	DeriveSession(clientPub [32]byte) (crypto.SessionKey, error)
}

// Code is the logic loaded into an enclave: a deserialize-handle-serialize
// event handler (P2: event handlers run to completion inside one
// compartment). Implementations must not retain the input slice, nor hand
// any part of it back as an output payload: it points into the enclave's
// inbound buffer, which the next crossing overwrites.
type Code interface {
	// Measurement identifies the code for attestation (MRENCLAVE analog).
	Measurement() crypto.Digest
	// HandleECall processes one serialized message and returns any output
	// messages. It always runs single-threaded.
	HandleECall(host Host, msg []byte) []OutMsg
}

// ErrNoOcall is returned by Host.Ocall for unregistered ocall names.
var ErrNoOcall = errors.New("tee: unregistered ocall")

// OcallFunc is an untrusted function the environment registers with an
// enclave.
type OcallFunc func(data []byte) ([]byte, error)

// Enclave is one simulated SGX enclave: identity keys, sealing key,
// cost accounting, and the single-thread execution
// guarantee. Create with NewEnclave; drive with Invoke.
type Enclave struct {
	replicaID uint32
	role      crypto.Role
	code      Code
	cost      CostModel

	identityKey *crypto.KeyPair
	ecdhKey     *ecdh.PrivateKey
	sealKey     crypto.SessionKey
	// Sealing uses a per-boot subkey HMAC-derived from sealKey and a
	// random boot ID that prefixes every sealed blob: random 96-bit GCM
	// nonces are only safe for ~2^32 seals per key (NIST SP 800-38D), a
	// budget a long-lived replica's per-record WAL sealing would exhaust
	// under one never-rotated key. Each process lifetime gets a fresh
	// subkey; unsealing derives the subkey of whatever boot wrote the
	// blob from the embedded ID. sealSess is the cached AEAD for this
	// boot (sealing sits on the per-message WAL hot path, so the AES key
	// schedule is built once); unsealCache holds sessions for previously
	// seen boot IDs.
	bootID      [sealBootIDSize]byte
	sealSess    *crypto.Session
	unsealCache sync.Map // [sealBootIDSize]byte -> *crypto.Session

	execMu   sync.Mutex // enforces single-threaded enclave execution
	stats    ECallStats
	crashed  bool
	ocallsMu sync.RWMutex
	ocalls   map[string]OcallFunc

	// inbuf is the enclave-side copy of the payloads of the crossing in
	// progress and inside their boundaries within it; both are reused from
	// one crossing to the next (guarded by execMu), so copy-in allocates
	// nothing in steady state.
	inbuf  []byte
	inside [][]byte
}

// NewEnclave creates and "launches" an enclave running code on the given
// replica. The identity key pair is generated inside; the public half is
// what gets registered after attestation.
func NewEnclave(replicaID uint32, role crypto.Role, code Code, cost CostModel) (*Enclave, error) {
	return NewEnclaveWithRand(replicaID, role, code, cost, nil)
}

// NewEnclaveWithRand is NewEnclave with an explicit entropy source for the
// enclave's keys. Multi-process deployments pass a crypto.KeyStream
// derived from a shared deployment secret so every process derives the
// same public keys (the stand-in for real attestation-based key exchange);
// nil uses crypto/rand.
func NewEnclaveWithRand(replicaID uint32, role crypto.Role, code Code, cost CostModel, rng io.Reader) (*Enclave, error) {
	if code == nil {
		return nil, errors.New("tee: nil enclave code")
	}
	if rng == nil {
		rng = rand.Reader
	}
	// Read order is part of the derivation contract: identity key first
	// (32 bytes; RegisterDeterministicKeys in the core package depends on
	// it), then the sealing key (32 bytes), then the ECDH key (32 bytes).
	// All three must re-derive identically from the same stream after a
	// restart: the sealing key so durable state can be unsealed, and the
	// ECDH key so a replayed ProvisionKey unwraps under the same pairwise
	// secret — a fresh ECDH key would silently drop every session
	// provisioned after the last snapshot. The ECDH bytes are read
	// directly and fed to NewPrivateKey because crypto/ecdh's GenerateKey
	// nondeterministically consumes an extra byte (randutil.MaybeReadByte)
	// and would break the contract.
	idKey, err := crypto.GenerateKeyPair(rng)
	if err != nil {
		return nil, fmt.Errorf("enclave identity key: %w", err)
	}
	var sealKey crypto.SessionKey
	if _, err := io.ReadFull(rng, sealKey[:]); err != nil {
		return nil, fmt.Errorf("enclave sealing key: %w", err)
	}
	var ecdhSeed [32]byte
	if _, err := io.ReadFull(rng, ecdhSeed[:]); err != nil {
		return nil, fmt.Errorf("enclave ECDH entropy: %w", err)
	}
	ek, err := ecdh.X25519().NewPrivateKey(ecdhSeed[:])
	if err != nil {
		return nil, fmt.Errorf("enclave ECDH key: %w", err)
	}
	// The boot ID is always fresh randomness (never from the derivation
	// stream): two boots from the same seed must seal under different
	// subkeys, that is the whole point.
	var bootID [sealBootIDSize]byte
	if _, err := io.ReadFull(rand.Reader, bootID[:]); err != nil {
		return nil, fmt.Errorf("enclave boot ID: %w", err)
	}
	sealSess, err := deriveSealSession(sealKey, bootID)
	if err != nil {
		return nil, fmt.Errorf("enclave sealing session: %w", err)
	}
	return &Enclave{
		replicaID:   replicaID,
		role:        role,
		code:        code,
		cost:        cost,
		identityKey: idKey,
		ecdhKey:     ek,
		sealKey:     sealKey,
		bootID:      bootID,
		sealSess:    sealSess,
		ocalls:      make(map[string]OcallFunc),
	}, nil
}

// sealBootIDSize is the length of the per-boot sealing salt prefixed to
// every sealed blob.
const sealBootIDSize = 16

// deriveSealSession builds the AEAD for one boot's sealing subkey.
func deriveSealSession(base crypto.SessionKey, bootID [sealBootIDSize]byte) (*crypto.Session, error) {
	mac := hmac.New(sha256.New, base[:])
	mac.Write([]byte("tee-seal-v1"))
	mac.Write(bootID[:])
	var sub crypto.SessionKey
	copy(sub[:], mac.Sum(nil))
	return crypto.NewSession(sub, 2)
}

// Identity implements Host.
func (e *Enclave) Identity() crypto.Identity {
	return crypto.Identity{ReplicaID: e.replicaID, Role: e.role}
}

// PublicKey returns the enclave's identity public key for registration.
func (e *Enclave) PublicKey() []byte { return e.identityKey.Public }

// Measurement returns the loaded code's measurement.
func (e *Enclave) Measurement() crypto.Digest { return e.code.Measurement() }

// Sign implements Host.
func (e *Enclave) Sign(msg []byte) []byte { return e.identityKey.Sign(msg) }

// RegisterOcall installs an untrusted handler callable from enclave code.
// It is part of broker setup, before traffic flows.
func (e *Enclave) RegisterOcall(name string, fn OcallFunc) {
	e.ocallsMu.Lock()
	defer e.ocallsMu.Unlock()
	e.ocalls[name] = fn
}

// Ocall implements Host: it pays a transition plus copies in both
// directions, then runs the untrusted function.
func (e *Enclave) Ocall(name string, data []byte) ([]byte, error) {
	e.ocallsMu.RLock()
	fn, ok := e.ocalls[name]
	e.ocallsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoOcall, name)
	}
	e.cost.chargeTransition()
	e.cost.chargeCopy(len(data))
	out, err := fn(copyBytes(data))
	if err != nil {
		return nil, err
	}
	e.cost.chargeCopy(len(out))
	return out, nil
}

// Seal implements Host: AES-GCM under this boot's sealing subkey, with
// the boot ID prepended (and bound as associated data) so any later boot
// of the same enclave identity can re-derive the right subkey. Nonces are
// random, not counted — safe within one boot's ≤2^32 seal budget, and a
// restart rotates the subkey before the budget matters. The blob,
// bootID ‖ nonce ‖ ciphertext, is appended to dst in one piece: with a nil
// dst it is one allocation.
func (e *Enclave) Seal(dst, data []byte) ([]byte, error) {
	start := len(dst)
	if need := sealBootIDSize + e.sealSess.Overhead() + len(data); cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = append(dst, e.bootID[:]...)
	out, err := e.sealSess.AppendSealRandom(dst, data, e.bootID[:])
	if err != nil {
		return dst[:start], err
	}
	return out, nil
}

// Unseal implements Host: it derives (and caches) the sealing subkey of
// whatever boot produced the blob. Only an enclave holding the same base
// sealing key — the same identity key stream — derives a subkey that
// opens it.
func (e *Enclave) Unseal(sealed []byte) ([]byte, error) {
	if len(sealed) < sealBootIDSize {
		return nil, errors.New("tee: sealed blob too short")
	}
	var boot [sealBootIDSize]byte
	copy(boot[:], sealed[:sealBootIDSize])
	var sess *crypto.Session
	if boot == e.bootID {
		sess = e.sealSess
	} else if cached, ok := e.unsealCache.Load(boot); ok {
		sess = cached.(*crypto.Session)
	} else {
		derived, err := deriveSealSession(e.sealKey, boot)
		if err != nil {
			return nil, err
		}
		e.unsealCache.Store(boot, derived)
		sess = derived
	}
	return sess.Open(sealed[sealBootIDSize:], boot[:])
}

// Durable is implemented by enclave code whose state can be exported for
// sealed storage and restored after a restart (the durability subsystem's
// per-compartment hooks). ExportState and ImportState run under the
// enclave's single execution thread, so they see quiescent handler state.
type Durable interface {
	// ExportState serializes the compartment state.
	ExportState() []byte
	// ImportState replaces the compartment state from an ExportState blob.
	ImportState(data []byte) error
	// StateEpoch identifies the current snapshot generation; it advances
	// when the compartment reaches a new durable point (in SplitBFT, when
	// its stable checkpoint moves). The environment snapshots when it
	// observes an advance.
	StateEpoch() uint64
}

// ErrNotDurable is returned by the state hooks when the loaded code does
// not implement Durable.
var ErrNotDurable = errors.New("tee: enclave code does not export state")

// SealState exports the compartment state and seals it under the enclave
// sealing key — the unit the snapshot store persists. Only an enclave with
// the same identity key stream (the same sealing key) can unseal it.
func (e *Enclave) SealState() ([]byte, error) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	d, ok := e.code.(Durable)
	if !ok {
		return nil, ErrNotDurable
	}
	return e.Seal(nil, d.ExportState())
}

// UnsealState reverses SealState: it unseals the blob and installs the
// state into the loaded code. Unsealing fails — and the state is refused —
// when the blob was sealed by a different enclave identity or tampered
// with.
func (e *Enclave) UnsealState(sealed []byte) error {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	d, ok := e.code.(Durable)
	if !ok {
		return ErrNotDurable
	}
	pt, err := e.Unseal(sealed)
	if err != nil {
		return fmt.Errorf("tee: unseal state: %w", err)
	}
	return d.ImportState(pt)
}

// StateEpoch returns the loaded code's snapshot generation (0 when the
// code is not Durable). The broker polls it after ecalls to decide when a
// new sealed snapshot is due.
func (e *Enclave) StateEpoch() uint64 {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if d, ok := e.code.(Durable); ok {
		return d.StateEpoch()
	}
	return 0
}

// ErrCrashed is returned by Invoke after Crash was called: the environment
// can kill an enclave at any time (fail-stop from the enclave's view).
var ErrCrashed = errors.New("tee: enclave crashed")

// Crash marks the enclave as crashed; all further Invokes fail. It models
// the environment killing the enclave process (§2.1: an environment fault
// may render its compartments unavailable).
func (e *Enclave) Crash() {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	e.crashed = true
}

// Crashed reports whether the enclave has been crashed. The untrusted
// environment may ask (it could observe ErrCrashed from the next Invoke
// anyway); the health endpoint uses it for compartment liveness.
func (e *Enclave) Crashed() bool {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	return e.crashed
}

// Invoke performs one ecall carrying one message; see InvokeBatch.
func (e *Enclave) Invoke(msg []byte) ([]OutMsg, error) {
	return e.InvokeBatch([][]byte{msg})
}

// maxInboundKeep bounds the inbound buffer an enclave holds on to between
// crossings; a one-off larger crossing (a state snapshot) gives its buffer
// back to the GC.
const maxInboundKeep = 1 << 16

// InvokeBatch delivers queued ecalls in one trusted-boundary crossing: it
// serializes the caller behind the enclave's single execution thread and
// charges one transition for the whole batch (the HotCalls-style
// amortization SplitBFT's evaluation identifies as the dominant cost
// lever); every message still pays its copy-in — into the enclave's
// reusable inbound buffer — and the handler runs once per message in
// submission order on the enclave's single logical protocol thread.
//
// Outputs are returned concatenated in handler order, copy-out charged per
// output; their payloads are owned by the caller, read-only (see OutMsg).
// The input buffers are not
// retained, so callers may recycle them immediately.
func (e *Enclave) InvokeBatch(msgs [][]byte) ([]OutMsg, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	e.execMu.Lock()
	defer e.execMu.Unlock()
	if e.crashed {
		return nil, ErrCrashed
	}
	stop := e.stats.start(len(msgs))
	e.cost.chargeTransition()
	size := 0
	for _, m := range msgs {
		size += len(m)
	}
	if cap(e.inbuf) < size {
		e.inbuf = make([]byte, 0, size)
	}
	buf, inside := e.inbuf[:0], e.inside[:0]
	for _, m := range msgs {
		e.cost.chargeCopy(len(m))
		buf = append(buf, m...)
		// Capacity clipped: a handler appending to its input must not run
		// into the next message.
		inside = append(inside, buf[len(buf)-len(m):len(buf):len(buf)])
	}
	var out []OutMsg
	for _, m := range inside {
		o := e.code.HandleECall(e, m)
		if PoisonInbound.Load() {
			for i := range m {
				m[i] = 0xFF
			}
		}
		if out == nil {
			out = o
		} else {
			out = append(out, o...)
		}
	}
	for i := range out {
		e.cost.chargeCopy(len(out[i].Payload))
	}
	if cap(buf) > maxInboundKeep {
		buf, inside = nil, nil
	}
	e.inbuf, e.inside = buf, inside
	stop()
	return out, nil
}

// PoisonInbound is a test hook: while set, every enclave overwrites a
// message's bytes in its inbound buffer with 0xFF as soon as the handler
// returns, so code that kept a slice of its input — which production runs
// would corrupt silently one crossing later — fails loudly at once.
var PoisonInbound atomic.Bool

// Stats returns a snapshot of the enclave's ecall statistics.
func (e *Enclave) Stats() ECallSnapshot { return e.stats.snapshot() }

// ResetStats zeroes the ecall statistics (used between benchmark phases).
func (e *Enclave) ResetStats() { e.stats.reset() }

func copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
