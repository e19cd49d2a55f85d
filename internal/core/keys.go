package core

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"fmt"
	"io"

	"github.com/splitbft/splitbft/internal/crypto"
)

// enclaveKeyStream derives the entropy stream for one enclave's keys from
// the deployment seed. The same (seed, replica, role) always yields the
// same stream; NewEnclaveWithRand reads the identity key from it first.
func enclaveKeyStream(seed []byte, replica uint32, role crypto.Role) io.Reader {
	return crypto.NewKeyStream(seed, "enclave", fmt.Sprintf("%d", replica), role.String())
}

// RegisterDeterministicKeys registers the public identity and X25519 keys
// of every enclave of an n-replica deployment whose Config.KeySeed is
// seed. It is how separate processes (cmd/splitbft-replica,
// cmd/splitbft-client) agree on the key registry without a live
// attestation exchange: the shared seed plays the role of the attestation
// ceremony's trust root. The derivation mirrors the enclave's stream read
// order exactly (identity key, sealing key, ECDH key — 32 bytes each; see
// tee.NewEnclaveWithRand): the X25519 keys registered here are what
// MAC-mode replicas use to establish pairwise agreement keys — and the
// counter-attestation keys of trusted consensus — with peer processes they
// never attest live.
func RegisterDeterministicKeys(reg *crypto.Registry, seed []byte, n int) error {
	for id := 0; id < n; id++ {
		// The counter enclave's keys come from its own stream, separate
		// from the compartment enclaves' streams (the compartments'
		// identity → seal → ECDH read order stays untouched), read as
		// counter.NewWithRand reads them: identity key, then ECDH
		// key, no sealing key in between. They are registered
		// unconditionally: harmless in classic deployments, and required
		// before any trusted-mode peer process verifies a counter
		// attestation.
		if err := registerStreamKeys(reg, seed, uint32(id), crypto.RoleCounter, false); err != nil {
			return err
		}
		for _, role := range compartmentRoles {
			if err := registerStreamKeys(reg, seed, uint32(id), role, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// registerStreamKeys derives one enclave's public keys from its key stream
// at the positions the enclave itself reads — the Ed25519 identity key,
// the sealing key where the enclave has one (skipped here), the X25519
// key — and registers them.
func registerStreamKeys(reg *crypto.Registry, seed []byte, replica uint32, role crypto.Role, sealed bool) error {
	stream := enclaveKeyStream(seed, replica, role)
	pub, _, err := ed25519.GenerateKey(stream)
	if err != nil {
		return fmt.Errorf("derive key for replica %d %v: %w", replica, role, err)
	}
	ident := crypto.Identity{ReplicaID: replica, Role: role}
	reg.Register(ident, pub)
	if sealed {
		var skip [32]byte
		if _, err := io.ReadFull(stream, skip[:]); err != nil {
			return fmt.Errorf("derive seal position for replica %d %v: %w", replica, role, err)
		}
	}
	var ecdhSeed [32]byte
	if _, err := io.ReadFull(stream, ecdhSeed[:]); err != nil {
		return fmt.Errorf("derive ECDH seed for replica %d %v: %w", replica, role, err)
	}
	ek, err := ecdh.X25519().NewPrivateKey(ecdhSeed[:])
	if err != nil {
		return fmt.Errorf("derive ECDH key for replica %d %v: %w", replica, role, err)
	}
	var epub [32]byte
	copy(epub[:], ek.PublicKey().Bytes())
	reg.RegisterECDH(ident, epub)
	return nil
}
