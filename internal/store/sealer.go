package store

// Sealer encrypts data before it reaches untrusted storage and decrypts it
// on recovery. In a deployment the sealer is the compartment's enclave
// (tee.Enclave satisfies the interface): records and snapshots are AEAD-
// sealed under the enclave sealing key, which is derived from the enclave
// identity key stream, so only a restarted enclave with the same identity
// can read the store back. Unseal must fail on any tampered input — the
// store treats an unseal failure as corruption and refuses recovery.
//
// Seal appends the sealed form of data to dst and returns the extended
// slice, so the store seals a WAL record straight into its pending frame; on
// error it returns dst unextended. data must not overlap dst's spare
// capacity.
type Sealer interface {
	Seal(dst, data []byte) ([]byte, error)
	Unseal(sealed []byte) ([]byte, error)
}

// NopSealer stores plaintext. It exists for tests and for benchmarks that
// isolate the file-system cost of the log from the sealing cost.
type NopSealer struct{}

// Seal implements Sealer by appending data unchanged.
func (NopSealer) Seal(dst, data []byte) ([]byte, error) { return append(dst, data...), nil }

// Unseal implements Sealer by returning sealed unchanged.
func (NopSealer) Unseal(sealed []byte) ([]byte, error) { return sealed, nil }
