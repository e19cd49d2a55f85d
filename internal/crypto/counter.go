package crypto

import "encoding/binary"

// CounterSigningBytes is the canonical byte layout a trusted-counter
// attestation signs: the owning replica, the assigned counter value, and
// the digest the value is bound to. It lives here because both the counter
// enclave (internal/tee) and the message verifier (internal/messages) must
// produce identical bytes, and tee already imports messages.
func CounterSigningBytes(replica uint32, value uint64, digest Digest) []byte {
	buf := make([]byte, 0, 4+8+DigestSize)
	buf = binary.LittleEndian.AppendUint32(buf, replica)
	buf = binary.LittleEndian.AppendUint64(buf, value)
	return append(buf, digest[:]...)
}

// leaseSigningTag domain-separates read-lease grants from counter
// attestations (no leading tag) and from the certificate-vouch tags
// (0xF1/0xF2) that share the signing keyspace.
const leaseSigningTag = 0xF3

// LeaseSigningBytes is the canonical byte layout a read-lease grant signs:
// the granting replica (the primary owning the counter), the lease-holding
// replica, the view the lease is valid in, the wall-clock expiry (UnixNano),
// and the probe flag (a probe grant is acknowledged but never installed, so
// the flag must be unforgeable — flipping it would turn a reachability probe
// into a servable lease). Signed under the granter's RoleCounter key, so a
// lease carries the same trust anchor as a counter attestation and is
// revoked by the same view-change machinery.
func LeaseSigningBytes(granter, holder uint32, view uint64, expiry int64, probe bool) []byte {
	buf := make([]byte, 0, 1+4+4+8+8+1)
	buf = append(buf, leaseSigningTag)
	buf = binary.LittleEndian.AppendUint32(buf, granter)
	buf = binary.LittleEndian.AppendUint32(buf, holder)
	buf = binary.LittleEndian.AppendUint64(buf, view)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(expiry))
	if probe {
		return append(buf, 1)
	}
	return append(buf, 0)
}
