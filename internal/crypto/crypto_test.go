package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHashConcatUnambiguous(t *testing.T) {
	a := HashConcat([]byte("a"), []byte("bc"))
	b := HashConcat([]byte("ab"), []byte("c"))
	if a == b {
		t.Fatal("HashConcat must length-prefix parts: (a,bc) == (ab,c)")
	}
	if HashConcat([]byte("a"), []byte("bc")) != a {
		t.Fatal("HashConcat not deterministic")
	}
}

func TestHashDataMatchesConcatSingle(t *testing.T) {
	if HashData([]byte("x")) == HashConcat([]byte("x")) {
		t.Fatal("HashData and HashConcat should differ (length framing)")
	}
}

func TestDigestString(t *testing.T) {
	var d Digest
	if !d.IsZero() {
		t.Fatal("zero digest should report IsZero")
	}
	d[0] = 0xab
	if d.IsZero() {
		t.Fatal("non-zero digest reported IsZero")
	}
	if got := d.String(); len(got) != 8 {
		t.Fatalf("String() = %q, want 8 hex chars", got)
	}
}

func TestSignVerify(t *testing.T) {
	kp := MustGenerateKeyPair()
	msg := []byte("hello splitbft")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	sig[0] ^= 0xff
	if Verify(kp.Public, msg, sig) {
		t.Fatal("corrupted signature accepted")
	}
	sig[0] ^= 0xff
	if Verify(kp.Public, append(msg, 'x'), sig) {
		t.Fatal("signature over different message accepted")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	kp := MustGenerateKeyPair()
	if Verify(kp.Public[:16], []byte("m"), make([]byte, 64)) {
		t.Fatal("short public key accepted")
	}
	if Verify(kp.Public, []byte("m"), make([]byte, 10)) {
		t.Fatal("short signature accepted")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	kp := MustGenerateKeyPair()
	id := Identity{ReplicaID: 2, Role: RolePreparation}
	if _, err := reg.Lookup(id); err == nil {
		t.Fatal("lookup of unregistered identity succeeded")
	}
	reg.Register(id, kp.Public)
	pub, err := reg.Lookup(id)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if !bytes.Equal(pub, kp.Public) {
		t.Fatal("registry returned wrong key")
	}
	msg := []byte("msg")
	if err := reg.VerifyFrom(id, msg, kp.Sign(msg)); err != nil {
		t.Fatalf("VerifyFrom valid: %v", err)
	}
	other := MustGenerateKeyPair()
	if err := reg.VerifyFrom(id, msg, other.Sign(msg)); err == nil {
		t.Fatal("VerifyFrom accepted signature under wrong key")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", reg.Len())
	}
}

func TestMACStorePairwiseSymmetry(t *testing.T) {
	secret := []byte("system-secret")
	client := Identity{ReplicaID: 7, Role: RoleClient}
	exec := Identity{ReplicaID: 1, Role: RoleExecution}
	cs := NewMACStore(secret, client)
	es := NewMACStore(secret, exec)

	msg := []byte("request payload")
	mac := cs.MAC(msg, exec)
	if err := es.VerifySingle(msg, mac, client); err != nil {
		t.Fatalf("symmetric key mismatch: %v", err)
	}
	// The reverse direction must use the same key.
	back := es.MAC(msg, client)
	if err := cs.VerifySingle(msg, back, exec); err != nil {
		t.Fatalf("reverse direction: %v", err)
	}
}

func TestMACAuthenticatorVector(t *testing.T) {
	secret := []byte("s")
	client := Identity{ReplicaID: 0, Role: RoleClient}
	cs := NewMACStore(secret, client)
	receivers := []Identity{
		{ReplicaID: 0, Role: RoleExecution},
		{ReplicaID: 1, Role: RoleExecution},
		{ReplicaID: 2, Role: RoleExecution},
	}
	msg := []byte("op")
	auth := cs.Authenticate(msg, receivers)
	if len(auth.MACs) != 3 {
		t.Fatalf("authenticator has %d MACs, want 3", len(auth.MACs))
	}
	for i, r := range receivers {
		rs := NewMACStore(secret, r)
		if err := rs.VerifyIndexed(msg, auth, i, client); err != nil {
			t.Fatalf("receiver %d: %v", i, err)
		}
		// A replica must not be able to verify with another replica's slot.
		wrong := (i + 1) % 3
		if err := rs.VerifyIndexed(msg, auth, wrong, client); err == nil {
			t.Fatalf("receiver %d accepted MAC for slot %d", i, wrong)
		}
	}
	if err := NewMACStore(secret, receivers[0]).VerifyIndexed(msg, auth, 99, client); err == nil {
		t.Fatal("out-of-range authenticator index accepted")
	}
}

func TestMACDistinctKeysPerPair(t *testing.T) {
	secret := []byte("s")
	a := NewMACKey(secret, Identity{0, RoleClient}, Identity{1, RoleExecution})
	b := NewMACKey(secret, Identity{0, RoleClient}, Identity{2, RoleExecution})
	c := NewMACKey(secret, Identity{0, RoleClient}, Identity{1, RolePreparation})
	if a == b || a == c || b == c {
		t.Fatal("pairwise MAC keys must differ per peer identity")
	}
}

func TestSessionRoundTrip(t *testing.T) {
	key, err := NewSessionKey()
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewSession(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSession(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("PUT k v")
	ad := []byte("client-7-seq-3")
	ct := cli.Seal(pt, ad)
	if bytes.Contains(ct, pt) {
		t.Fatal("ciphertext contains plaintext")
	}
	got, err := srv.Open(ct, ad)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
}

func TestSessionRejectsTampering(t *testing.T) {
	key, _ := NewSessionKey()
	cli, _ := NewSession(key, 0)
	srv, _ := NewSession(key, 1)
	ct := cli.Seal([]byte("secret"), []byte("ad"))
	ct[len(ct)-1] ^= 1
	if _, err := srv.Open(ct, []byte("ad")); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	ct[len(ct)-1] ^= 1
	if _, err := srv.Open(ct, []byte("other-ad")); err == nil {
		t.Fatal("wrong associated data accepted")
	}
	if _, err := srv.Open(ct[:4], []byte("ad")); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

// TestSealRandomAppends: AppendSealRandom leaves what dst holds in place,
// needs no new buffer when dst has room, grows one when it has none, and
// every blob it seals opens to the plaintext.
func TestSealRandomAppends(t *testing.T) {
	key, _ := NewSessionKey()
	s, _ := NewSession(key, 2)
	pt, ad := []byte("sealed state"), []byte("boot")
	dst := append(make([]byte, 0, 5+s.Overhead()+len(pt)), "frame"...)
	out, err := s.AppendSealRandom(dst, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	if string(out[:5]) != "frame" || &out[0] != &dst[0] {
		t.Fatal("AppendSealRandom did not seal in place behind dst")
	}
	whole, err := s.AppendSealRandom(nil, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != s.Overhead()+len(pt) {
		t.Fatalf("sealed %d bytes, want %d", len(whole), s.Overhead()+len(pt))
	}
	for _, blob := range [][]byte{out[5:], whole} {
		if got, err := s.Open(blob, ad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("open = %q, %v", got, err)
		}
	}
	if _, err := s.Open(whole, []byte("other")); err == nil {
		t.Fatal("sealed blob opened under the wrong associated data")
	}
}

func TestSessionNonceUniqueness(t *testing.T) {
	key, _ := NewSessionKey()
	s, _ := NewSession(key, 0)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		ct := s.Seal([]byte("m"), nil)
		nonce := string(ct[:12])
		if seen[nonce] {
			t.Fatal("nonce reused")
		}
		seen[nonce] = true
	}
}

func TestSessionDirectionsDoNotCollide(t *testing.T) {
	key, _ := NewSessionKey()
	a, _ := NewSession(key, 0)
	b, _ := NewSession(key, 1)
	ca := a.Seal([]byte("m"), nil)
	cb := b.Seal([]byte("m"), nil)
	if bytes.Equal(ca[:12], cb[:12]) {
		t.Fatal("two directions produced the same nonce")
	}
}

func TestQuickSessionRoundTrip(t *testing.T) {
	key, _ := NewSessionKey()
	enc, _ := NewSession(key, 0)
	dec, _ := NewSession(key, 1)
	f := func(pt, ad []byte) bool {
		ct := enc.Seal(pt, ad)
		got, err := dec.Open(ct, ad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMACRoundTrip(t *testing.T) {
	secret := []byte("quick-secret")
	a := NewMACStore(secret, Identity{1, RoleClient})
	b := NewMACStore(secret, Identity{2, RoleExecution})
	f := func(msg []byte) bool {
		mac := a.MAC(msg, b.Self())
		return b.VerifySingle(msg, mac, a.Self()) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSignaturesNotForgeable(t *testing.T) {
	kp := MustGenerateKeyPair()
	f := func(msg []byte, flip uint8) bool {
		sig := kp.Sign(msg)
		if !Verify(kp.Public, msg, sig) {
			return false
		}
		sig[int(flip)%len(sig)] ^= 0x01
		return !Verify(kp.Public, msg, sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSign(b *testing.B) {
	kp := MustGenerateKeyPair()
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kp.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	kp := MustGenerateKeyPair()
	msg := make([]byte, 256)
	sig := kp.Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Verify(kp.Public, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkMAC(b *testing.B) {
	s := NewMACStore([]byte("s"), Identity{0, RoleClient})
	peer := Identity{1, RoleExecution}
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.MAC(msg, peer)
	}
}

func BenchmarkSessionSeal(b *testing.B) {
	key, _ := NewSessionKey()
	s, _ := NewSession(key, 0)
	pt := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Seal(pt, nil)
	}
}

func TestADFunctionsAreDistinct(t *testing.T) {
	if bytes.Equal(RequestAD(1, 2), RequestAD(1, 3)) {
		t.Fatal("RequestAD must depend on timestamp")
	}
	if bytes.Equal(RequestAD(1, 2), RequestAD(2, 2)) {
		t.Fatal("RequestAD must depend on client")
	}
	if !bytes.Equal(ReplyAD(1, 2), ReplyAD(1, 2)) {
		t.Fatal("ReplyAD must be deterministic")
	}
	if bytes.Equal(ProvisionAD(1), ProvisionAD(2)) {
		t.Fatal("ProvisionAD must depend on client")
	}
}
