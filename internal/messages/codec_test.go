package messages

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/splitbft/splitbft/internal/crypto"
)

func TestEncoderDecoderPrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.U8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(0x0102030405060708)
	e.VarBytes([]byte("hello"))
	var dg crypto.Digest
	dg[0], dg[31] = 1, 2
	e.Digest(dg)
	var mac [crypto.MACSize]byte
	mac[5] = 9
	e.MAC(mac)

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Fatalf("U8 = %x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %x", got)
	}
	if got := d.U64(); got != 0x0102030405060708 {
		t.Fatalf("U64 = %x", got)
	}
	if got := d.VarBytes(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("VarBytes = %q", got)
	}
	if got := d.Digest(); got != dg {
		t.Fatal("Digest round trip failed")
	}
	if got := d.MAC(); got != mac {
		t.Fatal("MAC round trip failed")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // not enough bytes
	if d.Err() == nil {
		t.Fatal("expected error after short read")
	}
	first := d.Err()
	_ = d.U32()
	if d.Err() != first {
		t.Fatal("error should be sticky")
	}
	if d.VarBytes() != nil {
		t.Fatal("reads after error should return zero values")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(0)
	e.U32(7)
	e.U8(9) // trailing
	d := NewDecoder(e.Bytes())
	_ = d.U32()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should reject trailing bytes")
	}
}

func TestDecoderLengthLimits(t *testing.T) {
	e := NewEncoder(0)
	e.U32(1 << 30) // absurd length prefix
	d := NewDecoder(e.Bytes())
	if d.VarBytes() != nil || d.Err() == nil {
		t.Fatal("oversized VarBytes accepted")
	}
	d2 := NewDecoder(e.Bytes())
	d2.Count(10)
	if d2.Err() == nil {
		t.Fatal("oversized Count accepted")
	}
}

func TestVarBytesCopies(t *testing.T) {
	e := NewEncoder(0)
	e.VarBytes([]byte("abc"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.VarBytes()
	buf[5] = 'X' // mutate the input after decoding
	if !bytes.Equal(got, []byte("abc")) {
		t.Fatal("VarBytes must copy out of the input buffer")
	}
}

// TestVarInPlaceMatchesVarBytes: the in-place length-prefixed appends write
// exactly the bytes of VarBytes over a separately built encoding.
func TestVarInPlaceMatchesVarBytes(t *testing.T) {
	batch := Batch{Requests: []Request{sampleRequest(1), sampleRequest(2)}}
	pp := &PrePrepare{View: 1, Seq: 2, Digest: batch.Digest(), Replica: 1, Batch: batch, Sig: []byte("sig")}
	want := NewEncoder(0)
	want.U8(7)
	want.VarBytes(Marshal(pp))
	want.VarBytes(MarshalBatch(&batch))
	want.VarBytes(nil)
	got := NewEncoder(0)
	got.U8(7)
	got.VarMessage(pp)
	got.VarAppend(func(dst []byte) []byte { return AppendBatch(dst, &batch) })
	got.VarAppend(func(dst []byte) []byte { return dst })
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("in-place VarMessage/VarAppend differ from VarBytes of the encoding")
	}
}

// roundTrip marshals and unmarshals m, failing the test on any error, and
// returns the decoded message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data := Marshal(m)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal %T: %v", m, err)
	}
	if got.MsgType() != m.MsgType() {
		t.Fatalf("type changed: %v -> %v", m.MsgType(), got.MsgType())
	}
	return got
}

func sampleRequest(i int) Request {
	return Request{
		ClientID:  uint32(i),
		Timestamp: uint64(i * 100),
		Payload:   []byte{byte(i), 2, 3},
		Auth: crypto.Authenticator{MACs: [][crypto.MACSize]byte{
			{byte(i)}, {2}, {3}, {4},
		}},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	var dg crypto.Digest
	dg[7] = 0x77
	req := sampleRequest(1)
	batch := Batch{Requests: []Request{sampleRequest(1), sampleRequest(2)}}
	pp := &PrePrepare{View: 3, Seq: 9, Digest: batch.Digest(), Replica: 3, Batch: batch, Sig: []byte("sig")}
	prep := &Prepare{View: 3, Seq: 9, Digest: dg, Replica: 1, Sig: []byte("s1")}
	com := &Commit{View: 3, Seq: 9, Digest: dg, Replica: 2, Sig: []byte("s2")}
	cp := &Checkpoint{Seq: 100, StateDigest: dg, Replica: 0, Sig: []byte("s3")}
	vc := &ViewChange{
		NewViewNum: 4,
		Stable:     CheckpointCert{Seq: 100, StateDigest: dg, Proof: []Checkpoint{*cp, *cp, *cp}},
		Prepared: []PrepareCert{{
			PrePrepare: *pp.StripBatch(),
			Prepares:   []Prepare{*prep, *prep},
		}},
		Replica: 1,
		Sig:     []byte("s4"),
	}
	nv := &NewView{
		View:        4,
		ViewChanges: []ViewChange{*vc},
		Stable:      vc.Stable,
		PrePrepares: []PrePrepare{*pp.StripBatch()},
		Replica:     0,
		Sig:         []byte("s5"),
	}
	msgs := []Message{
		&req,
		pp, prep, com, cp, vc, nv,
		&Reply{View: 1, ClientID: 5, Timestamp: 6, Replica: 2, Result: []byte("ok"), MAC: [crypto.MACSize]byte{1}},
		&Suspect{Replica: 2, View: 7},
		&AttestRequest{ClientID: 9, Nonce: [32]byte{1}, ClientPub: [32]byte{2}},
		&AttestQuote{Replica: 1, Role: uint8(crypto.RoleExecution), Measurement: dg, EnclavePub: [32]byte{3}, Nonce: [32]byte{1}, Sig: []byte("q")},
		&ProvisionKey{ClientID: 9, Replica: 1, WrappedKey: []byte("wrapped")},
		&StateRequest{Seq: 100, Replica: 3},
		&StateReply{Cert: vc.Stable, Snapshot: []byte("snap"), Replica: 0},
		&BatchFetch{Seq: 9, Digest: dg, Replica: 3},
		&BatchReply{Seq: 9, Digest: dg, Batch: pp.Batch, Replica: 0},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round trip mismatch:\n got %+v\nwant %+v", m, got, m)
		}
	}
}

func TestCheckpointCertStandaloneRoundTrip(t *testing.T) {
	dg := crypto.HashData([]byte("state"))
	cp := Checkpoint{Seq: 40, StateDigest: dg, Replica: 1, Sig: []byte("sig")}
	cert := CheckpointCert{Seq: 40, StateDigest: dg, Proof: []Checkpoint{cp, cp, cp}}
	got, err := UnmarshalCheckpointCert(cert.AppendCert(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cert, got) {
		t.Fatalf("cert round trip mismatch:\n got %+v\nwant %+v", got, cert)
	}
	if _, err := UnmarshalCheckpointCert(cert.AppendCert(nil)[:10]); err == nil {
		t.Fatal("truncated certificate accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Unmarshal([]byte{0xff, 1, 2}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Truncated PrePrepare.
	pp := &PrePrepare{View: 1, Seq: 2, Replica: 3, Sig: []byte("sig")}
	data := Marshal(pp)
	for _, cut := range []int{1, 5, len(data) - 1} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("truncated input of %d bytes accepted", cut)
		}
	}
}

func TestRequestDigestStability(t *testing.T) {
	r1 := sampleRequest(1)
	r2 := sampleRequest(1)
	// Digest must ignore the MAC vector (it differs per receiver set).
	r2.Auth.MACs = nil
	if r1.Digest() != r2.Digest() {
		t.Fatal("request digest must not cover the authenticator")
	}
	r2.Payload = []byte("different")
	if r1.Digest() == r2.Digest() {
		t.Fatal("request digest must cover the payload")
	}
}

func TestBatchDigestOrderSensitive(t *testing.T) {
	a, b := sampleRequest(1), sampleRequest(2)
	b1 := Batch{Requests: []Request{a, b}}
	b2 := Batch{Requests: []Request{b, a}}
	if b1.Digest() == b2.Digest() {
		t.Fatal("batch digest must be order sensitive")
	}
}

func TestStripBatch(t *testing.T) {
	batch := Batch{Requests: []Request{sampleRequest(1)}}
	pp := &PrePrepare{View: 1, Seq: 2, Digest: batch.Digest(), Replica: 1, Batch: batch, Sig: []byte("x")}
	st := pp.StripBatch()
	if len(st.Batch.Requests) != 0 {
		t.Fatal("StripBatch left requests behind")
	}
	if len(pp.Batch.Requests) != 1 {
		t.Fatal("StripBatch mutated the original")
	}
	if st.Digest != pp.Digest || !bytes.Equal(st.Sig, pp.Sig) {
		t.Fatal("StripBatch changed header fields")
	}
}

func TestSigningBytesDomainSeparation(t *testing.T) {
	var dg crypto.Digest
	p := &Prepare{View: 1, Seq: 2, Digest: dg, Replica: 3}
	c := &Commit{View: 1, Seq: 2, Digest: dg, Replica: 3}
	if bytes.Equal(p.SigningBytes(), c.SigningBytes()) {
		t.Fatal("Prepare and Commit signing bytes must differ (type tag)")
	}
	pp := &PrePrepare{View: 1, Seq: 2, Digest: dg, Replica: 3}
	if bytes.Equal(p.SigningBytes(), pp.SigningBytes()) {
		t.Fatal("Prepare and PrePrepare signing bytes must differ")
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(client uint32, ts uint64, payload []byte, macSeed int64) bool {
		rng := rand.New(rand.NewSource(macSeed))
		n := rng.Intn(8)
		var macs [][crypto.MACSize]byte
		if n > 0 {
			macs = make([][crypto.MACSize]byte, n)
			for i := range macs {
				rng.Read(macs[i][:])
			}
		}
		r := &Request{ClientID: client, Timestamp: ts, Payload: payload, Auth: crypto.Authenticator{MACs: macs}}
		data := Marshal(r)
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		// Compare canonically re-encoded bytes: nil and empty slices are
		// indistinguishable on the wire, which is the property we need.
		return bytes.Equal(data, Marshal(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMarshalDeterministic(t *testing.T) {
	f := func(view, seq uint64, replica uint32, payload []byte) bool {
		var dg crypto.Digest
		copy(dg[:], payload)
		m1 := Marshal(&Commit{View: view, Seq: seq, Digest: dg, Replica: replica, Sig: payload})
		m2 := Marshal(&Commit{View: view, Seq: seq, Digest: dg, Replica: replica, Sig: payload})
		return bytes.Equal(m1, m2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unmarshal(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalPrePrepare(b *testing.B) {
	batch := Batch{}
	for i := 0; i < 200; i++ {
		batch.Requests = append(batch.Requests, sampleRequest(i))
	}
	pp := &PrePrepare{View: 1, Seq: 2, Digest: batch.Digest(), Replica: 0, Batch: batch, Sig: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(pp)
	}
}

func BenchmarkUnmarshalPrePrepare(b *testing.B) {
	batch := Batch{}
	for i := 0; i < 200; i++ {
		batch.Requests = append(batch.Requests, sampleRequest(i))
	}
	pp := &PrePrepare{View: 1, Seq: 2, Digest: batch.Digest(), Replica: 0, Batch: batch, Sig: make([]byte, 64)}
	data := Marshal(pp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
