package messages

import (
	"testing"

	"github.com/splitbft/splitbft/internal/crypto"
)

// wireSamples returns one instance of every wire type, the agreement
// family in both authentication modes (signature set, or authenticator
// vector / vouch set), so every field the codec knows is non-empty in at
// least one sample.
func wireSamples() []Message {
	var dg crypto.Digest
	dg[7] = 0x77
	auth := crypto.Authenticator{MACs: [][crypto.MACSize]byte{{1}, {2}, {3}}}
	pair := crypto.Authenticator{MACs: [][crypto.MACSize]byte{{9}}}
	batch := Batch{Requests: []Request{sampleRequest(1), sampleRequest(2)}}

	ppSig := &PrePrepare{View: 3, Seq: 9, Digest: dg, Replica: 3, Batch: batch, Sig: []byte("sig")}
	ppMAC := &PrePrepare{View: 3, Seq: 9, Digest: dg, Replica: 3, Batch: batch, Auth: auth, CtrVal: 12, CtrSig: make([]byte, 6*crypto.MACSize)}
	prepSig := &Prepare{View: 3, Seq: 9, Digest: dg, Replica: 1, Sig: []byte("s1")}
	prepMAC := &Prepare{View: 3, Seq: 9, Digest: dg, Replica: 1, Auth: auth}
	cpSig := &Checkpoint{Seq: 100, StateDigest: dg, Replica: 2, Sig: []byte("s3")}
	cpMAC := &Checkpoint{Seq: 100, StateDigest: dg, Replica: 2, Auth: auth}
	stableSig := CheckpointCert{Seq: 100, StateDigest: dg, Proof: []Checkpoint{*cpSig, *cpSig, *cpSig}}
	stableMAC := CheckpointCert{Seq: 100, StateDigest: dg, Attestor: 1, AttestorRole: uint8(crypto.RoleExecution), Vouch: []byte("vouch")}
	vcSig := &ViewChange{
		NewViewNum: 4, Stable: stableSig, Replica: 1, Sig: []byte("s4"),
		Prepared: []PrepareCert{{PrePrepare: *ppSig.StripBatch(), Prepares: []Prepare{*prepSig, *prepSig}}},
	}
	vcMAC := &ViewChange{
		NewViewNum: 4, Stable: stableMAC, Replica: 1, HighCtr: 12, Sig: []byte("s4"),
		Prepared: []PrepareCert{{PrePrepare: *ppMAC.StripAuth(), Attestor: 2, Vouch: []byte("vouch")}},
	}
	return []Message{
		&batch.Requests[0],
		ppSig, ppMAC, prepSig, prepMAC,
		&Commit{View: 3, Seq: 9, Digest: dg, Replica: 2, Sig: []byte("s2")},
		&Commit{View: 3, Seq: 9, Digest: dg, Replica: 2, Auth: auth},
		&Reply{View: 1, ClientID: 5, Timestamp: 6, Replica: 2, Result: []byte("ok"), MAC: [crypto.MACSize]byte{1}},
		cpSig, cpMAC, vcSig, vcMAC,
		&NewView{View: 4, ViewChanges: []ViewChange{*vcSig, *vcSig}, Stable: stableSig, PrePrepares: []PrePrepare{*ppSig.StripBatch()}, Sig: []byte("s5")},
		&NewView{View: 4, ViewChanges: []ViewChange{*vcMAC, *vcMAC}, Stable: stableMAC, PrePrepares: []PrePrepare{*ppMAC.StripBatch()}, CtrBase: 12, Sig: []byte("s5")},
		&AttestRequest{ClientID: 9, Nonce: [32]byte{1}, ClientPub: [32]byte{2}},
		&AttestQuote{Replica: 1, Role: uint8(crypto.RoleExecution), Measurement: dg, EnclavePub: [32]byte{3}, Nonce: [32]byte{1}, Sig: []byte("q")},
		&ProvisionKey{ClientID: 9, Replica: 1, WrappedKey: []byte("wrapped")},
		&StateRequest{Seq: 100, Replica: 3},
		&StateReply{Cert: stableSig, Snapshot: []byte("snap"), Replica: 0},
		&StateReply{Cert: stableMAC, Snapshot: []byte("snap"), Replica: 0},
		&Suspect{Replica: 2, View: 7},
		&BatchFetch{Seq: 9, Digest: dg, Replica: 3},
		&BatchReply{Seq: 9, Digest: dg, Batch: batch, Replica: 0},
		&StateProbe{Have: 77, Replica: 3},
		&LeaseGrant{Granter: 0, Holder: 2, View: 4, Expiry: 1 << 40, Probe: true, Sig: []byte("lease")},
		// A servable grant as the counter signs it: a full Ed25519 signature.
		&LeaseGrant{Granter: 0, Holder: 2, View: 4, Expiry: 1 << 40, Sig: make([]byte, 64)},
		&ReadRequest{ClientID: 5, Timestamp: 6, Payload: []byte("get"), MAC: [crypto.MACSize]byte{4}},
		&ReadReply{Replica: 2, ClientID: 5, Timestamp: 6, View: 4, OK: true, Result: []byte("v"), MAC: [crypto.MACSize]byte{5}},
		// A refusal: no result, so a zero length prefix right before the MAC.
		&ReadReply{Replica: 2, ClientID: 5, Timestamp: 6, View: 4, MAC: [crypto.MACSize]byte{5}},
		&LeaseAck{Holder: 2, View: 4, Expiry: 1 << 40, Auth: pair},
		&ReadIndex{Holder: 2, View: 4, Epoch: 8, Auth: pair},
		&ReadIndexReply{Replica: 0, Holder: 2, View: 4, Epoch: 8, Frontier: 9, Auth: pair},
	}
}

// checkCorpus is every sample marshalled, every proper prefix of it, and at
// every offset the byte raised by one (a length or count one too long) and
// set to 0xFF (one beyond the frame or over the decoder's limit) — which
// covers every length field without the test having to know where they are.
func checkCorpus() [][]byte {
	var out [][]byte
	for _, m := range wireSamples() {
		data := Marshal(m)
		out = append(out, data)
		for cut := 0; cut < len(data); cut++ {
			out = append(out, data[:cut:cut])
		}
		for i := range data {
			for _, v := range []byte{data[i] + 1, 0xFF} {
				mut := append([]byte(nil), data...)
				mut[i] = v
				out = append(out, mut)
			}
		}
	}
	return out
}

// TestWireSamplesCoverEveryType keeps the corpus honest: a wire type added
// to newMessage without a sample here would leave Check untested for it.
func TestWireSamplesCoverEveryType(t *testing.T) {
	seen := make(map[Type]bool)
	for _, m := range wireSamples() {
		seen[m.MsgType()] = true
		if err := Check(Marshal(m)); err != nil {
			t.Errorf("Check rejects a marshalled %T: %v", m, err)
		}
	}
	for typ := Type(0); typ < 0xFF; typ++ {
		if _, err := newMessage(typ); err == nil && !seen[typ] {
			t.Errorf("no sample of wire type %v", typ)
		}
	}
}

// FuzzCheckAgreesWithUnmarshal holds the structural check to the decoder:
// Check accepts exactly the frames Unmarshal accepts. The seed corpus runs
// under plain `go test`; -fuzz explores from it.
func FuzzCheckAgreesWithUnmarshal(f *testing.F) {
	for _, data := range checkCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, uerr := Unmarshal(data)
		cerr := Check(data)
		if (uerr == nil) != (cerr == nil) {
			t.Fatalf("Unmarshal says %v, Check says %v, on %x", uerr, cerr, data)
		}
	})
}

// TestReplyIdentityMatchesDecode: the header peek reads what the decoder
// reads, and refuses anything that is not a Reply with its whole fixed
// header.
func TestReplyIdentityMatchesDecode(t *testing.T) {
	rep := &Reply{View: 1<<40 + 1, ClientID: 0xC0FFEE, Timestamp: 1<<50 + 3, Replica: 2, Result: []byte("ok")}
	data := Marshal(rep)
	client, ts, ok := ReplyIdentity(data)
	if !ok || client != rep.ClientID || ts != rep.Timestamp {
		t.Fatalf("ReplyIdentity = (%d, %d, %v), want (%d, %d, true)", client, ts, ok, rep.ClientID, rep.Timestamp)
	}
	if _, _, ok := ReplyIdentity(data[:replyFixed]); ok {
		t.Fatal("accepted a Reply cut inside its fixed header")
	}
	if _, _, ok := ReplyIdentity(Marshal(&ReadReply{ClientID: 1, Timestamp: 2})); ok {
		t.Fatal("accepted a frame that is not a Reply")
	}
}

// TestReadReplyHeaderMatchesDecode: the header peek reads what the decoder
// reads, served or refused, and refuses anything that is not a ReadReply
// with its whole fixed header.
func TestReadReplyHeaderMatchesDecode(t *testing.T) {
	for _, served := range []bool{true, false} {
		rep := &ReadReply{Replica: 3, ClientID: 0xC0FFEE, Timestamp: 1<<50 + 3, View: 1<<40 + 1, OK: served, Result: []byte("v")}
		data := Marshal(rep)
		client, ts, gotServed, ok := ReadReplyHeader(data)
		if !ok || client != rep.ClientID || ts != rep.Timestamp || gotServed != served {
			t.Fatalf("ReadReplyHeader = (%d, %d, %v, %v), want (%d, %d, %v, true)", client, ts, gotServed, ok, rep.ClientID, rep.Timestamp, served)
		}
		if _, _, _, ok := ReadReplyHeader(data[:readReplyFixed]); ok {
			t.Fatal("accepted a ReadReply cut inside its fixed header")
		}
	}
	if _, _, _, ok := ReadReplyHeader(Marshal(&Reply{ClientID: 1, Timestamp: 2})); ok {
		t.Fatal("accepted a frame that is not a ReadReply")
	}
}

// classifyProposal is a proposal as mac-tcp carries it: one small request,
// a 3n-slot authenticator vector and a 2n-slot counter attestation at n = 3.
func classifyProposal() []byte {
	pp := benchPrePrepare(1)
	pp.Sig = nil
	pp.Auth = crypto.Authenticator{MACs: make([][crypto.MACSize]byte, 9)}
	pp.CtrVal, pp.CtrSig = 42, make([]byte, 6*crypto.MACSize)
	return Marshal(pp)
}

// TestCheckAllocatesNothing pins what BenchmarkClassify reports.
func TestCheckAllocatesNothing(t *testing.T) {
	data := classifyProposal()
	if n := testing.AllocsPerRun(100, func() {
		if err := Check(data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Check allocates %v times per proposal, want 0", n)
	}
}

// BenchmarkClassify is the verdict the broker's classify stage needs on a
// forwarded proposal, by the structural check and by the decode it replaced.
func BenchmarkClassify(b *testing.B) {
	data := classifyProposal()
	b.Run("Check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Check(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
