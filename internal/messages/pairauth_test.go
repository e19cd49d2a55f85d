package messages

import (
	"errors"
	"reflect"
	"testing"

	"github.com/splitbft/splitbft/internal/crypto"
)

// Receiver-rule tests for the pair proof form: ReadIndex, ReadIndexReply and
// LeaseAck are accepted on exactly one MAC under the pairwise key of sender
// and addressee, in either auth mode, and on nothing else.

// pairVerifier is hopVerifier in the given auth mode.
func pairVerifier(fx *fixture, self crypto.Identity, mode AuthMode) *Verifier {
	v := hopVerifier(fx, self)
	v.Mode = mode
	return v
}

// pairCase is one pair-form message between the primary of view 0 and holder
// h, with the two ends it travels between.
type pairCase struct {
	m                Addressed
	sender, receiver crypto.Identity
	setAuth          func(crypto.Authenticator)
	verify           func(*Verifier) error
}

func pairCases(h uint32) []pairCase {
	prep0 := crypto.Identity{ReplicaID: 0, Role: crypto.RolePreparation}
	execH := crypto.Identity{ReplicaID: h, Role: crypto.RoleExecution}
	ri := &ReadIndex{Holder: h, View: 0, Epoch: 7}
	ack := &LeaseAck{Holder: h, View: 0, Expiry: 99}
	rep := &ReadIndexReply{Replica: 0, Holder: h, View: 0, Epoch: 7, Frontier: 3}
	return []pairCase{
		{ri, execH, prep0, func(a crypto.Authenticator) { ri.Auth = a }, func(v *Verifier) error { return v.VerifyReadIndex(ri) }},
		{ack, execH, prep0, func(a crypto.Authenticator) { ack.Auth = a }, func(v *Verifier) error { return v.VerifyLeaseAck(ack) }},
		{rep, prep0, execH, func(a crypto.Authenticator) { rep.Auth = a }, func(v *Verifier) error { return v.VerifyReadIndexReply(rep) }},
	}
}

// TestPairAuthAccepted: a valid pair MAC is accepted from a remote and from
// a co-located sender, in both auth modes, at the cost of one HMAC.
func TestPairAuthAccepted(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	for _, mode := range []AuthMode{AuthSig, AuthMAC} {
		for _, h := range []uint32{2, 0} { // remote holder, the primary's own replica
			for _, c := range pairCases(h) {
				if got := PairAddressee(c.m, fx.n); got != c.receiver {
					t.Fatalf("%s from holder %d is addressed to %v, want %v", c.m.MsgType(), h, got, c.receiver)
				}
				c.setAuth(pairVerifier(fx, c.sender, mode).PairAuth(c.m, c.receiver))
				rv := pairVerifier(fx, c.receiver, mode)
				if err := c.verify(rv); err != nil {
					t.Fatalf("%s mode, holder %d: valid %s rejected: %v", mode, h, c.m.MsgType(), err)
				}
				if st := rv.Stats(); st.SigVerifies != 0 || st.MACVerifies != 1 {
					t.Fatalf("%s mode: %s cost %+v, want one MAC and no signature", mode, c.m.MsgType(), st)
				}
			}
		}
	}
}

// TestPairAuthRejected: anything but the one slot keyed between this sender
// and this addressee is refused, with no signature path to fall back to — a
// genuine Ed25519 signature of the sender, carried the only way such a frame
// could carry 64 bytes, included.
func TestPairAuthRejected(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	for _, mode := range []AuthMode{AuthSig, AuthMAC} {
		for _, h := range []uint32{2, 0} {
			for _, c := range pairCases(h) {
				sv := pairVerifier(fx, c.sender, mode)
				good := sv.PairAuth(c.m, c.receiver).MACs[0]
				garbled := good
				garbled[0] ^= 1
				elsewhere := c.receiver
				elsewhere.ReplicaID = 3
				impostor := c.sender
				impostor.ReplicaID = 1
				var sig [2][crypto.MACSize]byte
				signed := fx.sign(c.sender.ReplicaID, c.sender.Role, signingBytes(c.m))
				copy(sig[0][:], signed)
				copy(sig[1][:], signed[crypto.MACSize:])
				for name, auth := range map[string]crypto.Authenticator{
					"absent slot":                     {},
					"garbled slot":                    {MACs: [][crypto.MACSize]byte{garbled}},
					"two slots":                       {MACs: [][crypto.MACSize]byte{good, good}},
					"slot made for another addressee": sv.PairAuth(c.m, elsewhere),
					"slot made by another sender":     pairVerifier(fx, impostor, mode).PairAuth(c.m, c.receiver),
					"the sender's signature alone":    {MACs: sig[:]},
				} {
					c.setAuth(auth)
					rv := pairVerifier(fx, c.receiver, mode)
					if err := c.verify(rv); !errors.Is(err, ErrInvalid) {
						t.Fatalf("%s mode, holder %d: %s with %s accepted: %v", mode, h, c.m.MsgType(), name, err)
					}
					if st := rv.Stats(); st.SigVerifies != 0 {
						t.Fatalf("%s with %s ran %d signature verifications: there is one path", c.m.MsgType(), name, st.SigVerifies)
					}
				}
			}
		}
	}
	// A verifier that was given no pairwise store accepts no pair message.
	c := pairCases(2)[0]
	c.setAuth(pairVerifier(fx, c.sender, AuthSig).PairAuth(c.m, c.receiver))
	if err := c.verify(fx.ver); !errors.Is(err, ErrInvalid) {
		t.Fatalf("verifier without a pairwise store accepted a %s: %v", c.m.MsgType(), err)
	}
}

// TestPairAuthDecodeBound: a pair-form frame round-trips with its one slot,
// and one announcing a vector is refused by the decoder — before the 4096
// slots a vector type may announce could be allocated for a message that can
// never use more than one.
func TestPairAuthDecodeBound(t *testing.T) {
	fx := newFixture(t, SplitScheme())
	for _, c := range pairCases(2) {
		m := c.m.(Message)
		sv := pairVerifier(fx, c.sender, AuthSig)
		one := sv.PairAuth(c.m, c.receiver)
		c.setAuth(one)
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("%s round trip: %v", c.m.MsgType(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s round trip changed the message: %+v != %+v", c.m.MsgType(), got, m)
		}
		c.setAuth(crypto.Authenticator{MACs: [][crypto.MACSize]byte{one.MACs[0], one.MACs[0]}})
		if _, err := Unmarshal(Marshal(m)); !errors.Is(err, ErrDecode) {
			t.Fatalf("%s with a two-slot vector decoded: %v", c.m.MsgType(), err)
		}
		// The announced count alone must be refused, slots present or not.
		c.setAuth(crypto.Authenticator{})
		frame := Marshal(m)
		frame[len(frame)-4] = 0xFF // count: the trailing little-endian u32
		frame[len(frame)-3] = 0x0F
		if _, err := Unmarshal(frame); !errors.Is(err, ErrDecode) {
			t.Fatalf("%s announcing 4095 slots decoded: %v", c.m.MsgType(), err)
		}
	}
}

// TestAuthRulesTable walks the whole table: every wire type is either in it
// or deliberately not, the only hop type is Commit, and a pair type names one
// addressee role and a message that can name the replica.
func TestAuthRulesTable(t *testing.T) {
	outside := map[Type]bool{
		TRequest: true, TReply: true, TReadRequest: true, TReadReply: true, // client MAC
		TLeaseGrant:    true,                                          // counter signature
		TAttestRequest: true, TAttestQuote: true, TProvisionKey: true, // attestation
		TStateRequest: true, TStateReply: true, TStateProbe: true, // checked against certificates
		TBatchFetch: true, TBatchReply: true, TSuspect: true, // liveness only
	}
	for typ := TRequest; typ <= TReadIndexReply; typ++ {
		rule := authRuleOf(typ)
		m, err := newMessage(typ)
		if err != nil {
			t.Fatal(err)
		}
		_, addressed := m.(Addressed)
		switch rule.form {
		case 0:
			if !outside[typ] {
				t.Fatalf("%s has no proof form and is not listed as outside the table", typ)
			}
		case ProofHop:
			if typ != TCommit {
				t.Fatalf("%s is hop form: only a Commit is consumed without ever being exported", typ)
			}
		case ProofPair:
			if len(rule.roles) != 1 || !addressed {
				t.Fatalf("%s is pair form with roles %v, Addressed=%v", typ, rule.roles, addressed)
			}
			if AgreementAuthReceivers(typ, 4) != nil {
				t.Fatalf("%s is pair form and has a vector layout", typ)
			}
		}
		if (rule.form == ProofPair) != addressed {
			t.Fatalf("%s: Addressed=%v but form %d", typ, addressed, rule.form)
		}
		if rule.form != 0 && outside[typ] {
			t.Fatalf("%s is both in the table and listed as outside it", typ)
		}
	}
	if ProofFormOf(Type(200)) != 0 {
		t.Fatal("an unknown type has a proof form")
	}
}
