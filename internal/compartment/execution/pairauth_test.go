package execution

import (
	"crypto/ecdh"
	"crypto/rand"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
)

// Tests for the read-index round under the pair proof form (leaseRig, so
// every compartment holds its enclave's attested pairwise keys as deployed):
// a frontier confirms only the query it answers, and a message whose one MAC
// slot is anything but the sender's for this addressee costs the read its
// fast path and nothing else.

var bothAuthModes = []messages.AuthMode{messages.AuthSig, messages.AuthMAC}

// wantFallback asserts the liveness-only outcome of an unconfirmed read: it
// stays parked and unserved under a live lease (its client falls back to the
// agreement path on its own retransmit timer), and once the lease lapses the
// holder's next period query refuses it explicitly.
func (r *leaseRig) wantFallback(replica uint32) {
	r.t.Helper()
	if got := len(r.codes[replica].riPending); got != 1 {
		r.t.Fatalf("pending linearizable reads = %d, want the one unconfirmed read", got)
	}
	if rep := r.tickExec(replica, TickPeriod); rep != nil {
		r.t.Fatalf("unconfirmed read settled under a live lease: %+v", rep)
	}
	r.lapse(replica)
	if rep := r.tickExec(replica, TickPeriod); rep == nil || rep.OK {
		r.t.Fatalf("unconfirmed read was not refused once the lease lapsed: %+v", rep)
	}
	if got := r.served[replica]; got != 0 {
		r.t.Fatalf("served reads = %d: an unconfirmed read was served", got)
	}
}

// TestReadIndexReplyBoundToHolder is the replay the untrusted environment
// could mount alone: capture the frontier the primary reported to holder 2,
// and hand it to holder 1 as the answer to a later query carrying the same
// (holder-local) epoch number. Holder 1 would then serve a linearizable read
// that misses a write proposed — and possibly acknowledged — in between.
func TestReadIndexReplyBoundToHolder(t *testing.T) {
	for _, mode := range bothAuthModes {
		t.Run(mode.String(), func(t *testing.T) {
			r := newLeaseRigMode(t, time.Second, mode)
			r.armLeases()
			get := app.EncodeGet("k")

			stale := r.answer(r.query(2, 1, get)) // frontier 0, made for holder 2
			if stale == nil || stale.Frontier != 0 {
				t.Fatalf("holder 2's query was answered with %+v, want frontier 0", stale)
			}
			r.propose(1)

			// Make the epochs collide, as two holders counting from the same
			// base would.
			r.codes[1].riSentEpoch, r.codes[1].riAckedEpoch = stale.Epoch-1, stale.Epoch-1
			ri := r.query(1, 2, get)
			if ri.Epoch != stale.Epoch {
				t.Fatalf("holder 1 queried at epoch %d, want the colliding %d", ri.Epoch, stale.Epoch)
			}
			relabelled := *stale
			relabelled.Holder = 1
			for name, rr := range map[string]*messages.ReadIndexReply{
				"holder 2's reply":                         stale,
				"holder 2's reply relabelled for holder 1": &relabelled,
			} {
				if rep := r.confirm(1, rr); rep != nil {
					t.Fatalf("%s confirmed holder 1's query: served %+v against a stale frontier", name, rep)
				}
			}
			if !r.codes[1].riInFlight {
				t.Fatal("a foreign reply settled holder 1's in-flight query")
			}
			// Its own answer names the new frontier: the read waits for the write.
			own := r.answer(ri)
			if own == nil || own.Holder != 1 || own.Frontier != 1 {
				t.Fatalf("holder 1's query was answered with %+v, want holder 1 at frontier 1", own)
			}
			if rep := r.confirm(1, own); rep != nil {
				t.Fatalf("read served while behind its own frontier: %+v", rep)
			}
			if got := r.served[1]; got != 0 {
				t.Fatalf("served reads = %d, want 0", got)
			}
		})
	}
}

// TestReadIndexEpochFreshAcrossRestart: the epoch counter is not sealed, so a
// holder that restarts inside one view — under the same keys in a seeded
// deployment — must not count from where a reply captured before the restart
// would match again.
func TestReadIndexEpochFreshAcrossRestart(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases()
	get := app.EncodeGet("k")
	before := r.codes[1].riSentEpoch
	captured := r.answer(r.query(1, 1, get)) // frontier 0, never delivered
	if captured == nil {
		t.Fatal("primary did not answer the first query")
	}

	r.restartExec(1)
	if after := r.codes[1].riSentEpoch; after == before {
		t.Fatalf("two boots drew the same epoch base %d", after)
	}
	r.renewalDue()
	r.renew() // the restarted holder is leased again
	r.propose(1)

	ri := r.query(1, 1, get) // a fresh boot has no read-timestamp history either
	if ri.Epoch == captured.Epoch {
		t.Fatalf("query after the restart reuses epoch %d", ri.Epoch)
	}
	if rep := r.confirm(1, captured); rep != nil {
		t.Fatalf("reply captured before the restart confirmed a query sent after it: %+v", rep)
	}
	r.wantFallback(1)
}

// slotFault replaces the authenticator of a pair-form message m, made by the
// compartment holding sender, with something its addressee must refuse.
type slotFault struct {
	name string
	make func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) crypto.Authenticator
}

func slotFaults() []slotFault {
	good := func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) [crypto.MACSize]byte {
		return sender.PairAuth(m, messages.PairAddressee(m, r.n)).MACs[0]
	}
	return []slotFault{
		{"absent slot", func(*leaseRig, *messages.Verifier, messages.Addressed) crypto.Authenticator {
			return crypto.Authenticator{}
		}},
		{"garbled slot", func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) crypto.Authenticator {
			mac := good(r, sender, m)
			mac[5] ^= 0x40
			return crypto.Authenticator{MACs: [][crypto.MACSize]byte{mac}}
		}},
		{"two slots", func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) crypto.Authenticator {
			mac := good(r, sender, m)
			return crypto.Authenticator{MACs: [][crypto.MACSize]byte{mac, mac}}
		}},
		{"slot made for another addressee", func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) crypto.Authenticator {
			to := messages.PairAddressee(m, r.n)
			to.Role = crypto.RoleExecution
			to.ReplicaID = 3 // an enclave the rig runs, and never the addressee here
			return sender.PairAuth(m, to)
		}},
		{"slot made by another sender", func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) crypto.Authenticator {
			other := r.codes[3].Ver
			if other == sender {
				other = r.codes[2].Ver
			}
			return other.PairAuth(m, messages.PairAddressee(m, r.n))
		}},
		{"slot keyed before an ECDH epoch bump", func(r *leaseRig, sender *messages.Verifier, m messages.Addressed) crypto.Authenticator {
			auth := sender.PairAuth(m, messages.PairAddressee(m, r.n))
			// The sender restarts under fresh keys and re-registers: what it
			// sent before is keyed to an enclave that no longer exists.
			fresh, err := ecdh.X25519().GenerateKey(rand.Reader)
			if err != nil {
				r.t.Fatal(err)
			}
			r.reg.RegisterECDH(sender.Self, [32]byte(fresh.PublicKey().Bytes()))
			return auth
		}},
	}
}

// TestPairAuthBadSlotFallsBack drives each bad slot through each hop of the
// read path in both auth modes. The outcome is always the same and never a
// stale or unauthenticated answer: the message is dropped, the read is not
// served locally, and the client is told to use agreement.
func TestPairAuthBadSlotFallsBack(t *testing.T) {
	get := app.EncodeGet("k")
	for _, mode := range bothAuthModes {
		for _, fault := range slotFaults() {
			t.Run(mode.String()+"/LeaseAck/"+fault.name, func(t *testing.T) {
				r := newLeaseRigMode(t, time.Second, mode)
				probes := r.grants()
				for holder := uint32(0); int(holder) < r.n; holder++ {
					ack := r.deliver(holder, probes[holder])
					if ack == nil {
						t.Fatalf("holder %d did not ack", holder)
					}
					ack.Auth = fault.make(r, r.codes[holder].Ver, ack)
					if round := r.feedAck(ack); len(round) != 0 {
						t.Fatalf("an ack with %s counted toward the quorum", fault.name)
					}
				}
				r.wantProbeOnly() // unauthenticated acks prove no reachability
				if rep := r.read(1, 1, get); rep == nil || rep.OK {
					t.Fatalf("read served without a servable lease: %+v", rep)
				}
			})
			t.Run(mode.String()+"/ReadIndex/"+fault.name, func(t *testing.T) {
				r := newLeaseRigMode(t, time.Second, mode)
				r.armLeases()
				ri := r.query(1, 1, get)
				ri.Auth = fault.make(r, r.codes[1].Ver, ri)
				if rr := r.answer(ri); rr != nil {
					t.Fatalf("primary answered a query with %s: %+v", fault.name, rr)
				}
				r.wantFallback(1)
			})
			t.Run(mode.String()+"/ReadIndexReply/"+fault.name, func(t *testing.T) {
				r := newLeaseRigMode(t, time.Second, mode)
				r.armLeases()
				rr := r.answer(r.query(1, 1, get))
				if rr == nil {
					t.Fatal("primary did not answer")
				}
				rr.Auth = fault.make(r, r.prepVer, rr)
				if rep := r.confirm(1, rr); rep != nil {
					t.Fatalf("holder served on a reply with %s: %+v", fault.name, rep)
				}
				r.wantFallback(1)
			})
		}
		// The control: untouched slots serve, from a remote holder and from
		// the primary's own replica, whose round never leaves the machine.
		t.Run(mode.String()+"/valid", func(t *testing.T) {
			r := newLeaseRigMode(t, time.Second, mode)
			r.armLeases()
			for _, holder := range []uint32{1, 0} {
				if rep := r.read(holder, 1, get); rep == nil || !rep.OK {
					t.Fatalf("holder %d refused a read with valid slots: %+v", holder, rep)
				}
			}
		})
	}
}
