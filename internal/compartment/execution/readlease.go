package execution

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// readLeases is the Execution compartment's read-lease state (ReadLeases
// deployments): the lease it holds, the reads parked behind a read-index
// query and the query's epoch.
type readLeases struct {
	// lease is the verified grant currently held — deliberately NOT part of the sealed persistent
	// state: a restarted replica comes back leaseless and refuses local
	// reads (fail-closed) until the primary re-grants. leaseMargin is the
	// near-expiry refusal margin, the clock-skew allowance: this replica
	// stops serving that long before the nominal expiry, so a primary and
	// holder whose clocks disagree by less than the margin never disagree
	// about whether a lease was live.
	leases      bool
	lease       *messages.LeaseGrant
	leaseMargin time.Duration
	clock       *compartment.SkewClock
	// readHigh tracks, per client, the highest ReadRequest timestamp already
	// accepted past MAC verification. Clients never reuse a read timestamp,
	// so anything at or below the watermark is a replay (or stale
	// retransmit): it is dropped before any MAC, AEAD or application work —
	// a replayed authenticated read must not burn enclave CPU forever.
	readHigh map[uint32]uint64

	// Read-index confirmation state. A leased read is never served off
	// lease state alone: the holder first asks the primary's Preparation
	// compartment for its proposal frontier with a ReadIndex query sent
	// AFTER the read arrived. Any write acknowledged to any client before
	// the query was proposed at or below that frontier, so once lastExec
	// covers it the read observes every prior acked write. Queries are
	// batched by epoch: one query is in flight at a time, reads arriving
	// meanwhile wait for the next epoch (their frontier must be sampled
	// after their arrival).
	riPending []pendingRead
	// riSentEpoch is the epoch of the last query sent; riInFlight whether
	// its reply is still outstanding. Epochs count up from a base drawn from
	// fresh randomness at every boot (newReadLeases): the state here is not
	// sealed, so counting from zero would let a reply captured before a
	// restart — same view, same keys in a seeded deployment — confirm a query
	// sent after it against the older frontier.
	riSentEpoch uint64
	riInFlight  bool
	// riAckedEpoch/riAckedFrontier are the newest confirmed epoch and its
	// frontier. The frontier only grows within a view (nextSeq is
	// monotonic), so serving older epochs against the newest frontier is
	// conservative, never unsound.
	riAckedEpoch    uint64
	riAckedFrontier uint64
}

// newReadLeases sets up the read-lease state of a compartment configured
// with cfg.
func newReadLeases(cfg compartment.Config) (readLeases, error) {
	var boot [8]byte
	if _, err := io.ReadFull(rand.Reader, boot[:]); err != nil {
		return readLeases{}, fmt.Errorf("read-index epoch base: %w", err)
	}
	// The top bit stays clear: no run of queries overflows the counter.
	epochBase := binary.LittleEndian.Uint64(boot[:]) >> 1
	return readLeases{
		leases:       cfg.ReadLeases,
		leaseMargin:  cfg.LeaseTTL / 8,
		clock:        cfg.Clock,
		readHigh:     make(map[uint32]uint64),
		riSentEpoch:  epochBase,
		riAckedEpoch: epochBase,
	}, nil
}

// pendingRead is a leased read parked until its read-index epoch is
// confirmed and applied.
type pendingRead struct {
	req   *messages.ReadRequest
	epoch uint64
}

// riPendingMax bounds the pending-read queue; admission past it refuses
// immediately (the client falls back to agreement, losing only latency).
const riPendingMax = 4096

// onLeaseGrant acknowledges and (for non-probe grants) installs a verified
// read lease addressed to this replica. Grants carry the counter enclave's
// signature, so the untrusted broker cannot mint one; grants for any view
// but the compartment's current one are dead on arrival — neither acked
// nor installed — which is what makes a quorum of acks a proof that the
// granter is the primary of the view 2f+1 Execution compartments actually
// inhabit. A replayed old grant is rejected by the freshness comparison
// (it can only lower the expiry), and its ack cannot refresh the granter's
// reachability record (the echoed expiry is monotonically tracked there).
func (e *Compartment) onLeaseGrant(host tee.Host, g *messages.LeaseGrant) []tee.OutMsg {
	if !e.leases || g.Holder != e.ID {
		return nil
	}
	if err := e.Ver.VerifyLease(g); err != nil {
		return nil
	}
	if g.View != e.View {
		return nil
	}
	// Ack every verified current-view grant, probe or real, echoing its
	// expiry as the round nonce: the granter needs a quorum of fresh acks
	// before it may issue servable (non-probe) grants.
	ack := &messages.LeaseAck{Holder: e.ID, View: g.View, Expiry: g.Expiry}
	_, ack.Auth = e.Authenticate(host, ack)
	var out []tee.OutMsg
	if g.Granter == e.ID {
		out = append(out, compartment.LocalOut(crypto.RolePreparation, ack))
	} else if int(g.Granter) < e.N {
		out = append(out, compartment.ReplicaOut(g.Granter, ack))
	}
	if g.Probe {
		return out // reachability probe: acknowledged, never installed
	}
	if cur := e.lease; cur != nil && cur.View == g.View && g.Expiry <= cur.Expiry {
		return out // stale or duplicate grant
	}
	e.lease = g
	return out
}

// leaseValid reports whether the held lease authorizes serving local reads
// right now: it must exist, match the compartment's current view (a view
// change revokes every outstanding lease instantly on correct replicas),
// and be more than the clock-skew margin away from expiry. Fail-closed on
// every branch — a refusal only pushes the client onto the agreement path.
func (e *Compartment) leaseValid(now time.Time) bool {
	g := e.lease
	if g == nil || g.View != e.View {
		return false
	}
	return now.UnixNano()+int64(e.leaseMargin) < g.Expiry
}

// onReadRequest admits a read under the held lease — the whole point of
// the lease fast path: no PrePrepare, no quorum, one attested reply. The
// read is parked until a read-index frontier sampled after its arrival is
// confirmed and applied. Refusals are explicit (OK=false) so the client
// falls back to agreement immediately. The exactly-once records (clients)
// are deliberately untouched: leased reads are side-effect-free and
// unordered, so recording them would pollute the write path's windows.
func (e *Compartment) onReadRequest(host tee.Host, r *messages.ReadRequest) []tee.OutMsg {
	if !e.leases {
		return nil
	}
	if r.Timestamp <= e.readHigh[r.ClientID] {
		// Replay (or stale retransmit): clients never reuse a read
		// timestamp, so drop before any MAC, AEAD or application work.
		return nil
	}
	enc := messages.GetEncoder()
	r.AppendAuthenticated(enc)
	err := e.macs.VerifySingle(enc.Bytes(), r.MAC, crypto.Identity{ReplicaID: r.ClientID, Role: crypto.RoleClient})
	messages.PutEncoder(enc)
	if err != nil {
		return nil // unauthenticated: drop, like any forged client traffic
	}
	e.readHigh[r.ClientID] = r.Timestamp
	if _, ok := e.app.(app.ReadExecutor); !ok || !e.leaseValid(e.clock.Now()) || len(e.riPending) >= riPendingMax {
		return []tee.OutMsg{e.readReply(r, false)}
	}
	// The read's epoch names the first query sent at or after its arrival:
	// if no query is in flight one goes out now; otherwise the read waits
	// for the round after the in-flight one — the in-flight query was sent
	// before this read arrived, so its frontier could miss a write acked in
	// between (exactly the stale-read hazard of anchoring reads at grant
	// time).
	var out []tee.OutMsg
	epoch := e.riSentEpoch + 1
	if !e.riInFlight {
		e.riSentEpoch = epoch
		e.riInFlight = true
		out = append(out, e.sendReadIndex(host))
	}
	e.riPending = append(e.riPending, pendingRead{req: r, epoch: epoch})
	return out
}

// readReply answers r: with serve set it runs the serve checks and returns
// the result when they pass; otherwise, or when a check fails, it is an
// explicit OK=false refusal — the client's signal to take the agreement
// path.
func (e *Compartment) readReply(r *messages.ReadRequest, serve bool) tee.OutMsg {
	rep := &messages.ReadReply{Replica: e.ID, ClientID: r.ClientID, Timestamp: r.Timestamp, View: e.View}
	if serve {
		rep.Result, rep.OK = e.serveLocalRead(r)
	}
	rep.MAC = e.clientMAC(rep, r.ClientID)
	return compartment.ClientOut(r.ClientID, rep)
}

// clientMAC authenticates a client-bound message to its client, encoding
// the covered bytes in a pooled buffer.
func (e *Compartment) clientMAC(m interface{ AppendAuthenticated(*messages.Encoder) }, client uint32) [crypto.MACSize]byte {
	enc := messages.GetEncoder()
	m.AppendAuthenticated(enc)
	mac := e.macs.MAC(enc.Bytes(), crypto.Identity{ReplicaID: client, Role: crypto.RoleClient})
	messages.PutEncoder(enc)
	return mac
}

// sendReadIndex (re)transmits the current epoch's frontier query to the
// primary's Preparation compartment.
func (e *Compartment) sendReadIndex(host tee.Host) tee.OutMsg {
	ri := &messages.ReadIndex{Holder: e.ID, View: e.View, Epoch: e.riSentEpoch}
	_, ri.Auth = e.Authenticate(host, ri)
	if p := e.Primary(e.View); p != e.ID {
		return compartment.ReplicaOut(p, ri)
	}
	return compartment.LocalOut(crypto.RolePreparation, ri)
}

// onReadIndexReply confirms a frontier for the in-flight epoch, serves
// everything it unblocks, and starts the next round if reads arrived while
// the query was out. Only the answer to this holder's own outstanding query
// counts: a frontier reported to another holder, or to this one before a
// restart, predates writes this query must cover.
func (e *Compartment) onReadIndexReply(host tee.Host, rep *messages.ReadIndexReply) []tee.OutMsg {
	if !e.leases || rep.Holder != e.ID || rep.View != e.View || !e.riInFlight || rep.Epoch != e.riSentEpoch {
		return nil
	}
	if err := e.Ver.VerifyReadIndexReply(rep); err != nil {
		return nil
	}
	e.riInFlight = false
	e.riAckedEpoch = rep.Epoch
	e.riAckedFrontier = rep.Frontier
	out := e.settleReads(false)
	for _, pr := range e.riPending {
		if pr.epoch > e.riAckedEpoch {
			e.riSentEpoch++
			e.riInFlight = true
			out = append(out, e.sendReadIndex(host))
			break
		}
	}
	return out
}

// settleReads walks the parked reads once, answering each whose outcome is
// decided and keeping the rest. All are refused when refuseAll is set or the
// lease stopped being valid (fail-closed — the client falls back to
// agreement); otherwise a read whose epoch is confirmed and whose frontier is
// applied is served.
func (e *Compartment) settleReads(refuseAll bool) []tee.OutMsg {
	if len(e.riPending) == 0 {
		return nil
	}
	refuseAll = refuseAll || !e.leaseValid(e.clock.Now())
	var out []tee.OutMsg
	keep := e.riPending[:0]
	for _, pr := range e.riPending {
		switch {
		case refuseAll:
			out = append(out, e.readReply(pr.req, false))
		case pr.epoch <= e.riAckedEpoch && e.lastExec >= e.riAckedFrontier:
			out = append(out, e.readReply(pr.req, true))
		default:
			keep = append(keep, pr)
		}
	}
	clear(e.riPending[len(keep):]) // drop refs for GC
	e.riPending = keep
	return out
}

// serveLocalRead runs the serve checks and, when they pass, executes the
// read against the application without ordering it:
//
//   - the application must expose a side-effect-free read path
//     (app.ReadExecutor) — anything else must be ordered;
//   - the lease must be valid at serve time (view match, not near expiry).
//
// The read's other admission — a read-index frontier confirmed after its
// arrival and applied — is enforced by the pending-read machinery before
// this function runs.
func (e *Compartment) serveLocalRead(r *messages.ReadRequest) ([]byte, bool) {
	ra, ok := e.app.(app.ReadExecutor)
	if !ok {
		return nil, false
	}
	if !e.leaseValid(e.clock.Now()) {
		return nil, false
	}
	op := r.Payload
	var sess *crypto.Session
	if e.confidential {
		if sess = e.sessions[r.ClientID].aead; sess == nil {
			return nil, false
		}
		pt, err := sess.Open(r.Payload, crypto.RequestAD(r.ClientID, r.Timestamp))
		if err != nil {
			return nil, false
		}
		op = pt
	}
	result, ok := ra.ExecuteRead(r.ClientID, op)
	if !ok {
		return nil, false // not a read-only op: it must go through agreement
	}
	if e.confidential {
		result = sess.Seal(result, crypto.ReplyAD(r.ClientID, r.Timestamp))
	}
	return result, true
}

// clientSession is a client's attested session with this enclave: the ECDH
// key it attested with and, once provisioned, its session key s_enc and the
// AEAD built from it (nil until then).
type clientSession struct {
	pub  [32]byte
	key  crypto.SessionKey
	aead *crypto.Session
}

// onAttestRequest answers a client attestation challenge with this
// enclave's quote and remembers the client's ECDH key for provisioning.
func (e *Compartment) onAttestRequest(host tee.Host, ar *messages.AttestRequest) []tee.OutMsg {
	s := e.sessions[ar.ClientID]
	s.pub = ar.ClientPub
	e.sessions[ar.ClientID] = s
	return []tee.OutMsg{compartment.ClientOut(ar.ClientID, host.Quote(ar.Nonce))}
}

// onProvisionKey unwraps the client's session key s_enc (§4.1) under the
// X25519-derived pairwise key and installs the session.
func (e *Compartment) onProvisionKey(host tee.Host, pk *messages.ProvisionKey) {
	s, ok := e.sessions[pk.ClientID]
	if !ok {
		return
	}
	wrapKey, err := host.DeriveSession(s.pub)
	if err != nil {
		return
	}
	wrapSess, err := crypto.NewSession(wrapKey, 0)
	if err != nil {
		return
	}
	keyBytes, err := wrapSess.Open(pk.WrappedKey, crypto.ProvisionAD(pk.ClientID))
	if err != nil || len(keyBytes) != crypto.SessionKeySize {
		return
	}
	var sk crypto.SessionKey
	copy(sk[:], keyBytes)
	// Re-provisioning the same key must not reset the nonce counter: a WAL
	// replay of this ProvisionKey after a recovered snapshot would
	// otherwise rewind the session below nonces already used on the wire.
	if s.aead != nil && s.key == sk {
		return
	}
	// Direction 10+id keeps reply nonces disjoint across the n Execution
	// enclaves sharing s_enc.
	aead, err := crypto.NewSession(sk, byte(10+e.ID))
	if err != nil {
		return
	}
	s.key, s.aead = sk, aead
	e.sessions[pk.ClientID] = s
}
