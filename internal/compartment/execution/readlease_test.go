package execution

import (
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/compartment/preparation"
	"github.com/splitbft/splitbft/internal/counter"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/tee"
)

// Leased local read tests: drive the Preparation (granter) and Execution
// (holder) compartments directly, exercising the fail-closed admission rules —
// an expired, revoked, forged, probe-only, or missing lease must refuse the
// local read, and a read must never be served off lease state alone (it
// needs a read-index frontier sampled after its arrival).

// leaseRig wires one primary Preparation enclave (replica 0, with the
// trusted counter) and all n Execution enclaves with read leases on. Every
// compartment has its own verifier over its enclave's attested pairwise keys,
// as NewReplica wires them; enclave keys come from a seeded stream, so
// restartExec brings a holder back under the keys it had. The granter runs
// on its own clock, which the rig moves forward to make a renewal due.
type leaseRig struct {
	t         *testing.T
	n, f      int
	mode      messages.AuthMode
	ttl       time.Duration
	reg       *crypto.Registry
	secret    []byte
	counter   *counter.Counter
	prep      *tee.Enclave
	prepVer   *messages.Verifier
	prepClock *compartment.SkewClock
	prepSkew  time.Duration
	execs     []*tee.Enclave
	codes     []*Compartment // white-box views of the Execution compartments
	apps      []*app.KVS
	// served counts, per holder, the reads its Execution compartment
	// answered with a served (OK) ReadReply.
	served []int
}

func newLeaseRig(t *testing.T, ttl time.Duration) *leaseRig {
	return newLeaseRigMode(t, ttl, messages.AuthSig)
}

func newLeaseRigMode(t *testing.T, ttl time.Duration, mode messages.AuthMode) *leaseRig {
	t.Helper()
	r := &leaseRig{t: t, n: 4, f: 1, mode: mode, ttl: ttl, reg: crypto.NewRegistry(), secret: []byte("lease-test")}
	ctrID := crypto.Identity{ReplicaID: 0, Role: crypto.RoleCounter}
	var err error
	r.counter, err = counter.New(ctrID)
	if err != nil {
		t.Fatal(err)
	}
	r.reg.Register(ctrID, r.counter.PublicKey())
	r.prepVer, r.prepClock = r.verifier(), new(compartment.SkewClock)
	prepCfg := r.config(0)
	prepCfg.Clock = r.prepClock
	r.prep = r.launch(0, crypto.RolePreparation, preparation.New(prepCfg, r.prepVer, r.counter), r.prepVer)
	for i := 0; i < r.n; i++ {
		r.apps = append(r.apps, app.NewKVS())
		r.execs = append(r.execs, nil)
		r.codes = append(r.codes, nil)
		r.served = append(r.served, 0)
		r.restartExec(uint32(i))
	}
	return r
}

func (r *leaseRig) config(id uint32) compartment.Config {
	return withDefaults(compartment.Config{
		N: r.n, F: r.f, ID: id, MACSecret: r.secret,
		ReadLeases: true, LeaseTTL: r.ttl,
	})
}

// renewalDue moves the granter's clock one renewal period (a quarter of the
// TTL) forward, so its next tick issues a grant round.
func (r *leaseRig) renewalDue() {
	r.prepSkew += r.config(0).LeaseTTL / 4
	r.prepClock.SetSkew(r.prepSkew)
}

// wantProbeOnly asserts that the granter does not believe itself reachable:
// its next due grant round is probe-only.
func (r *leaseRig) wantProbeOnly() {
	r.t.Helper()
	r.renewalDue()
	for holder, g := range r.grants() {
		if !g.Probe {
			r.t.Fatalf("granter issued a servable grant to %d without an ack quorum", holder)
		}
	}
}

// enclaveKeyStream is the replica environment's derivation of an enclave's
// key stream from the deployment seed.
func enclaveKeyStream(seed []byte, replica uint32, role crypto.Role) io.Reader {
	return crypto.NewKeyStream(seed, "enclave", fmt.Sprintf("%d", replica), role.String())
}

// pairwiseKeyer is an enclave that establishes attested pairwise MAC keys.
type pairwiseKeyer interface {
	Identity() crypto.Identity
	PairwiseMAC(peerPub [32]byte) (crypto.MACKey, error)
}

// pairwiseMACStore keys enc's MACs from its X25519 exchange with each
// registered peer, as the replica environment does.
func pairwiseMACStore(enc pairwiseKeyer, reg *crypto.Registry) *crypto.MACStore {
	return crypto.NewDerivedMACStore(enc.Identity(), func(peer crypto.Identity) (crypto.MACKey, error) {
		pub, err := reg.LookupECDH(peer)
		if err != nil {
			return crypto.MACKey{}, err
		}
		return enc.PairwiseMAC(pub)
	}, reg.ECDHEpoch)
}

// verifier builds one compartment's verifier; launch completes it.
func (r *leaseRig) verifier() *messages.Verifier {
	r.t.Helper()
	ver, err := messages.NewVerifier(r.n, r.f, r.reg, messages.SplitScheme())
	if err != nil {
		r.t.Fatal(err)
	}
	ver.Mode = r.mode
	return ver
}

// launch starts code in an enclave keyed from the rig's seed, registers its
// keys and hands ver the enclave's pairwise store.
func (r *leaseRig) launch(id uint32, role crypto.Role, code tee.Code, ver *messages.Verifier) *tee.Enclave {
	r.t.Helper()
	enc, err := tee.NewEnclaveWithRand(id, role, code, tee.ZeroCostModel(), enclaveKeyStream(r.secret, id, role))
	if err != nil {
		r.t.Fatal(err)
	}
	r.reg.Register(enc.Identity(), enc.PublicKey())
	r.reg.RegisterECDH(enc.Identity(), enc.ECDHPublicKey())
	ver.Self = enc.Identity()
	ver.MACs = pairwiseMACStore(enc, r.reg)
	return enc
}

// restartExec boots a fresh Execution compartment for replica i over the
// application state it had: nothing of the read path is sealed, so it comes
// back leaseless with new read-index epochs.
func (r *leaseRig) restartExec(i uint32) {
	r.t.Helper()
	code := mustExecution(r.t, r.config(i), r.apps[i], r.verifier())
	r.execs[i] = r.launch(i, crypto.RoleExecution, code, code.Ver)
	r.codes[i] = code
	r.served[i] = 0
}

// scanMsg extracts the first message of a type from enclave outputs,
// regardless of destination (local and remote legs both matter here).
func scanMsg[T messages.Message](t *testing.T, out []tee.OutMsg) (T, bool) {
	t.Helper()
	var zero T
	for i := range out {
		m, err := messages.Unmarshal(out[i].Payload)
		if err != nil {
			continue // non-message payloads (none expected, but stay lenient)
		}
		if typed, ok := m.(T); ok {
			return typed, true
		}
	}
	return zero, false
}

// note counts the reads a holder's outputs serve.
func (r *leaseRig) note(replica uint32, out []tee.OutMsg) []tee.OutMsg {
	for i := range out {
		if _, _, served, ok := messages.ReadReplyHeader(out[i].Payload); ok && served {
			r.served[replica]++
		}
	}
	return out
}

// grants ticks the primary's Preparation compartment and collects the
// emitted lease grants, keyed by holder.
func (r *leaseRig) grants() map[uint32]*messages.LeaseGrant {
	r.t.Helper()
	out, err := r.prep.Invoke([]byte{compartment.EcallTick})
	if err != nil {
		r.t.Fatal(err)
	}
	return collectGrants(r.t, out)
}

func collectGrants(t *testing.T, out []tee.OutMsg) map[uint32]*messages.LeaseGrant {
	t.Helper()
	got := make(map[uint32]*messages.LeaseGrant)
	for i := range out {
		m, err := messages.Unmarshal(out[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := m.(*messages.LeaseGrant); ok {
			got[g.Holder] = g
		}
	}
	return got
}

// deliver hands a lease grant to a replica's Execution enclave, returning
// the LeaseAck it emits (nil when the grant was dropped).
func (r *leaseRig) deliver(replica uint32, g *messages.LeaseGrant) *messages.LeaseAck {
	r.t.Helper()
	out, err := r.execs[replica].Invoke(wrapMessage(messages.Marshal(g)))
	if err != nil {
		r.t.Fatal(err)
	}
	ack, _ := scanMsg[*messages.LeaseAck](r.t, out)
	return ack
}

// feedAck hands a holder's LeaseAck to the granter, returning any grant
// round it triggered (the arming round once the quorum forms).
func (r *leaseRig) feedAck(a *messages.LeaseAck) map[uint32]*messages.LeaseGrant {
	r.t.Helper()
	out, err := r.prep.Invoke(wrapMessage(messages.Marshal(a)))
	if err != nil {
		r.t.Fatal(err)
	}
	return collectGrants(r.t, out)
}

// armLeases runs the full probe → ack → grant handshake: the first round
// is probe-only, holders acknowledge, and the quorum of acks authorizes
// the real (servable) round, which is installed on every holder.
func (r *leaseRig) armLeases() map[uint32]*messages.LeaseGrant {
	r.t.Helper()
	probes := r.grants()
	if len(probes) != r.n {
		r.t.Fatalf("got %d probe grants, want %d", len(probes), r.n)
	}
	var real map[uint32]*messages.LeaseGrant
	for holder := uint32(0); int(holder) < r.n; holder++ {
		g, ok := probes[holder]
		if !ok {
			r.t.Fatalf("no probe grant for holder %d", holder)
		}
		if !g.Probe {
			r.t.Fatalf("pre-quorum grant to %d is not a probe", holder)
		}
		ack := r.deliver(holder, g)
		if ack == nil {
			r.t.Fatalf("holder %d did not acknowledge the probe", holder)
		}
		if round := r.feedAck(ack); len(round) > 0 {
			real = round
		}
	}
	if real == nil {
		r.t.Fatal("ack quorum did not trigger a servable grant round")
	}
	for holder := uint32(0); int(holder) < r.n; holder++ {
		g, ok := real[holder]
		if !ok {
			r.t.Fatalf("no servable grant for holder %d", holder)
		}
		if g.Probe {
			r.t.Fatal("post-quorum grant round is still probe-only")
		}
		r.deliver(holder, g)
	}
	return real
}

// renew runs one renewal round end to end (tick → grants → install →
// acks), keeping leases and the granter's reachability records fresh the
// way the broker's lease clock does. A no-op within the renewal throttle.
func (r *leaseRig) renew() {
	r.t.Helper()
	round := r.grants()
	for holder := uint32(0); int(holder) < r.n; holder++ {
		g, ok := round[holder]
		if !ok {
			continue
		}
		if ack := r.deliver(holder, g); ack != nil {
			r.feedAck(ack)
		}
	}
}

// request sends a MAC-authenticated ReadRequest to a replica's Execution
// enclave and returns what it emitted.
func (r *leaseRig) request(replica uint32, ts uint64, op []byte) []tee.OutMsg {
	r.t.Helper()
	const clientID = 42
	macs := crypto.NewMACStore(r.secret, crypto.Identity{ReplicaID: clientID, Role: crypto.RoleClient})
	req := &messages.ReadRequest{ClientID: clientID, Timestamp: ts, Payload: op}
	req.MAC = macs.MAC(req.AuthenticatedBytes(), crypto.Identity{ReplicaID: replica, Role: crypto.RoleExecution})
	out, err := r.execs[replica].Invoke(wrapMessage(messages.Marshal(req)))
	if err != nil {
		r.t.Fatal(err)
	}
	return r.note(replica, out)
}

// query sends a read to a leased holder and returns the read-index query it
// parks behind.
func (r *leaseRig) query(replica uint32, ts uint64, op []byte) *messages.ReadIndex {
	r.t.Helper()
	ri, ok := scanMsg[*messages.ReadIndex](r.t, r.request(replica, ts, op))
	if !ok {
		r.t.Fatalf("holder %d sent no read-index query", replica)
	}
	return ri
}

// answer hands a read-index query to the primary's Preparation compartment,
// returning its reply (nil when it stayed silent).
func (r *leaseRig) answer(ri *messages.ReadIndex) *messages.ReadIndexReply {
	r.t.Helper()
	out, err := r.prep.Invoke(wrapMessage(messages.Marshal(ri)))
	if err != nil {
		r.t.Fatal(err)
	}
	rr, _ := scanMsg[*messages.ReadIndexReply](r.t, out)
	return rr
}

// confirm hands a read-index reply to a holder, returning the client reply it
// released (nil when none).
func (r *leaseRig) confirm(replica uint32, rr *messages.ReadIndexReply) *messages.ReadReply {
	r.t.Helper()
	out, err := r.execs[replica].Invoke(wrapMessage(messages.Marshal(rr)))
	if err != nil {
		r.t.Fatal(err)
	}
	rep, _ := findMsg[*messages.ReadReply](r.t, r.note(replica, out), tee.DestClient)
	return rep
}

// propose has the primary assign the next sequence number to a write, moving
// its frontier past every holder's applied index.
func (r *leaseRig) propose(ts uint64) {
	r.t.Helper()
	req := testRequest(r.secret, r.n, 7, ts, app.EncodePut("k", []byte("v")))
	if _, err := r.prep.Invoke(wrapBatch(&messages.Batch{Requests: []messages.Request{req}})); err != nil {
		r.t.Fatal(err)
	}
}

// tickExec delivers one environment query with the given flags to a
// holder and returns the client reply it released, if any.
func (r *leaseRig) tickExec(replica uint32, flags byte) *messages.ReadReply {
	r.t.Helper()
	out, err := r.execs[replica].Invoke([]byte{compartment.EcallTick, flags})
	if err != nil {
		r.t.Fatal(err)
	}
	rep, _ := findMsg[*messages.ReadReply](r.t, r.note(replica, out), tee.DestClient)
	return rep
}

// lapse moves a holder's lease clock past the expiry of any lease it holds.
func (r *leaseRig) lapse(replica uint32) {
	clock := new(compartment.SkewClock)
	clock.SetSkew(2 * r.config(replica).LeaseTTL)
	r.codes[replica].clock = clock
}

// read runs one read end to end and returns the client reply (nil when the
// enclave stayed silent). An admitted read parks behind a read-index
// exchange; this helper shuttles the query to the primary's Preparation
// compartment and the frontier reply back, mimicking the broker.
func (r *leaseRig) read(replica uint32, ts uint64, op []byte) *messages.ReadReply {
	r.t.Helper()
	out := r.request(replica, ts, op)
	if rep, ok := findMsg[*messages.ReadReply](r.t, out, tee.DestClient); ok {
		return rep
	}
	ri, ok := scanMsg[*messages.ReadIndex](r.t, out)
	if !ok {
		return nil
	}
	rr := r.answer(ri)
	if rr == nil {
		return nil // granter refused to answer (e.g. wrong view)
	}
	return r.confirm(replica, rr)
}

// TestLeaseLocalReadServes is the fast-path happy case: a granted,
// verified, in-view, ack-armed lease serves a read locally —
// one read-index round trip to the primary, one attested reply, no
// agreement round.
func TestLeaseLocalReadServes(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases()
	rep := r.read(1, 1, app.EncodeGet("missing"))
	if rep == nil || !rep.OK {
		t.Fatalf("leased read refused: %+v", rep)
	}
	if string(rep.Result) != "NOTFOUND" {
		t.Fatalf("read result = %q, want NOTFOUND", rep.Result)
	}
	if got := r.served[1]; got != 1 {
		t.Fatalf("served reads = %d, want 1", got)
	}
	if r.counter.LeaseGrants() == 0 {
		t.Fatal("counter recorded no lease grants")
	}
}

// TestLeaselessReadRefused: without a lease the Execution compartment must
// answer with an explicit refusal (so the client falls back immediately),
// not a result.
func TestLeaselessReadRefused(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	rep := r.read(2, 1, app.EncodeGet("k"))
	if rep == nil {
		t.Fatal("expected an explicit refusal reply, got silence")
	}
	if rep.OK {
		t.Fatal("leaseless replica served a local read")
	}
}

// TestProbeGrantNotServable: a probe grant is a reachability check, not a
// lease — a holder that installed nothing but probes must refuse reads.
func TestProbeGrantNotServable(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	probes := r.grants()
	if !probes[1].Probe {
		t.Fatal("first grant round is not probe-only")
	}
	r.deliver(1, probes[1])
	if rep := r.read(1, 1, app.EncodeGet("k")); rep == nil || rep.OK {
		t.Fatalf("probe grant served a read: %+v", rep)
	}
}

// TestGrantsProbeUntilAckQuorum: real grants require 2f+1 fresh holder
// acks — with fewer, every round stays probe-only. This is the fence that
// stops a primary partitioned with a minority from keeping its holders'
// leases alive forever.
func TestGrantsProbeUntilAckQuorum(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	probes := r.grants()
	// Two acks: one short of the 2f+1 = 3 quorum.
	for holder := uint32(0); holder < 2; holder++ {
		ack := r.deliver(holder, probes[holder])
		if ack == nil {
			t.Fatalf("holder %d did not ack", holder)
		}
		if round := r.feedAck(ack); len(round) != 0 {
			t.Fatalf("grant round issued below ack quorum (after %d acks)", holder+1)
		}
	}
	// The third ack completes the quorum: the arming round must follow at
	// once, and it must be servable.
	ack := r.deliver(2, probes[2])
	round := r.feedAck(ack)
	if len(round) != r.n {
		t.Fatalf("quorum-completing ack triggered %d grants, want %d", len(round), r.n)
	}
	if round[1].Probe {
		t.Fatal("post-quorum grant round is still probe-only")
	}
}

// TestLeaseAckReplayRejected: a replayed ack must not count toward the
// quorum — each holder's record is monotonic in the echoed round nonce, so
// the broker (or a Byzantine peer) cannot simulate reachability by
// repeating one holder's ack.
func TestLeaseAckReplayRejected(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	probes := r.grants()
	ack0 := r.deliver(0, probes[0])
	ack1 := r.deliver(1, probes[1])
	r.feedAck(ack0)
	r.feedAck(ack1)
	// Replays of both recorded acks: still only two distinct holders.
	if round := r.feedAck(ack0); len(round) != 0 {
		t.Fatal("replayed ack triggered a grant round")
	}
	if round := r.feedAck(ack1); len(round) != 0 {
		t.Fatal("replayed ack triggered a grant round")
	}
	r.wantProbeOnly() // two holders plus replays are no ack quorum
	// A genuine third holder completes it.
	if round := r.feedAck(r.deliver(2, probes[2])); len(round) == 0 {
		t.Fatal("third distinct ack did not complete the quorum")
	}
}

// TestLeaseWrongHolderIgnored: a grant addressed to another replica must
// not arm the fast path.
func TestLeaseWrongHolderIgnored(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	grants := r.grants()
	if ack := r.deliver(2, grants[1]); ack != nil { // replica 2 gets replica 1's grant
		t.Fatal("misaddressed grant was acknowledged")
	}
	if rep := r.read(2, 1, app.EncodeGet("k")); rep == nil || rep.OK {
		t.Fatalf("misaddressed grant armed the fast path: %+v", rep)
	}
}

// TestLeaseForgedSignatureRejected: a lease with any signed field altered
// must be dropped — the broker relays grants, so a corrupt or malicious
// environment can tamper with them. Each case rewrites one field of a
// genuine grant and delivers it to the holder the forgery names, whose view
// is aligned with the forged one, so only the counter signature stands
// between the forgery and an installed lease. Flipping the probe flag is
// the most dangerous forgery: it would turn a reachability probe into a
// servable lease.
func TestLeaseForgedSignatureRejected(t *testing.T) {
	for _, tc := range []struct {
		field  string
		to     uint32
		tamper func(g *messages.LeaseGrant)
	}{
		{"Holder", 2, func(g *messages.LeaseGrant) { g.Holder = 2 }},
		{"View", 1, func(g *messages.LeaseGrant) { g.View += 4 }}, // same primary, n = 4
		{"Expiry", 1, func(g *messages.LeaseGrant) { g.Expiry += int64(time.Hour) }},
		{"Probe", 1, func(g *messages.LeaseGrant) { g.Probe = !g.Probe }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			r := newLeaseRig(t, time.Second)
			genuine := r.grants()[1]
			forged := *genuine
			tc.tamper(&forged)
			r.codes[tc.to].View = forged.View
			if ack := r.deliver(tc.to, &forged); ack != nil {
				t.Fatalf("grant with a forged %s was acknowledged", tc.field)
			}
			if rep := r.read(tc.to, 1, app.EncodeGet("k")); rep == nil || rep.OK {
				t.Fatalf("forged %s served a local read: %+v", tc.field, rep)
			}
			r.codes[tc.to].View = genuine.View
			if ack := r.deliver(1, genuine); ack == nil {
				t.Fatal("the genuine grant was not acknowledged")
			}
		})
	}
}

// TestLeaseExpiryFailsClosed: after the TTL passes, the ex-leaseholder —
// think of it as partitioned away from the primary, missing every renewal
// — must refuse local reads.
func TestLeaseExpiryFailsClosed(t *testing.T) {
	ttl := 80 * time.Millisecond
	r := newLeaseRig(t, ttl)
	r.armLeases()
	if rep := r.read(1, 1, app.EncodeGet("k")); rep == nil || !rep.OK {
		t.Fatalf("fresh lease refused: %+v", rep)
	}
	time.Sleep(ttl + 20*time.Millisecond)
	if rep := r.read(1, 2, app.EncodeGet("k")); rep == nil || rep.OK {
		t.Fatal("expired lease served a read")
	}
}

// TestLeaseViewChangeRevokes: a lease from a deposed view must stop
// serving the moment the holder learns of the new view, well before its
// timer expires — the view-match revocation path.
func TestLeaseViewChangeRevokes(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases()
	if rep := r.read(1, 1, app.EncodeGet("k")); rep == nil || !rep.OK {
		t.Fatalf("fresh lease refused: %+v", rep)
	}
	// White-box: advance the compartment's view as an installed NewView
	// would (crafting a full valid NewView certificate is the view-change
	// tests' job); leaseValid must now refuse the view-0 lease.
	r.codes[1].View = 1
	if rep := r.read(1, 2, app.EncodeGet("k")); rep == nil || rep.OK {
		t.Fatal("deposed view's lease served a local read")
	}
}

// TestLinearizableReadSeesPostGrantWrite is the stale-read regression the
// read-index confirmation exists for: a write proposed AFTER the holder's
// lease was granted must be observed by a later linearizable read, or the
// read must wait. Anchoring admission at the primary's frontier as of grant
// time fails exactly this: the lease predates the write, so a lagging
// holder under a still-valid lease would serve the stale value.
func TestLinearizableReadSeesPostGrantWrite(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases() // leases granted with nothing proposed yet

	// A write is proposed (and, on a quorum elsewhere, committed and acked)
	// after the grants went out. Holder 1 has not executed it.
	r.propose(1)

	// The read must NOT be served: the primary's frontier (1) is ahead of
	// the holder's applied index (0), so the read parks.
	if rep := r.read(1, 1, app.EncodeGet("k")); rep != nil {
		t.Fatalf("read answered while behind the frontier: %+v", rep)
	}
	if got := len(r.codes[1].riPending); got != 1 {
		t.Fatalf("pending reads = %d, want 1", got)
	}

	// Once the holder catches up past the frontier, the parked read is
	// served by the next flush (white-box: executing the slot for real is
	// the commit-path tests' job).
	r.codes[1].lastExec = 1
	r.apps[1].Execute(7, app.EncodePut("k", []byte("v")))
	rep := r.tickExec(1, TickPeriod)
	if rep == nil || !rep.OK {
		t.Fatalf("caught-up holder did not serve the parked read: %+v", rep)
	}
	if string(rep.Result) != "v" {
		t.Fatalf("parked read returned %q, want the post-grant write %q", rep.Result, "v")
	}
	if got := len(r.codes[1].riPending); got != 0 {
		t.Fatalf("pending reads = %d after flush, want 0", got)
	}
}

// TestParkedReadRefusedOnLeaseLapse: a read parked behind the frontier
// stays parked while the lease is live, and once the lease lapses with no
// message to notice it, the next period query refuses it — fail-closed, the
// client falls back to agreement. A query without the period flag leaves
// parked reads alone.
func TestParkedReadRefusedOnLeaseLapse(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases()
	r.propose(1)
	if rep := r.read(1, 1, app.EncodeGet("k")); rep != nil {
		t.Fatalf("read answered while behind the frontier: %+v", rep)
	}
	if rep := r.tickExec(1, TickPeriod); rep != nil {
		t.Fatalf("period query under a live lease answered the parked read: %+v", rep)
	}
	r.lapse(1)
	if rep := r.tickExec(1, 0); rep != nil {
		t.Fatalf("query without the period flag answered the parked read: %+v", rep)
	}
	if rep := r.tickExec(1, TickPeriod); rep == nil || rep.OK {
		t.Fatalf("period query after the lease lapsed answered %+v, want a refusal", rep)
	}
	if got := len(r.codes[1].riPending); got != 0 {
		t.Fatalf("pending reads = %d after the refusal, want 0", got)
	}
}

// TestReadReplayDropped: a replayed (or timestamp-reordered) ReadRequest
// must be dropped before any MAC or application work — the replay guard
// that stops the broker from burning enclave CPU with one captured
// authenticated read.
func TestReadReplayDropped(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases()
	if rep := r.read(1, 5, app.EncodeGet("k")); rep == nil || !rep.OK {
		t.Fatalf("fresh read refused: %+v", rep)
	}
	if rep := r.read(1, 5, app.EncodeGet("k")); rep != nil {
		t.Fatalf("replayed read was answered: %+v", rep)
	}
	if rep := r.read(1, 3, app.EncodeGet("k")); rep != nil {
		t.Fatalf("stale-timestamp read was answered: %+v", rep)
	}
	if got := r.served[1]; got != 1 {
		t.Fatalf("served reads = %d, want 1 (replays must not serve)", got)
	}
}

// TestReadsBypassReplyCache is the reply-cache regression: local reads are
// side-effect-free and single-shot, so they must never populate the
// exactly-once client bookkeeping the write path maintains — a read-heavy
// client would otherwise bloat enclave memory with useless entries.
func TestReadsBypassReplyCache(t *testing.T) {
	r := newLeaseRig(t, time.Second)
	r.armLeases()
	for ts := uint64(1); ts <= 64; ts++ {
		// Keep the lease renewed across the loop — the TTL is clamped to
		// RequestTimeout/4, which a 64-read loop can outlive under -race.
		r.renew()
		if rep := r.read(1, ts, app.EncodeGet("k")); rep == nil || !rep.OK {
			t.Fatalf("read %d refused: %+v", ts, rep)
		}
	}
	if got := len(r.codes[1].clients); got != 0 {
		t.Fatalf("reply cache holds %d client entries after a read-only run, want 0", got)
	}
	if got := r.served[1]; got != 64 {
		t.Fatalf("served reads = %d, want 64", got)
	}
}
