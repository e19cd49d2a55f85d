package core

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/compartment"
	"github.com/splitbft/splitbft/internal/compartment/confirmation"
	"github.com/splitbft/splitbft/internal/compartment/execution"
	"github.com/splitbft/splitbft/internal/compartment/preparation"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// pop takes one ecall off q, blocking like the dispatcher's drain.
func pop(q *queue) (ecall, bool) {
	got, ok := q.drain(nil, 1)
	if !ok {
		return ecall{}, false
	}
	return got[0], true
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue()
	for i := byte(0); i < 10; i++ {
		q.push(ecall{payload: []byte{i}})
	}
	for i := byte(0); i < 10; i++ {
		e, ok := pop(q)
		if !ok {
			t.Fatal("queue closed early")
		}
		if e.payload[0] != i {
			t.Fatalf("out of order: got %d want %d", e.payload[0], i)
		}
	}
}

func TestQueueBlocksUntilPush(t *testing.T) {
	q := newQueue()
	got := make(chan ecall, 1)
	go func() {
		e, ok := pop(q)
		if ok {
			got <- e
		}
	}()
	select {
	case <-got:
		t.Fatal("pop returned from an empty queue")
	case <-time.After(20 * time.Millisecond):
	}
	q.push(ecall{payload: []byte("x")})
	select {
	case e := <-got:
		if string(e.payload) != "x" {
			t.Fatalf("payload = %q", e.payload)
		}
	case <-time.After(time.Second):
		t.Fatal("pop did not wake on push")
	}
}

func TestQueueCloseUnblocksAndRejects(t *testing.T) {
	q := newQueue()
	done := make(chan bool, 1)
	go func() {
		_, ok := pop(q)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop returned an item from a closed empty queue")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not unblock pop")
	}
	q.push(ecall{payload: []byte("late")})
	if _, ok := pop(q); ok {
		t.Fatal("push after close was accepted")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := newQueue()
	const producers, per = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.push(ecall{payload: []byte{1}})
			}
		}()
	}
	wg.Wait()
	count := 0
	for q.len() > 0 {
		if _, ok := pop(q); !ok {
			break
		}
		count++
	}
	if count != producers*per {
		t.Fatalf("drained %d items, want %d", count, producers*per)
	}
}

// TestQueueSteadyStateNoGrowth is the regression test for the O(n)
// slice-pop and its memory pinning: a queue cycled through 100k items at a
// small steady-state depth must neither slow down quadratically (the test
// would blow its deadline) nor grow its backing ring beyond the high-water
// depth.
func TestQueueSteadyStateNoGrowth(t *testing.T) {
	q := newQueue()
	const total, depth = 100_000, 32
	payload := []byte{compartment.EcallMessage}
	for i := 0; i < total; i++ {
		q.push(ecall{payload: payload})
		if i >= depth {
			if _, ok := pop(q); !ok {
				t.Fatal("queue closed unexpectedly")
			}
		}
	}
	for q.len() > 0 {
		pop(q)
	}
	q.mu.Lock()
	capNow := q.items.Cap()
	q.mu.Unlock()
	if capNow > 4*depth {
		t.Fatalf("ring grew to cap %d at steady-state depth %d", capNow, depth)
	}
}

// TestQueueDrainBatches covers the batch-dispatch path: drain returns up
// to max items in FIFO order and keeps the remainder.
func TestQueueDrainBatches(t *testing.T) {
	q := newQueue()
	for i := byte(0); i < 10; i++ {
		q.push(ecall{payload: []byte{i}})
	}
	got, ok := q.drain(nil, 4)
	if !ok || len(got) != 4 {
		t.Fatalf("drain(4) = %d items, ok=%v", len(got), ok)
	}
	for i := byte(0); i < 4; i++ {
		if got[i].payload[0] != i {
			t.Fatalf("drained out of order: %v", got)
		}
	}
	got, ok = q.drain(got[:0], 100)
	if !ok || len(got) != 6 || got[0].payload[0] != 4 {
		t.Fatalf("second drain = %d items (ok=%v)", len(got), ok)
	}
	// A closed queue still hands out its backlog, then reports closure.
	q.push(ecall{payload: []byte{99}})
	q.close()
	if got, ok = q.drain(nil, 10); !ok || len(got) != 1 {
		t.Fatalf("drain after close = %d items, ok=%v", len(got), ok)
	}
	if _, ok = q.drain(nil, 10); ok {
		t.Fatal("empty closed queue reported items")
	}
}

func BenchmarkBrokerQueue(b *testing.B) {
	q := newQueue()
	payload := []byte{compartment.EcallMessage}
	b.Run("PushPop", func(b *testing.B) {
		var scratch []ecall
		for i := 0; i < b.N; i++ {
			q.push(ecall{payload: payload})
			scratch, _ = q.drain(scratch[:0], 1)
		}
	})
	b.Run("PushDrain64", func(b *testing.B) {
		var scratch []ecall
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				q.push(ecall{payload: payload})
			}
			scratch, _ = q.drain(scratch[:0], 64)
		}
		_ = scratch
	})
}

// newTestBroker builds a broker with live enclaves but no network.
func newTestBroker(t *testing.T, singleThread bool) (*broker, Config) {
	t.Helper()
	reg := crypto.NewRegistry()
	cfg := Config{Registry: reg, App: app.NewKVS(), SingleThread: singleThread}
	cfg.N, cfg.F, cfg.MACSecret = 4, 1, []byte("broker-test")
	cfg = cfg.withDefaults()
	ver, err := messages.NewVerifier(cfg.N, cfg.F, reg, messages.SplitScheme())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(role crypto.Role, code tee.Code) *tee.Enclave {
		enc, err := tee.NewEnclave(0, role, code, tee.ZeroCostModel())
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(enc.Identity(), enc.PublicKey())
		return enc
	}
	execCode, err := execution.New(cfg.Config, cfg.App, ver)
	if err != nil {
		t.Fatal(err)
	}
	prep := mk(crypto.RolePreparation, preparation.New(cfg.Config, ver, nil))
	conf := mk(crypto.RoleConfirmation, confirmation.New(cfg.Config, ver))
	exec := mk(crypto.RoleExecution, execCode)
	return newBroker(cfg, [3]*tee.Enclave{prep, conf, exec}, nil), cfg
}

func TestBrokerQueueTopology(t *testing.T) {
	multi, _ := newTestBroker(t, false)
	if len(multi.queues) != 3 {
		t.Fatalf("multithreaded broker has %d queues, want 3", len(multi.queues))
	}
	if multi.queueFor(crypto.RolePreparation) == multi.queueFor(crypto.RoleExecution) {
		t.Fatal("compartments share a queue in multithreaded mode")
	}
	single, _ := newTestBroker(t, true)
	if len(single.queues) != 1 {
		t.Fatalf("single-thread broker has %d queues, want 1", len(single.queues))
	}
	if single.queueFor(crypto.RolePreparation) != single.queueFor(crypto.RoleExecution) {
		t.Fatal("single-thread mode must funnel all ecalls into one queue")
	}
}

// lastType is the highest wire message type; wireZeros checks nothing
// follows it.
const lastType = messages.TReadIndexReply

// wireZeros returns the zero value of every wire message type, by type.
func wireZeros(t *testing.T) map[messages.Type]messages.Message {
	t.Helper()
	all := []messages.Message{
		&messages.Request{}, &messages.PrePrepare{}, &messages.Prepare{},
		&messages.Commit{}, &messages.Reply{}, &messages.Checkpoint{},
		&messages.ViewChange{}, &messages.NewView{}, &messages.AttestRequest{},
		&messages.AttestQuote{}, &messages.ProvisionKey{}, &messages.StateRequest{},
		&messages.StateReply{}, &messages.Suspect{}, &messages.BatchFetch{},
		&messages.BatchReply{}, &messages.StateProbe{}, &messages.LeaseGrant{},
		&messages.ReadRequest{}, &messages.ReadReply{}, &messages.LeaseAck{},
		&messages.ReadIndex{}, &messages.ReadIndexReply{},
	}
	zeros := make(map[messages.Type]messages.Message, len(all))
	for _, m := range all {
		zeros[m.MsgType()] = m
	}
	for typ := messages.Type(1); typ <= lastType; typ++ {
		if zeros[typ] == nil {
			t.Fatalf("no zero message for %v", typ)
		}
	}
	if name := (lastType + 1).String(); !strings.HasPrefix(name, "Type(") {
		t.Fatalf("%s follows lastType", name)
	}
	return zeros
}

// wireFrame encodes the zero message of typ, or a bare type byte for a
// value no message has.
func wireFrame(zeros map[messages.Type]messages.Message, typ messages.Type) []byte {
	if m := zeros[typ]; m != nil {
		return messages.Marshal(m)
	}
	return []byte{byte(typ)}
}

// wantRoutes is what the broker does with each replica-bound type: copies
// into the Preparation, Confirmation and Execution queues, and whether it
// deduplicates, charges the fetch budget and keeps the type out of the WAL.
// Every type not listed is dropped.
var wantRoutes = map[messages.Type]struct {
	copies               [3]int
	dedup, budget, lease bool
}{
	messages.TPrePrepare:     {copies: [3]int{1, 1, 1}, dedup: true},
	messages.TPrepare:        {copies: [3]int{0, 1, 0}, dedup: true},
	messages.TCommit:         {copies: [3]int{0, 0, 1}, dedup: true},
	messages.TCheckpoint:     {copies: [3]int{1, 1, 1}, dedup: true},
	messages.TViewChange:     {copies: [3]int{1, 1, 0}, dedup: true},
	messages.TNewView:        {copies: [3]int{1, 1, 1}, dedup: true},
	messages.TAttestRequest:  {copies: [3]int{0, 0, 1}},
	messages.TProvisionKey:   {copies: [3]int{0, 0, 1}},
	messages.TStateReply:     {copies: [3]int{0, 0, 1}},
	messages.TBatchFetch:     {copies: [3]int{0, 0, 1}, budget: true},
	messages.TBatchReply:     {copies: [3]int{0, 0, 1}},
	messages.TStateProbe:     {copies: [3]int{0, 1, 1}, budget: true},
	messages.TLeaseGrant:     {copies: [3]int{0, 0, 1}, lease: true},
	messages.TReadRequest:    {copies: [3]int{0, 0, 1}, lease: true},
	messages.TLeaseAck:       {copies: [3]int{1, 0, 0}, lease: true},
	messages.TReadIndex:      {copies: [3]int{1, 0, 0}, lease: true},
	messages.TReadIndexReply: {copies: [3]int{0, 0, 1}, lease: true},
}

// TestBrokerRoutingTable pins the classify stage for every type value: how
// many copies land in each compartment queue, that a byte-identical resend
// is dropped exactly for the deduplicated types, and that an exhausted
// fetch budget drops exactly the budgeted ones. Client requests go to
// batching and to no queue; the health probe's ping and unknown types are
// dropped.
func TestBrokerRoutingTable(t *testing.T) {
	b, _ := newTestBroker(t, false)
	zeros := wireZeros(t)
	queued := func() [3]int {
		var got [3]int
		for i, role := range compartmentRoles {
			got[i] = b.queueFor(role).len()
			b.queueFor(role).reset()
		}
		return got
	}
	for typ := messages.Type(0); typ <= lastType+1; typ++ {
		want := wantRoutes[typ]
		frame := wireFrame(zeros, typ)
		b.handler(transportEndpoint(), frame)
		if got := queued(); got != want.copies {
			t.Errorf("%v routed %v, want %v", typ, got, want.copies)
		}
		resend := want.copies
		if want.dedup {
			resend = [3]int{}
		}
		b.handler(transportEndpoint(), frame)
		if got := queued(); got != resend {
			t.Errorf("%v resent: routed %v, want %v", typ, got, resend)
		}
		b.mu.Lock()
		b.fetchBudget = 0
		b.mu.Unlock()
		broke := resend
		if want.budget {
			broke = [3]int{}
		}
		b.handler(transportEndpoint(), frame)
		if got := queued(); got != broke {
			t.Errorf("%v without budget: routed %v, want %v", typ, got, broke)
		}
		b.mu.Lock()
		b.fetchBudget = fetchBudgetPerPeriod
		b.mu.Unlock()
	}
	// The request went to batching, three times under one key.
	b.mu.Lock()
	batched := b.pendingReqs.Len()
	b.mu.Unlock()
	if batched != 1 {
		t.Errorf("primary broker batched %d requests, want 1", batched)
	}
	garbage := b.mGarbage.Load()
	b.handler(transportEndpoint(), []byte{messages.ProbePing})
	if got := queued(); got != [3]int{} || b.mGarbage.Load() != garbage {
		t.Errorf("health ping routed %v, counted as garbage %d times", got, b.mGarbage.Load()-garbage)
	}
}

// TestBrokerFetchBudgetRotates: the 129th budgeted ask of one detection
// period is dropped, whatever its type, and asks are admitted again once
// the failure detector's clock rotates the period.
func TestBrokerFetchBudgetRotates(t *testing.T) {
	b, cfg := newTestBroker(t, false)
	exec := b.queueFor(crypto.RoleExecution)
	now := time.Now()
	b.onTick(now) // opens a period
	exec.reset()
	fetch := messages.Marshal(&messages.BatchFetch{Seq: 1, Replica: 2})
	for i := 0; i < fetchBudgetPerPeriod; i++ {
		b.handler(transportEndpoint(), fetch)
	}
	if got := exec.len(); got != fetchBudgetPerPeriod {
		t.Fatalf("admitted %d of %d budgeted asks", got, fetchBudgetPerPeriod)
	}
	probe := messages.Marshal(&messages.StateProbe{Have: 1, Replica: 2})
	b.handler(transportEndpoint(), probe)
	b.onTick(now.Add(cfg.RequestTimeout / 2)) // same period
	b.handler(transportEndpoint(), fetch)
	if got := exec.len(); got != fetchBudgetPerPeriod {
		t.Fatalf("%d asks past the budget admitted", got-fetchBudgetPerPeriod)
	}
	b.onTick(now.Add(2 * cfg.RequestTimeout)) // rotates; queues a tick
	exec.reset()
	b.handler(transportEndpoint(), probe)
	if got := exec.len(); got != 1 {
		t.Fatalf("after rotation %d asks admitted, want 1", got)
	}
}

// TestBrokerWALSkipsLeaseTraffic runs a broker with a WAL under every
// compartment over one copy of every routed type and environment ticks:
// each compartment's log holds exactly the non-lease types routed to it,
// in arrival order, and no tick.
func TestBrokerWALSkipsLeaseTraffic(t *testing.T) {
	dirs := make(map[crypto.Role]string)
	stores := make(map[crypto.Role]*comStore)
	for _, role := range compartmentRoles {
		dirs[role] = t.TempDir()
		st, _, err := store.Open(dirs[role], store.Options{FsyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		stores[role] = &comStore{st: st}
	}
	b, _ := scriptBroker(t, false, stores)
	zeros := wireZeros(t)
	want := make(map[crypto.Role][]byte)
	for typ := messages.Type(0); typ <= lastType+1; typ++ {
		b.handler(transportEndpoint(), wireFrame(zeros, typ))
		for i, role := range compartmentRoles {
			if wantRoutes[typ].copies[i] > 0 && !wantRoutes[typ].lease {
				want[role] = append(want[role], byte(typ))
			}
		}
	}
	var ticks []ecall
	for _, role := range compartmentRoles {
		ticks = append(ticks, ecall{role: role, payload: []byte{compartment.EcallTick, execution.TickPeriod}})
	}
	runQueued(b, &sendLog{}, ticks)
	for _, role := range compartmentRoles {
		cs := stores[role]
		cs.drain()
		if err := cs.st.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec, err := store.Open(dirs[role], store.Options{FsyncInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		_ = st.Close()
		var got []byte
		for _, r := range rec.Records {
			if len(r) < 2 || r[0] != compartment.EcallMessage {
				t.Fatalf("%v logged %x, want only messages", role, r)
			}
			got = append(got, r[1])
		}
		if !bytes.Equal(got, want[role]) {
			t.Errorf("%v logged types %v, want %v", role, got, want[role])
		}
	}
}

// TestInboundRoutesMatchAuthRules cross-checks the untrusted routing table
// against the receivers the authentication rules give each authenticated
// type: a compartment that verifies a type must be the one it is routed
// to. ViewChange and NewView are signed in both modes and name no
// receivers; their routes are pinned by TestBrokerRoutingTable alone.
func TestInboundRoutesMatchAuthRules(t *testing.T) {
	const n = 4
	zeros := wireZeros(t)
	for typ := messages.Type(0); typ <= lastType+1; typ++ {
		form := messages.ProofFormOf(typ)
		if form == 0 {
			continue
		}
		var want []crypto.Role
		if form == messages.ProofPair {
			want = []crypto.Role{messages.PairAddressee(zeros[typ].(messages.Addressed), n).Role}
		} else {
			for _, id := range messages.AgreementAuthReceivers(typ, n) {
				if !slices.Contains(want, id.Role) {
					want = append(want, id.Role)
				}
			}
		}
		if want == nil {
			if typ != messages.TViewChange && typ != messages.TNewView {
				t.Errorf("%v is authenticated but names no receivers", typ)
			}
			continue
		}
		if got := inboundRoutes[typ].to; !slices.Equal(got, want) {
			t.Errorf("%v routed to %v, authenticated for %v", typ, got, want)
		}
	}
}

func TestBrokerBatchesOnlyWhenPrimary(t *testing.T) {
	b, cfg := newTestBroker(t, false) // replica 0 is the view-0 primary
	req := testRequest(cfg.MACSecret, cfg.N, 9, 1, []byte("op"))
	b.onClientRequest(messages.Marshal(&req))
	b.mu.Lock()
	pending := b.pendingReqs.Len()
	b.mu.Unlock()
	if pending != 1 {
		t.Fatalf("primary broker buffered %d requests, want 1", pending)
	}
	// Advance the view estimate: replica 0 no longer believes it is the
	// primary, so it only tracks timers.
	b.mu.Lock()
	b.viewEstimate = 1
	b.pendingReqs.Reset()
	clear(b.awaiting)
	b.mu.Unlock()
	req2 := testRequest(cfg.MACSecret, cfg.N, 9, 2, []byte("op2"))
	b.onClientRequest(messages.Marshal(&req2))
	b.mu.Lock()
	pending = b.pendingReqs.Len()
	timers := len(b.awaiting)
	b.mu.Unlock()
	if pending != 0 {
		t.Fatal("backup broker buffered a batch")
	}
	if timers == 0 {
		t.Fatal("backup broker must still track request timers")
	}
}

func TestBrokerBatchCutOnSize(t *testing.T) {
	b, cfg := newTestBroker(t, false)
	b.cfg.BatchSize = 3
	for ts := uint64(1); ts <= 3; ts++ {
		req := testRequest(cfg.MACSecret, cfg.N, 9, ts, []byte("op"))
		b.onClientRequest(messages.Marshal(&req))
	}
	// Batch of 3 must have been submitted to the Preparation queue.
	if got := b.mBatches.Load(); got != 1 {
		t.Fatalf("submitted %d batches, want 1", got)
	}
	q := b.queueFor(crypto.RolePreparation)
	e, ok := pop(q)
	if !ok || e.payload[0] != compartment.EcallBatch {
		t.Fatal("preparation queue does not hold a batch ecall")
	}
	batch, err := messages.UnmarshalBatch(e.payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Requests) != 3 {
		t.Fatalf("batch has %d requests", len(batch.Requests))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pendingReqs.Len() != 0 {
		t.Fatal("buffer not drained after the cut")
	}
	for key, p := range b.awaiting {
		if p.queued {
			t.Fatalf("request %v still marked queued after the cut", key)
		}
	}
}

func TestBrokerDuplicateRequestNotDoubleBatched(t *testing.T) {
	b, cfg := newTestBroker(t, false)
	req := testRequest(cfg.MACSecret, cfg.N, 9, 1, []byte("op"))
	raw := messages.Marshal(&req)
	b.onClientRequest(raw)
	b.onClientRequest(raw)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pendingReqs.Len() != 1 {
		t.Fatalf("duplicate buffered: %d pending", b.pendingReqs.Len())
	}
}

func TestBrokerSuspectAfterTimeout(t *testing.T) {
	b, cfg := newTestBroker(t, false)
	b.cfg.RequestTimeout = 10 * time.Millisecond
	req := testRequest(cfg.MACSecret, cfg.N, 9, 1, []byte("op"))
	b.onClientRequest(messages.Marshal(&req))
	// Before the timeout: no suspect.
	b.onTick(time.Now())
	if b.mSuspects.Load() != 0 {
		t.Fatal("suspected before the timeout")
	}
	// After the timeout and the ask: exactly one suspect, and the timer
	// restarts.
	expired := time.Now().Add(20 * time.Millisecond)
	b.onTick(expired)
	answerAsk(b, expired)
	if b.mSuspects.Load() != 1 {
		t.Fatalf("suspects = %d, want 1", b.mSuspects.Load())
	}
	q := b.queueFor(crypto.RoleConfirmation)
	e, ok := pop(q)
	if !ok {
		t.Fatal("no suspect ecall queued")
	}
	m, err := messages.Unmarshal(e.payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if m.MsgType() != messages.TSuspect {
		t.Fatalf("queued %v, want Suspect", m.MsgType())
	}
	// A reply for the pending request clears the timer: no more suspects.
	rep := &messages.Reply{ClientID: 9, Timestamp: 1, Replica: 0}
	b.noteClientBound(messages.Marshal(rep))
	b.onTick(time.Now().Add(100 * time.Millisecond))
	if b.mSuspects.Load() != 1 {
		t.Fatal("suspected after the request was answered")
	}
	if b.mReplies.Load() != 1 {
		t.Fatal("reply not counted")
	}
}

// TestBrokerLateRequestCopyAfterReply: over TCP the client's direct copy of
// a request can trail the primary's PrePrepare far enough to arrive after
// this replica already replied. It arms an entry like any copy, and still
// reaches batching, so a genuine retransmit is answered from the reply
// cache; when the timer expires, Execution's answer to the ask names the
// request executed and clears the entry, with no suspicion.
func TestBrokerLateRequestCopyAfterReply(t *testing.T) {
	b, codes := scriptBroker(t, false, nil)
	answerExecuted(b, codes, func(_ uint32, ts uint64) bool { return ts == 1 })
	b.cfg.RequestTimeout = 10 * time.Millisecond
	b.noteClientBound(messages.Marshal(&messages.Reply{ClientID: 9, Timestamp: 1, Replica: 0}))
	req := testRequest([]byte("broker-test"), b.cfg.N, 9, 1, []byte("op"))
	b.onClientRequest(messages.Marshal(&req))
	b.mu.Lock()
	pending := b.pendingReqs.Len()
	b.mu.Unlock()
	if pending != 1 {
		t.Fatalf("late copy not handed to batching: %d pending", pending)
	}
	expired := time.Now().Add(20 * time.Millisecond)
	b.onTick(expired)
	answerAsk(b, expired)
	if got := b.mSuspects.Load(); got != 0 {
		t.Fatalf("late copy of an answered request raised %d suspects", got)
	}
	b.mu.Lock()
	awaiting := len(b.awaiting)
	b.mu.Unlock()
	if awaiting != 0 {
		t.Fatalf("Execution's answer left %d requests awaiting a reply behind", awaiting)
	}
	// A different request from the same client is tracked as usual.
	next := testRequest([]byte("broker-test"), b.cfg.N, 9, 2, []byte("op"))
	b.onClientRequest(messages.Marshal(&next))
	expired = time.Now().Add(60 * time.Millisecond)
	b.onTick(expired)
	answerAsk(b, expired)
	if got := b.mSuspects.Load(); got != 1 {
		t.Fatalf("unanswered request raised %d suspects, want 1", got)
	}
}

// TestBrokerAsksExecutionBeforeSuspecting: when the timer expires the
// broker asks Execution about every overdue request, at most one ask at a
// time, and suspects only on what the answer leaves awaited — a request
// Execution covers, as one a state transfer carried this replica past, is
// cleared with no suspicion.
func TestBrokerAsksExecutionBeforeSuspecting(t *testing.T) {
	for _, covered := range []bool{true, false} {
		b, codes := scriptBroker(t, false, nil)
		answerExecuted(b, codes, func(uint32, uint64) bool { return covered })
		b.cfg.RequestTimeout = 10 * time.Millisecond
		req := testRequest([]byte("broker-test"), b.cfg.N, 9, 1, []byte("op"))
		b.onClientRequest(messages.Marshal(&req))
		exec := b.queueFor(crypto.RoleExecution)
		exec.reset()
		expired := time.Now().Add(20 * time.Millisecond)
		b.onTick(expired)
		b.onTick(expired.Add(time.Millisecond)) // the ask is still out
		if got := b.mSuspects.Load(); got != 0 || exec.len() != 2 {
			t.Fatalf("covered=%v: %d suspects and %d queries queued before the answer, want 0 and the period query plus one ask", covered, got, exec.len())
		}
		var ask []byte
		for exec.len() > 0 {
			if e, _ := pop(exec); len(e.payload) > 2 {
				ask = e.payload
			}
		}
		want := []byte{compartment.EcallTick, 0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}
		if !bytes.Equal(ask, want) {
			t.Fatalf("covered=%v: ask %x, want %x", covered, ask, want)
		}
		b.submit(crypto.RoleExecution, ask, nil)
		answerAsk(b, expired.Add(time.Millisecond))
		wantSuspects := uint64(1)
		if covered {
			wantSuspects = 0
		}
		b.mu.Lock()
		awaiting := len(b.awaiting)
		b.mu.Unlock()
		if got := b.mSuspects.Load(); got != wantSuspects || awaiting != int(wantSuspects) {
			t.Fatalf("covered=%v: %d suspects and %d requests awaited after the answer, want %d and %d", covered, got, awaiting, wantSuspects, wantSuspects)
		}
	}
}

func TestBrokerViewEstimateFollowsNewView(t *testing.T) {
	b, _ := newTestBroker(t, false)
	nv := &messages.NewView{View: 3, Replica: 3}
	b.handler(transportEndpoint(), messages.Marshal(nv))
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.viewEstimate != 3 {
		t.Fatalf("view estimate = %d, want 3", b.viewEstimate)
	}
}

// TestBrokerNewViewRepromotesParked: the failure detector's own bump can
// move the view estimate onto the view this replica will lead before that
// view exists, and the batch it promotes then reaches a Preparation enclave
// still in the old view, which drops it. The NewView that installs the view
// must promote the parked requests again — once — or they wait for the
// client's backed-off retransmit while the detector deposes view after view.
func TestBrokerNewViewRepromotesParked(t *testing.T) {
	b, cfg := newTestBroker(t, false) // replica 0 leads views 0, 4, 8, ...
	b.cfg.BatchSize = 1
	b.cfg.RequestTimeout = 10 * time.Millisecond
	b.mu.Lock()
	b.viewEstimate = 3
	b.mu.Unlock()
	req := testRequest(cfg.MACSecret, cfg.N, 9, 1, []byte("op"))
	b.onClientRequest(messages.Marshal(&req))
	if got := b.mBatches.Load(); got != 0 {
		t.Fatalf("backup broker submitted %d batches", got)
	}
	expired := time.Now().Add(20 * time.Millisecond)
	b.onTick(expired)
	answerAsk(b, expired) // suspects view 3, estimate 4
	if got := b.mBatches.Load(); got != 1 {
		t.Fatalf("detector bump promoted %d batches, want 1", got)
	}
	nv := &messages.NewView{View: 4, Replica: 0}
	b.observeNewView(nv)
	if got := b.mBatches.Load(); got != 2 {
		t.Fatalf("%d batches after the NewView of a view this replica leads, want 2", got)
	}
	if got := b.mViewChanges.Load(); got != 1 {
		t.Fatalf("view changes = %d, want 1: the NewView confirms the view the detector moved to", got)
	}
	b.observeNewView(nv) // a retransmit
	if got := b.mBatches.Load(); got != 2 {
		t.Fatalf("a retransmitted NewView promoted again: %d batches, want 2", got)
	}
}

// refusal encodes a preparation.OcallRefused payload naming client 9's
// requests at tss.
func refusal(reason byte, left time.Duration, tss ...uint64) []byte {
	enc := messages.NewEncoder(64)
	enc.U8(reason)
	enc.U64(uint64(left))
	for _, ts := range tss {
		enc.U32(9)
		enc.U64(ts)
	}
	return enc.Bytes()
}

// TestBrokerRefusalHoldsBuffer: a batch Preparation refuses goes back into
// the batch buffer, and the buffer offers nothing more — on a full batch or
// on the batch timeout — until the bound the refusal named has passed: for
// the window, the next crossing into Preparation that carries a Checkpoint;
// for the fence, the time it named. Then the whole buffer is offered again.
func TestBrokerRefusalHoldsBuffer(t *testing.T) {
	b, cfg := newTestBroker(t, false)
	b.cfg.BatchSize = 1
	offer := func(ts uint64) {
		req := testRequest(cfg.MACSecret, cfg.N, 9, ts, []byte("op"))
		b.onClientRequest(messages.Marshal(&req))
	}
	offered := func(want uint64) {
		t.Helper()
		if got := b.mBatches.Load(); got != want {
			t.Fatalf("%d batches offered, want %d", got, want)
		}
	}
	offer(1)
	offered(1)
	b.onRefused(refusal(preparation.RefusedWindow, 0, 1))
	offer(2)
	b.onTick(time.Now().Add(time.Second))
	offered(1)
	// A crossing without a Checkpoint leaves the hold; one with it lifts it.
	cp := frameMessage(messages.Marshal(&messages.Checkpoint{Seq: 1}), 1)
	tick := []byte{compartment.EcallTick, 0}
	b.cross([]ecall{{role: crypto.RolePreparation, payload: tick}}, nil, make([][][]byte, cfg.N))
	offered(1)
	b.cross([]ecall{{role: crypto.RolePreparation, payload: cp.buf, pb: cp}}, nil, make([][][]byte, cfg.N))
	offered(3)

	b.onRefused(refusal(preparation.RefusedFence, 50*time.Millisecond, 1, 2))
	offer(3)
	b.onTick(time.Now())
	offered(3)
	b.onTick(time.Now().Add(60 * time.Millisecond))
	offered(6)
	if b.mRefusedWindow.Load() != 1 || b.mRefusedFence.Load() != 1 {
		t.Fatalf("refusals counted: window %d, fence %d", b.mRefusedWindow.Load(), b.mRefusedFence.Load())
	}
}

// TestBrokerDropsStalePending: a request awaiting its reply for more than
// ten RequestTimeouts is stale (a pre-dedup retransmit, or one a state
// transfer skipped this replica past). The prune drops it without suspecting
// the primary, and a later view-estimate bump onto a view this replica leads
// does not re-propose its body.
func TestBrokerDropsStalePending(t *testing.T) {
	b, cfg := newTestBroker(t, false) // replica 0 leads views 0, 4, 8, ...
	b.cfg.BatchSize = 1
	b.cfg.RequestTimeout = 10 * time.Millisecond
	b.mu.Lock()
	b.viewEstimate = 3
	b.mu.Unlock()
	req := testRequest(cfg.MACSecret, cfg.N, 9, 1, []byte("op"))
	b.onClientRequest(messages.Marshal(&req))
	stale := time.Now().Add(11 * b.cfg.RequestTimeout)
	b.onTick(stale)
	answerAsk(b, stale)
	if got := b.mSuspects.Load(); got != 0 {
		t.Fatalf("a stale entry raised %d suspects", got)
	}
	b.mu.Lock()
	awaiting := len(b.awaiting)
	b.mu.Unlock()
	if awaiting != 0 {
		t.Fatalf("%d stale entries survived the prune", awaiting)
	}
	b.observeNewView(&messages.NewView{View: 4, Replica: 0})
	if got := b.mBatches.Load(); got != 0 {
		t.Fatalf("the view bump promoted %d batches from a pruned entry", got)
	}
}

// TestBrokerNewViewRestartsDetector: the NewView of a view this replica's
// own ViewChange asked for restarts the failure detector, so the new view
// gets a full RequestTimeout even for a request pending since the old one.
// A NewView for a view it never asked for — as a forged one would be —
// restarts nothing.
func TestBrokerNewViewRestartsDetector(t *testing.T) {
	// withOldRequest returns a broker holding a request that has been
	// pending, and timed, for two RequestTimeouts.
	withOldRequest := func() *broker {
		b, cfg := newTestBroker(t, false)
		b.cfg.RequestTimeout = time.Minute
		req := testRequest(cfg.MACSecret, cfg.N, 9, 1, []byte("op"))
		b.onClientRequest(messages.Marshal(&req))
		b.mu.Lock()
		key := reqKey{client: 9, ts: 1}
		p := b.awaiting[key]
		p.since = time.Now().Add(-2 * time.Minute)
		b.timerStart = p.since
		b.mu.Unlock()
		return b
	}

	b := withOldRequest()
	b.observeOutbound(messages.Marshal(&messages.ViewChange{NewViewNum: 1, Replica: 0}))
	b.observeNewView(&messages.NewView{View: 1, Replica: 1})
	installed := time.Now()
	b.onTick(installed.Add(30 * time.Second))
	if got := b.mSuspects.Load(); got != 0 {
		t.Fatalf("suspected %d times inside the new view's first RequestTimeout", got)
	}
	expired := installed.Add(61 * time.Second)
	b.onTick(expired)
	answerAsk(b, expired)
	if got := b.mSuspects.Load(); got != 1 {
		t.Fatalf("suspects = %d once the new view's RequestTimeout passed, want 1", got)
	}

	b = withOldRequest()
	b.observeNewView(&messages.NewView{View: 5, Replica: 1})
	expired = time.Now()
	b.onTick(expired)
	answerAsk(b, expired)
	if got := b.mSuspects.Load(); got != 1 {
		t.Fatalf("suspects = %d after a NewView this replica never asked for, want 1", got)
	}
}

// TestBrokerCountsExecutionEvents: the broker counts Execution's protocol
// events by the type of each output it routes, whatever its destination —
// a served and a refused ReadReply, a ReadIndex to the primary and to the
// replica's own Preparation, a BatchFetch, a StateProbe and a StateReply —
// and nothing for the other outputs it forwards.
func TestBrokerCountsExecutionEvents(t *testing.T) {
	b, cfg := newTestBroker(t, false)
	out := []tee.OutMsg{
		{Kind: tee.DestClient, ID: 42, Payload: messages.Marshal(&messages.ReadReply{ClientID: 42, Timestamp: 1, OK: true})},
		{Kind: tee.DestClient, ID: 42, Payload: messages.Marshal(&messages.ReadReply{ClientID: 42, Timestamp: 2})},
		{Kind: tee.DestReplica, ID: 1, Payload: messages.Marshal(&messages.ReadIndex{Holder: 0, Epoch: 1})},
		{Kind: tee.DestLocal, Local: crypto.RolePreparation, Payload: messages.Marshal(&messages.ReadIndex{Holder: 0, Epoch: 2})},
		{Kind: tee.DestBroadcast, Payload: messages.Marshal(&messages.BatchFetch{Seq: 5, Replica: 0})},
		{Kind: tee.DestReplica, ID: 2, Payload: messages.Marshal(&messages.StateProbe{Have: 3, Replica: 0})},
		{Kind: tee.DestReplica, ID: 3, Payload: messages.Marshal(&messages.StateReply{Replica: 0})},
		{Kind: tee.DestClient, ID: 42, Payload: messages.Marshal(&messages.Reply{ClientID: 42, Timestamp: 3})},
		{Kind: tee.DestBroadcast, Payload: messages.Marshal(&messages.Commit{Seq: 5, Replica: 0})},
	}
	b.route(out, make([][][]byte, cfg.N))
	for name, got := range map[string]uint64{
		"local reads":     b.mLocalReads.Load(),
		"lease refusals":  b.mLeaseRefusals.Load(),
		"read indexes":    b.mReadIndexes.Load(),
		"stall fetches":   b.mStallFetches.Load(),
		"probes sent":     b.mProbesSent.Load(),
		"probes answered": b.mProbesAnswered.Load(),
	} {
		want := uint64(1)
		if name == "read indexes" {
			want = 2
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// answerAsk delivers what the Execution queue holds — the detector's ask
// among it — in one crossing, as the Execution dispatcher would, then ticks
// at now: the tick that reads the answer.
func answerAsk(b *broker, now time.Time) {
	if n := b.queueFor(crypto.RoleExecution).len(); n > 0 {
		run, _ := b.queueFor(crypto.RoleExecution).drain(nil, n)
		b.cross(run, nil, make([][][]byte, b.cfg.N))
	}
	b.onTick(now)
}

// answerExecuted scripts a scriptBroker's Execution compartment to answer
// the detector's ask as Execution does, naming back through the ocall the
// asked pairs covered reports executed.
func answerExecuted(b *broker, codes map[crypto.Role]*scriptCode, covered func(client uint32, ts uint64) bool) {
	exec := b.enclaves[crypto.RoleExecution]
	codes[crypto.RoleExecution].reply = func(msg []byte) []tee.OutMsg {
		if len(msg) < 2 || msg[0] != compartment.EcallTick {
			return nil
		}
		done := messages.NewEncoder(0)
		for d := messages.NewDecoder(msg[2:]); d.Remaining() >= askPairSize; {
			client, ts := d.U32(), d.U64()
			if covered(client, ts) {
				done.U32(client)
				done.U64(ts)
			}
		}
		if done.Len() > 0 {
			_, _ = exec.Ocall(execution.OcallExecuted, done.Bytes())
		}
		return nil
	}
}

// transportEndpoint returns an arbitrary source endpoint for handler calls.
func transportEndpoint() transport.Endpoint { return transport.ClientEndpoint(99) }
