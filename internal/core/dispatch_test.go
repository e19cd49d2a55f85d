package core

import (
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/splitbft/splitbft/internal/compartment/execution"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// TestMain runs the whole package with the enclaves' inbound-buffer poison
// on: every compartment, view-change, recovery and cluster test then
// doubles as the aliasing guard for the reusable copy-in buffer — a handler
// that kept a slice of its input reads 0xFF the moment it returns and the
// test exercising it fails loudly. The transport's poison does the same for
// the frame buffer a TCP read loop hands the broker's handler.
func TestMain(m *testing.M) {
	tee.PoisonInbound.Store(true)
	transport.PoisonInbound.Store(true)
	os.Exit(m.Run())
}

// scriptCode is enclave code for dispatcher tests: it records the messages
// it handled, in order, and answers each with one message to replica 1, or
// with what reply returns when set.
type scriptCode struct {
	reply func(msg []byte) []tee.OutMsg

	mu      sync.Mutex
	handled []byte // first payload byte of every message, in handler order
}

func (c *scriptCode) Measurement() crypto.Digest { return crypto.Digest{} }

func (c *scriptCode) HandleECall(_ tee.Host, msg []byte) []tee.OutMsg {
	c.mu.Lock()
	c.handled = append(c.handled, msg[0])
	c.mu.Unlock()
	if c.reply != nil {
		return c.reply(msg)
	}
	return []tee.OutMsg{{Kind: tee.DestReplica, ID: 1, Payload: []byte{msg[0]}}}
}

func (c *scriptCode) order() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.handled...)
}

// sendCall is one Send as the broker made it: the peer, a copy of every
// frame, and how many ecalls sat in the watched queue at that moment.
type sendCall struct {
	to     transport.Endpoint
	frames [][]byte
	queued int
}

// sendLog is a transport.Conn recording what the broker routed and, when a
// store is attached, the store's counters at the moment of each send.
type sendLog struct {
	st *store.Store
	q  *queue // watched queue, optional

	called chan struct{} // signalled per Send when set

	mu     sync.Mutex
	calls  []sendCall
	sent   []byte // first byte of every frame, in hand-off order
	atSend []store.Stats
}

func (l *sendLog) Send(to transport.Endpoint, frames ...[]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	call := sendCall{to: to}
	if l.q != nil {
		call.queued = l.q.len()
	}
	for _, f := range frames {
		call.frames = append(call.frames, append([]byte(nil), f...))
		l.sent = append(l.sent, f[0])
		if l.st != nil {
			l.atSend = append(l.atSend, l.st.Stats())
		}
	}
	l.calls = append(l.calls, call)
	if l.called != nil {
		l.called <- struct{}{}
	}
	return nil
}

// waitCalls returns the first n Sends once that many were made.
func (l *sendLog) waitCalls(t *testing.T, n int) []sendCall {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-l.called:
		case <-time.After(10 * time.Second):
			t.Fatalf("broker made %d of %d expected Sends", i, n)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sendCall(nil), l.calls[:n]...)
}

func (l *sendLog) BroadcastReplicas(frames ...[]byte) error {
	return l.Send(transport.Endpoint{}, frames...)
}
func (l *sendLog) Close() error { return nil }

// scriptBroker builds a broker over three scriptCode enclaves.
func scriptBroker(t *testing.T, singleThread bool, stores map[crypto.Role]*comStore) (*broker, map[crypto.Role]*scriptCode) {
	t.Helper()
	codes := make(map[crypto.Role]*scriptCode)
	encs := make(map[crypto.Role]*tee.Enclave)
	for _, role := range compartmentRoles {
		codes[role] = &scriptCode{}
		enc, err := tee.NewEnclave(0, role, codes[role], tee.ZeroCostModel())
		if err != nil {
			t.Fatal(err)
		}
		encs[role] = enc
		if cs := stores[role]; cs != nil {
			cs.enc = enc
		}
	}
	cfg := Config{SingleThread: singleThread}
	cfg.N, cfg.F = 4, 1
	cfg = cfg.withDefaults()
	b := newBroker(cfg, [3]*tee.Enclave{encs[crypto.RolePreparation], encs[crypto.RoleConfirmation], encs[crypto.RoleExecution]}, stores)
	return b, codes
}

// runQueued queues the given ecalls while no dispatcher runs, then starts
// the broker and stops it again; a closed queue hands out its backlog
// first, so on return every ecall was delivered and its outputs routed.
func runQueued(b *broker, conn transport.Conn, calls []ecall) {
	for _, e := range calls {
		b.submit(e.role, e.payload, nil)
	}
	b.start(conn)
	b.stopAll()
}

// seqCalls numbers n ecalls for role from `from` in their first byte; the
// trailing bytes keep them clear of the two-byte query the WAL skips.
func seqCalls(role crypto.Role, from, n int) []ecall {
	out := make([]ecall, n)
	for i := range out {
		out[i] = ecall{role: role, payload: []byte{byte(from + i), 0xEE, 0xEE}}
	}
	return out
}

// TestDispatchCoalescesQueuedEcalls: whatever is queued for a compartment
// crosses the trusted boundary together — k waiting ecalls are one charged
// transition, never more than maxCrossing per crossing — and the handlers
// still run, and their outputs leave, in submission order.
func TestDispatchCoalescesQueuedEcalls(t *testing.T) {
	for _, tc := range []struct {
		k, crossings int
	}{
		{1, 1},
		{5, 1},
		{maxCrossing, 1},
		{maxCrossing + 1, 2},
		{2*maxCrossing + 8, 3},
	} {
		b, codes := scriptBroker(t, false, nil)
		conn := &sendLog{}
		calls := seqCalls(crypto.RoleConfirmation, 0, tc.k)
		runQueued(b, conn, calls)
		want := make([]byte, tc.k)
		for i := range want {
			want[i] = byte(i)
		}
		if got := codes[crypto.RoleConfirmation].order(); string(got) != string(want) {
			t.Fatalf("k=%d: handled %v, want submission order", tc.k, got)
		}
		if string(conn.sent) != string(want) {
			t.Fatalf("k=%d: routed %v, want submission order", tc.k, conn.sent)
		}
		st := b.enclaves[crypto.RoleConfirmation].Stats()
		if st.Count != uint64(tc.crossings) || st.Msgs != uint64(tc.k) {
			t.Fatalf("k=%d: %d crossings carrying %d messages, want %d carrying %d",
				tc.k, st.Count, st.Msgs, tc.crossings, tc.k)
		}
		for _, role := range []crypto.Role{crypto.RolePreparation, crypto.RoleExecution} {
			if st := b.enclaves[role].Stats(); st.Count != 0 {
				t.Fatalf("k=%d: %v crossed %d times with nothing queued", tc.k, role, st.Count)
			}
		}
	}
}

// TestDispatchRunLeavesInOneSendPerPeer: the replica-bound outputs of one
// dispatch run — here k batches answered by k proposals, payload byte = slot
// — reach the transport as one Send per peer carrying that peer's frames in
// output order, after every local output of the run was enqueued; a run of
// one is the same hand-off with one frame, byte for byte what was routed
// before runs existed. Single-thread mode makes the queue depth at the
// moment of the Send exact: the only dispatcher is inside route.
func TestDispatchRunLeavesInOneSendPerPeer(t *testing.T) {
	for _, k := range []int{1, 5, maxCrossing} {
		b, codes := scriptBroker(t, true, nil)
		// Preparation's emission order: the copy for its own Confirmation
		// first, then the broadcast; the message to replica 2 alone shows
		// that both replica-bound kinds share one per-peer order.
		codes[crypto.RolePreparation].reply = func(msg []byte) []tee.OutMsg {
			return []tee.OutMsg{
				{Kind: tee.DestLocal, Local: crypto.RoleConfirmation, Payload: []byte{msg[0], 0xAA}},
				{Kind: tee.DestBroadcast, Payload: []byte{msg[0], 0xBB}},
				{Kind: tee.DestReplica, ID: 2, Payload: []byte{msg[0], 0xCC}},
			}
		}
		// Buffered for every Send of the test: these three and the one the
		// Confirmation script makes for the k local copies.
		conn := &sendLog{q: b.queues[0], called: make(chan struct{}, 4)}
		for _, e := range seqCalls(crypto.RolePreparation, 0, k) {
			b.submit(e.role, e.payload, nil)
		}
		b.start(conn)
		calls := conn.waitCalls(t, 3)
		b.stopAll()
		for i, c := range calls {
			if want := transport.ReplicaEndpoint(uint32(i + 1)); c.to != want {
				t.Fatalf("k=%d: send %d went to %v, want %v (one Send per peer, self skipped)", k, i, c.to, want)
			}
			if c.queued != k {
				t.Fatalf("k=%d: %d local outputs queued when the run left for %v, want all %d", k, c.queued, c.to, k)
			}
			var want [][]byte
			for slot := 0; slot < k; slot++ {
				want = append(want, []byte{byte(slot), 0xBB})
				if c.to.ID == 2 {
					want = append(want, []byte{byte(slot), 0xCC})
				}
			}
			if !reflect.DeepEqual(c.frames, want) {
				t.Fatalf("k=%d: %v received %v, want %v", k, c.to, c.frames, want)
			}
		}
	}
}

// TestDispatchSingleThreadRunsByRole: the single dispatcher of SingleThread
// mode serves one mixed queue; a crossing carries a run of consecutive
// ecalls for one compartment, so global submission order is preserved
// across compartments.
func TestDispatchSingleThreadRunsByRole(t *testing.T) {
	b, codes := scriptBroker(t, true, nil)
	conn := &sendLog{}
	var calls []ecall
	calls = append(calls, seqCalls(crypto.RolePreparation, 0, 2)...)
	calls = append(calls, seqCalls(crypto.RoleExecution, 2, 3)...)
	calls = append(calls, seqCalls(crypto.RolePreparation, 5, 1)...)
	runQueued(b, conn, calls)
	if want := []byte{0, 1, 2, 3, 4, 5}; string(conn.sent) != string(want) {
		t.Fatalf("routed %v, want %v", conn.sent, want)
	}
	if got := codes[crypto.RolePreparation].order(); string(got) != string([]byte{0, 1, 5}) {
		t.Fatalf("preparation handled %v", got)
	}
	for role, want := range map[crypto.Role][2]uint64{
		crypto.RolePreparation: {2, 3}, // runs of 2 and 1
		crypto.RoleExecution:   {1, 3},
	} {
		if st := b.enclaves[role].Stats(); st.Count != want[0] || st.Msgs != want[1] {
			t.Fatalf("%v: %d crossings carrying %d messages, want %d carrying %d", role, st.Count, st.Msgs, want[0], want[1])
		}
	}
}

// openTestStore opens a compartment store with default options: nothing
// flushes it but the dispatcher's explicit Sync.
func openTestStore(t *testing.T, faults *store.FaultInjector) *store.Store {
	t.Helper()
	st, _, err := store.Open(t.TempDir(), store.Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestDispatchRunIsDurableBeforeRouting: with persistence on, a coalesced
// run is the group commit — all k records are appended and synced, by one
// fsync, before the first output of the run is routed.
func TestDispatchRunIsDurableBeforeRouting(t *testing.T) {
	const k = 7
	st := openTestStore(t, nil)
	b, _ := scriptBroker(t, false, map[crypto.Role]*comStore{crypto.RoleConfirmation: {st: st}})
	conn := &sendLog{st: st}
	runQueued(b, conn, seqCalls(crypto.RoleConfirmation, 0, k))
	if len(conn.sent) != k {
		t.Fatalf("routed %d outputs, want %d", len(conn.sent), k)
	}
	for i, s := range conn.atSend {
		if s.Appended != k || s.Flushed != k || s.Fsyncs != 1 {
			t.Fatalf("output %d routed with %d of %d records appended, %d flushed, %d fsyncs: the run must be durable first, in one sync",
				i, s.Appended, k, s.Flushed, s.Fsyncs)
		}
	}
}

// TestDispatchFailedSyncRoutesNothing: when the store cannot make the run
// durable, none of its outputs escape — the compartment goes mute rather
// than let a message outlive the record of the input that caused it.
func TestDispatchFailedSyncRoutesNothing(t *testing.T) {
	const k = 5
	faults := new(store.FaultInjector)
	st := openTestStore(t, faults)
	b, codes := scriptBroker(t, false, map[crypto.Role]*comStore{crypto.RoleConfirmation: {st: st}})
	conn := &sendLog{st: st}
	faults.FailWrites(errors.New("injected write error"))
	runQueued(b, conn, seqCalls(crypto.RoleConfirmation, 0, k))
	if got := codes[crypto.RoleConfirmation].order(); len(got) != k {
		t.Fatalf("handled %d of %d ecalls", len(got), k)
	}
	if len(conn.sent) != 0 {
		t.Fatalf("routed %d outputs of a run whose Sync failed, want none", len(conn.sent))
	}
	if st.Failed() == nil {
		t.Fatal("store did not record the failed write")
	}
}

// fetchesForwarded delivers n messages to a broker's Execution compartment,
// whose script answers each query with a BatchFetch for blocked(m) — m being
// the messages it handled so far, 0 meaning no slot is blocked — and returns,
// per forwarded fetch, the slot it named and m when it was answered. It also
// returns Execution's crossing count.
func fetchesForwarded(t *testing.T, n int, blocked func(m int) uint64) (fetched [][2]int, crossings uint64) {
	t.Helper()
	b, codes := scriptBroker(t, false, nil)
	m := 0
	codes[crypto.RoleExecution].reply = func(p []byte) []tee.OutMsg {
		if !isQuery(p) {
			m++
			return nil
		}
		seq := blocked(m)
		if seq == 0 {
			return nil
		}
		f := &messages.BatchFetch{Seq: seq}
		binary.LittleEndian.PutUint64(f.Digest[:], uint64(m))
		return []tee.OutMsg{{Kind: tee.DestBroadcast, Payload: messages.Marshal(f)}}
	}
	conn := &sendLog{}
	runQueued(b, conn, seqCalls(crypto.RoleExecution, 0, n))
	for _, c := range conn.calls {
		if c.to != transport.ReplicaEndpoint(1) {
			continue
		}
		for _, frame := range c.frames {
			msg, err := messages.Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			f := msg.(*messages.BatchFetch)
			fetched = append(fetched, [2]int{int(f.Seq), int(binary.LittleEndian.Uint64(f.Digest[:]))})
		}
	}
	return fetched, b.enclaves[crypto.RoleExecution].Stats().Count
}

// TestBrokerFetchPolicy: the dispatcher queries Execution after every
// queryEvery-th message, inside the crossing that carries it, and forwards a
// BatchFetch only when the answer before it named the same slot. So a slot
// that stays blocked is first fetched after 32 to 64 messages and again
// every 32 while it stays blocked, and a slot blocked at one query only is
// never fetched.
func TestBrokerFetchPolicy(t *testing.T) {
	const n = 200
	for _, from := range []int{65, 80, 96} {
		fetched, crossings := fetchesForwarded(t, n, func(m int) uint64 {
			if m >= from && m < 200 {
				return 9
			}
			return 0
		})
		if want := uint64((n + maxCrossing - 1) / maxCrossing); crossings != want {
			t.Fatalf("blocked from %d: %d crossings for %d messages, want %d: a query must ride an existing crossing", from, crossings, n, want)
		}
		if len(fetched) != 3 {
			t.Fatalf("blocked from %d: forwarded %v, want 3 fetches", from, fetched)
		}
		if delay := fetched[0][1] - from; delay < queryEvery || delay > 2*queryEvery {
			t.Fatalf("blocked from %d: first fetch left %d messages later, want %d to %d", from, delay, queryEvery, 2*queryEvery)
		}
		for i, f := range fetched {
			if f[0] != 9 {
				t.Fatalf("blocked from %d: fetch named slot %d", from, f[0])
			}
			if i > 0 && f[1]-fetched[i-1][1] != queryEvery {
				t.Fatalf("blocked from %d: fetches left at messages %v, want one every %d", from, fetched, queryEvery)
			}
		}
	}
	// Slot 5 is blocked at the query after message 32 only, slot 9 at the
	// one after message 96 only: both were merely overtaken.
	fetched, _ := fetchesForwarded(t, n, func(m int) uint64 {
		switch {
		case m >= 20 && m < 40:
			return 5
		case m >= 70 && m < 100:
			return 9
		}
		return 0
	})
	if len(fetched) != 0 {
		t.Fatalf("forwarded %v for slots each blocked at one query, want nothing", fetched)
	}
}

// TestBrokerProbesFirstPeriodsAfterStore: each detector period queries
// Execution with the period flag, and a broker over stores adds the probe
// flag for the first probePeriods periods; one without stores never probes.
func TestBrokerProbesFirstPeriodsAfterStore(t *testing.T) {
	for _, stores := range []map[crypto.Role]*comStore{nil, {}} {
		b, _ := scriptBroker(t, false, stores)
		exec := b.queueFor(crypto.RoleExecution)
		now := time.Now()
		for period := 0; period < probePeriods+3; period++ {
			b.onTick(now.Add(time.Duration(period) * 2 * b.cfg.RequestTimeout))
			e, ok := pop(exec)
			if !ok || exec.len() != 0 || !isQuery(e.payload) {
				t.Fatalf("period %d queued %x and %d more, want one query", period, e.payload, exec.len())
			}
			want := execution.TickPeriod
			if stores != nil && period < probePeriods {
				want |= execution.TickProbe
			}
			if e.payload[1] != want {
				t.Fatalf("stores=%v period %d: flags %b, want %b", stores != nil, period, e.payload[1], want)
			}
		}
	}
}
