package tee

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/splitbft/splitbft/internal/crypto"
)

// echoCode is a trivial enclave program for runtime tests: it echoes its
// input back as a broadcast message and optionally performs an ocall.
type echoCode struct {
	meas      crypto.Digest
	doOcall   bool
	ocallName string
}

func (c *echoCode) Measurement() crypto.Digest { return c.meas }

func (c *echoCode) HandleECall(host Host, msg []byte) []OutMsg {
	if c.doOcall {
		if _, err := host.Ocall(c.ocallName, msg); err != nil {
			return nil
		}
	}
	return []OutMsg{{Kind: DestBroadcast, Payload: append([]byte(nil), msg...)}}
}

func newTestEnclave(t *testing.T, code Code) *Enclave {
	t.Helper()
	e, err := NewEnclave(1, crypto.RoleExecution, code, ZeroCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnclaveInvokeEcho(t *testing.T) {
	e := newTestEnclave(t, &echoCode{})
	out, err := e.Invoke([]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !bytes.Equal(out[0].Payload, []byte("ping")) {
		t.Fatalf("echo = %+v", out)
	}
	snap := e.Stats()
	if snap.Count != 1 || snap.Mean <= 0 {
		t.Fatalf("stats = %+v, want one timed call", snap)
	}
}

func TestEnclaveInvokeCopiesInput(t *testing.T) {
	// The handler must not observe caller mutations after Invoke returns
	// (copy-in semantics of the enclave boundary).
	var captured []byte
	code := &captureCode{capture: &captured}
	e := newTestEnclave(t, code)
	in := []byte("original")
	if _, err := e.Invoke(in); err != nil {
		t.Fatal(err)
	}
	in[0] = 'X'
	if !bytes.Equal(captured, []byte("original")) {
		t.Fatal("enclave saw caller mutation: boundary must copy")
	}
}

type captureCode struct{ capture *[]byte }

func (c *captureCode) Measurement() crypto.Digest { return crypto.Digest{} }
func (c *captureCode) HandleECall(_ Host, msg []byte) []OutMsg {
	*c.capture = append([]byte(nil), msg...)
	return nil
}

func TestEnclaveSingleThreaded(t *testing.T) {
	// Concurrent Invokes must serialize: max in-flight == 1.
	code := &concurrencyProbe{}
	e := newTestEnclave(t, code)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Invoke([]byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if code.maxSeen > 1 {
		t.Fatalf("enclave ran %d handlers concurrently, want 1", code.maxSeen)
	}
	if e.Stats().Count != 16 {
		t.Fatalf("count = %d, want 16", e.Stats().Count)
	}
}

type concurrencyProbe struct {
	mu      sync.Mutex
	cur     int
	maxSeen int
}

func (c *concurrencyProbe) Measurement() crypto.Digest { return crypto.Digest{} }
func (c *concurrencyProbe) HandleECall(_ Host, _ []byte) []OutMsg {
	c.mu.Lock()
	c.cur++
	if c.cur > c.maxSeen {
		c.maxSeen = c.cur
	}
	c.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	c.mu.Lock()
	c.cur--
	c.mu.Unlock()
	return nil
}

func TestEnclaveCrash(t *testing.T) {
	e := newTestEnclave(t, &echoCode{})
	e.Crash()
	if _, err := e.Invoke([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Invoke after Crash = %v, want ErrCrashed", err)
	}
}

func TestOcallRegistryAndErrors(t *testing.T) {
	code := &echoCode{doOcall: true, ocallName: "fs.write"}
	e := newTestEnclave(t, code)
	// Unregistered ocall: handler swallows the error and emits nothing.
	out, err := e.Invoke([]byte("x"))
	if err != nil || len(out) != 0 {
		t.Fatalf("expected empty output on failed ocall, got %v/%v", out, err)
	}
	var got []byte
	e.RegisterOcall("fs.write", func(data []byte) ([]byte, error) {
		got = data
		return []byte("ack"), nil
	})
	if _, err := e.Invoke([]byte("block-7")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("block-7")) {
		t.Fatalf("ocall payload = %q", got)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	e := newTestEnclave(t, &echoCode{})
	sealed, err := e.Seal(nil, []byte("application state"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, []byte("application state")) {
		t.Fatal("sealed data leaks plaintext")
	}
	pt, err := e.Unseal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("application state")) {
		t.Fatal("unseal round trip failed")
	}
	// A different enclave cannot unseal (sealing keys are per-enclave).
	other := newTestEnclave(t, &echoCode{})
	if _, err := other.Unseal(sealed); err == nil {
		t.Fatal("foreign enclave unsealed the data")
	}
}

// TestSealAllocatesOneBuffer: a sealed blob — boot ID, nonce, ciphertext —
// is built in one allocation, and appended behind what dst already holds.
func TestSealAllocatesOneBuffer(t *testing.T) {
	e := newTestEnclave(t, &echoCode{})
	data := bytes.Repeat([]byte("s"), 4096)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = e.Seal(nil, data) }); allocs != 1 {
		t.Fatalf("Seal: %.1f allocations, want 1", allocs)
	}
	framed, err := e.Seal([]byte("hdr"), data)
	if err != nil {
		t.Fatal(err)
	}
	if string(framed[:3]) != "hdr" {
		t.Fatal("Seal overwrote what dst held")
	}
	if pt, err := e.Unseal(framed[3:]); err != nil || !bytes.Equal(pt, data) {
		t.Fatalf("appended blob does not unseal: %v", err)
	}
}

func TestQuoteAndSessionDerivation(t *testing.T) {
	meas := crypto.HashData([]byte("exec-code"))
	e := newTestEnclave(t, &echoCode{meas: meas})
	var nonce [32]byte
	nonce[3] = 9
	q := e.Quote(nonce)
	if q.Measurement != meas || q.Nonce != nonce {
		t.Fatal("quote fields wrong")
	}
	if !crypto.Verify(e.PublicKey(), q.SigningBytes(), q.Sig) {
		t.Fatal("quote signature invalid")
	}

	// Client side of the handshake.
	clientKey, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var clientPub [32]byte
	copy(clientPub[:], clientKey.PublicKey().Bytes())

	enclaveSession, err := e.DeriveSession(clientPub)
	if err != nil {
		t.Fatal(err)
	}
	peerPub, err := ecdh.X25519().NewPublicKey(q.EnclavePub[:])
	if err != nil {
		t.Fatal(err)
	}
	shared, err := clientKey.ECDH(peerPub)
	if err != nil {
		t.Fatal(err)
	}
	clientSession := DeriveSessionKey(shared)
	if enclaveSession != clientSession {
		t.Fatal("client and enclave derived different session keys")
	}
}

func TestCostModelArithmetic(t *testing.T) {
	m := DefaultCostModel()
	tc := m.TransitionCost()
	// 8640 cycles at 3.7 GHz ≈ 2335 ns.
	if tc < 2*time.Microsecond || tc > 3*time.Microsecond {
		t.Fatalf("transition cost = %v, want ≈2.3µs", tc)
	}
	if m.CopyCost(0) != 0 {
		t.Fatal("zero-byte copy should cost nothing")
	}
	if m.CopyCost(1<<20) <= m.CopyCost(1<<10) {
		t.Fatal("copy cost must grow with size")
	}
	sim := SimulationCostModel()
	if sim.TransitionCost() != 0 {
		t.Fatal("simulation mode must zero transition cost")
	}
	if sim.CopyCost(1024) != m.CopyCost(1024) {
		t.Fatal("simulation mode must keep copy costs")
	}
	var zero CostModel
	if zero.TransitionCost() != 0 || zero.CopyCost(100) != 0 {
		t.Fatal("zero model must charge nothing")
	}
}

func TestCostModelChargesWallClock(t *testing.T) {
	m := CostModel{TransitionCycles: 370_000, CPUGHz: DefaultCPUGHz} // 100µs
	e, err := NewEnclave(0, crypto.RoleExecution, &echoCode{}, m)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := e.Invoke([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 90*time.Microsecond {
		t.Fatalf("ecall took %v, expected ≥ ~100µs transition charge", d)
	}
}

func TestQuickSealRoundTrip(t *testing.T) {
	e := newTestEnclave(t, &echoCode{})
	f := func(data []byte) bool {
		sealed, err := e.Seal(nil, data)
		if err != nil {
			return false
		}
		pt, err := e.Unseal(sealed)
		return err == nil && bytes.Equal(pt, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEcallRoundTrip(b *testing.B) {
	e, err := NewEnclave(0, crypto.RoleExecution, &echoCode{}, DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Invoke(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEcallRoundTripSimulation(b *testing.B) {
	e, err := NewEnclave(0, crypto.RoleExecution, &echoCode{}, SimulationCostModel())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Invoke(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// orderCode records the order messages reach the serial handler, for
// InvokeBatch tests.
type orderCode struct {
	mu      sync.Mutex
	handled [][]byte
}

func (c *orderCode) Measurement() crypto.Digest { return crypto.Digest{} }

func (c *orderCode) HandleECall(_ Host, msg []byte) []OutMsg {
	msg = append([]byte(nil), msg...)
	c.mu.Lock()
	c.handled = append(c.handled, msg)
	c.mu.Unlock()
	return []OutMsg{{Kind: DestBroadcast, Payload: msg}}
}

func TestInvokeBatchOrderAndOutputs(t *testing.T) {
	code := &orderCode{}
	e := newTestEnclave(t, code)
	msgs := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	out, err := e.InvokeBatch(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(msgs) {
		t.Fatalf("outputs = %d, want %d", len(out), len(msgs))
	}
	// Handlers ran serially in submission order: outputs and the handled
	// log are both ordered.
	for i, m := range msgs {
		if !bytes.Equal(out[i].Payload, m) || !bytes.Equal(code.handled[i], m) {
			t.Fatalf("order broken at %d: out=%q handled=%q", i, out[i].Payload, code.handled[i])
		}
	}
}

func TestInvokeBatchChargesOneTransition(t *testing.T) {
	// With a transition-only cost model (no copy cost), a batch of n
	// messages must cost roughly one transition, not n.
	cost := CostModel{TransitionCycles: 40_000_000, CPUGHz: 1} // 40 ms per transition
	e, err := NewEnclave(1, crypto.RoleExecution, &echoCode{}, cost)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
	}
	begin := time.Now()
	if _, err := e.InvokeBatch(msgs); err != nil {
		t.Fatal(err)
	}
	batched := time.Since(begin)
	if batched > 3*cost.TransitionCost() {
		t.Fatalf("batch of 8 cost %v, want ~1 transition (%v)", batched, cost.TransitionCost())
	}
	snap := e.Stats()
	if snap.Count != 1 || snap.Msgs != 8 {
		t.Fatalf("stats = %+v, want 1 crossing carrying 8 messages", snap)
	}
	if got := snap.MsgsPerCall(); got != 8 {
		t.Fatalf("MsgsPerCall = %v, want 8", got)
	}
}

func TestInvokeBatchCrashed(t *testing.T) {
	e := newTestEnclave(t, &echoCode{})
	e.Crash()
	if _, err := e.InvokeBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if out, err := e.InvokeBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", out, err)
	}
}

func TestInvokeBatchCopiesInputs(t *testing.T) {
	var captured []byte
	code := &captureCode{capture: &captured}
	e := newTestEnclave(t, code)
	in := [][]byte{[]byte("original")}
	if _, err := e.InvokeBatch(in); err != nil {
		t.Fatal(err)
	}
	in[0][0] = 'X'
	if !bytes.Equal(captured, []byte("original")) {
		t.Fatal("enclave saw caller mutation: boundary must copy")
	}
}

// TestInvokeReusesInboundBuffer pins the allocation diet of the boundary:
// once the enclave's inbound buffer has grown to the traffic's size, a
// crossing copies its payloads in without allocating — and a later, shorter
// crossing never shows a handler bytes left over from an earlier one.
func TestInvokeReusesInboundBuffer(t *testing.T) {
	var captured []byte
	e := newTestEnclave(t, &captureCode{capture: &captured})
	if _, err := e.Invoke([]byte("a-long-first-message")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke([]byte("short")); err != nil {
		t.Fatal(err)
	}
	if string(captured) != "short" {
		t.Fatalf("handler saw %q, want the second message alone", captured)
	}

	quiet := newTestEnclave(t, nopCode{})
	one := make([]byte, 512)
	batch := [][]byte{make([]byte, 100), make([]byte, 200), make([]byte, 300)}
	for _, f := range []func(){
		func() { _, _ = quiet.Invoke(one) },
		func() { _, _ = quiet.InvokeBatch(batch) },
	} {
		f() // grow the buffer
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Fatalf("a crossing allocates %v times with a warm inbound buffer, want 0", n)
		}
	}
}

// TestInvokeBatchMessagesDoNotOverlap: the messages of one crossing share
// the inbound buffer, so each must see exactly its own bytes even when an
// earlier handler appends to its input.
func TestInvokeBatchMessagesDoNotOverlap(t *testing.T) {
	var seen []string
	e := newTestEnclave(t, handlerFunc(func(msg []byte) {
		seen = append(seen, string(msg))
		_ = append(msg, "overrun"...)
	}))
	if _, err := e.InvokeBatch([][]byte{[]byte("one"), []byte("two"), nil, []byte("three")}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"one", "two", "", "three"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("handlers saw %q, want %q", seen, want)
	}
}

type handlerFunc func(msg []byte)

func (handlerFunc) Measurement() crypto.Digest { return crypto.Digest{} }
func (f handlerFunc) HandleECall(_ Host, msg []byte) []OutMsg {
	f(msg)
	return nil
}

// TestPoisonInboundExposesRetainedInput: with the test hook on, a handler
// that keeps its input slice (against the Code contract) reads 0xFF the
// moment it returns, instead of stale-but-plausible bytes a crossing later.
func TestPoisonInboundExposesRetainedInput(t *testing.T) {
	PoisonInbound.Store(true)
	defer PoisonInbound.Store(false)
	var kept [][]byte
	e := newTestEnclave(t, handlerFunc(func(msg []byte) { kept = append(kept, msg) }))
	if _, err := e.InvokeBatch([][]byte{[]byte("first"), []byte("second")}); err != nil {
		t.Fatal(err)
	}
	for _, k := range kept {
		if !bytes.Equal(k, bytes.Repeat([]byte{0xFF}, len(k))) {
			t.Fatalf("retained input still reads %q after the handler returned", k)
		}
	}
}
