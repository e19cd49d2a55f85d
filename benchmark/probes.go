package main

import (
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/core"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/tee"
	"github.com/splitbft/splitbft/internal/transport"
)

// Layer probes time each layer's public functions directly, from outside,
// on inputs shaped like the workload's: the sizes all come from the
// workload definition. They run before the workload's cluster starts, so
// they never share cores with it.

const (
	probeSamples = 1000
	// probeBudget caps a slow probe (an fsync, a snapshot write); it then
	// reports the median of fewer samples, but never fewer than probeMin.
	probeBudget = 300 * time.Millisecond
	probeMin    = 30
)

// probe times f, each sample covering inner back-to-back calls, and
// returns the typical duration of one call in nanoseconds.
func probe(inner int, f func()) float64 {
	samples := make([]time.Duration, 0, probeSamples)
	begin := time.Now()
	for len(samples) < probeSamples && (len(samples) < probeMin || time.Since(begin) < probeBudget) {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		samples = append(samples, time.Since(t0))
	}
	return typical(samples) / float64(inner)
}

// typical is the mean of the samples between the quartiles, in
// nanoseconds: as deaf to outliers as the median, but not confined to the
// clock's grid, so two runs do not read the same to the last digit.
func typical(samples []time.Duration) float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	mid := samples[len(samples)/4 : len(samples)-len(samples)/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return float64(sum) / float64(len(mid))
}

// proposal is a PrePrepare carrying one full batch of the workload's PUTs,
// authenticated the way the workload's mode authenticates it.
func proposal(w workload) *messages.PrePrepare {
	ks := newKeyspace(w)
	batch := messages.Batch{Requests: make([]messages.Request, w.batch)}
	for i := range batch.Requests {
		k := i % w.keys
		batch.Requests[i] = messages.Request{
			ClientID:  uint32(1000 + i%w.clients),
			Timestamp: uint64(i + 1),
			Payload:   splitbft.EncodePut(ks.names[k], ks.value(k, 1)),
			Auth:      crypto.Authenticator{MACs: make([][crypto.MACSize]byte, len(core.RequestAuthReceivers(w.n)))},
		}
	}
	pp := &messages.PrePrepare{Seq: 1, Digest: batch.Digest(), Batch: batch}
	if w.trusted {
		pp.Auth = crypto.Authenticator{MACs: make([][crypto.MACSize]byte, len(messages.AgreementAuthReceivers(messages.TPrePrepare, w.n)))}
		pp.CtrVal, pp.CtrSig = 1, make([]byte, 64)
	} else {
		pp.Sig = make([]byte, 64)
	}
	return pp
}

// nopCode is enclave code that does nothing, so an Invoke costs exactly
// the boundary crossing: transition plus copy-in under the cost model.
type nopCode struct{}

func (nopCode) Measurement() crypto.Digest                { return crypto.Digest{} }
func (nopCode) HandleECall(tee.Host, []byte) []tee.OutMsg { return nil }

func runProbes(w workload, r *result) error {
	pp := proposal(w)
	frame := messages.Marshal(pp)

	r.set("messages.marshal_ns", "ns", probe(1, func() { messages.Marshal(pp) }))
	r.set("messages.unmarshal_ns", "ns", probe(1, func() { _, _ = messages.Unmarshal(frame) }))
	var before, after runtime.MemStats
	const rounds = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		_, _ = messages.Unmarshal(messages.Marshal(pp))
	}
	runtime.ReadMemStats(&after)
	r.set("messages.roundtrip_allocs", "count", float64(after.Mallocs-before.Mallocs)/rounds)
	r.set("messages.proposal_bytes", "B", float64(len(frame)))

	key := crypto.MustGenerateKeyPair()
	signed := (&messages.Prepare{Seq: 1, Digest: pp.Digest}).SigningBytes()
	sig := key.Sign(signed)
	macKey := crypto.NewMACKey(keySeed, crypto.Identity{ReplicaID: 0, Role: crypto.RolePreparation}, crypto.Identity{ReplicaID: 1, Role: crypto.RoleConfirmation})
	r.set("crypto.sign_ns", "ns", probe(1, func() { key.Sign(signed) }))
	r.set("crypto.verify_ns", "ns", probe(1, func() { crypto.Verify(key.Public, signed, sig) }))
	r.set("crypto.mac_ns", "ns", probe(16, func() { crypto.ComputeMAC(macKey, signed) }))

	enclave, err := tee.NewEnclave(0, crypto.RolePreparation, nopCode{}, tee.DefaultCostModel())
	if err != nil {
		return err
	}
	r.set("tee.crossing_ns", "ns", probe(1, func() { _, _ = enclave.Invoke(frame) }))

	kvs := app.NewKVS()
	ks := newKeyspace(w)
	puts := make([][]byte, w.keys)
	gets := make([][]byte, w.keys)
	for k := range puts {
		puts[k] = app.EncodePut(ks.names[k], ks.value(k, 1))
		gets[k] = app.EncodeGet(ks.names[k])
		kvs.Execute(0, puts[k])
	}
	i := 0
	r.set("app.execute_ns", "ns", probe(16, func() { kvs.Execute(0, puts[i%w.keys]); i++ }))
	r.set("app.read_ns", "ns", probe(16, func() { kvs.ExecuteRead(0, gets[i%w.keys]); i++ }))
	r.set("app.digest_us", "us", probe(1, func() { kvs.Digest() })/1e3)
	r.set("app.snapshot_us", "us", probe(1, func() { kvs.Snapshot() })/1e3)

	if w.persist {
		if err := storeProbes(r, frame, kvs.Snapshot()); err != nil {
			return err
		}
	}
	if w.tcp {
		return tcpProbes(r, frame)
	}
	return simnetProbe(r, frame)
}

// storeProbes times the WAL on records the size of a proposal frame (the
// broker logs every delivered ecall) and a snapshot the size of the
// workload's state. The group-commit timer is pushed out of the way so
// only the explicit Sync flushes; sealing is the enclave's work and is not
// included.
func storeProbes(r *result, record, state []byte) error {
	dir, err := os.MkdirTemp("", "splitbft-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{FsyncInterval: time.Hour})
	if err != nil {
		return err
	}
	defer st.Close()
	var opErr error
	note := func(err error) {
		if opErr == nil {
			opErr = err
		}
	}
	var appends, syncs []time.Duration
	probe(1, func() {
		t0 := time.Now()
		_, err := st.Append(record)
		t1 := time.Now()
		note(err)
		note(st.Sync())
		appends, syncs = append(appends, t1.Sub(t0)), append(syncs, time.Since(t1))
	})
	r.set("store.append_us", "us", typical(appends)/1e3)
	r.set("store.sync_us", "us", typical(syncs)/1e3)
	// A snapshot that covers no new record is a no-op, so each sample first
	// appends one; the append is already buffered when the clock starts.
	var writes []time.Duration
	probe(1, func() {
		_, err := st.Append(record)
		note(err)
		t0 := time.Now()
		note(st.WriteSnapshot(state))
		writes = append(writes, time.Since(t0))
	})
	r.set("store.snapshot_write_ms", "ms", typical(writes)/1e6)
	return opErr
}

// pingPong measures round trips of frame between two endpoints: b sends,
// a echoes, b's handler signals. It returns the typical round trip and the
// typical time of the Send call alone, in nanoseconds.
func pingPong(join func(self transport.Endpoint, h transport.Handler) (transport.Conn, error), frame []byte) (rtt, send float64, err error) {
	epA, epB := transport.ReplicaEndpoint(0), transport.ReplicaEndpoint(1)
	var a transport.Conn
	back := make(chan struct{}, 1)
	a, err = join(epA, func(_ transport.Endpoint, data []byte) { _ = a.Send(epB, data) })
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := join(epB, func(transport.Endpoint, []byte) { back <- struct{}{} })
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	var sends []time.Duration
	var sendErr error
	lost := time.NewTimer(10 * time.Second) // one deadline for the whole probe: nothing drops frames here
	defer lost.Stop()
	rtt = probe(1, func() {
		if sendErr != nil {
			return
		}
		t0 := time.Now()
		if sendErr = b.Send(epA, frame); sendErr != nil {
			return
		}
		sends = append(sends, time.Since(t0))
		select {
		case <-back:
		case <-lost.C:
			sendErr = os.ErrDeadlineExceeded
		}
	})
	if sendErr != nil {
		return 0, 0, sendErr
	}
	return rtt, typical(sends), nil
}

func simnetProbe(r *result, frame []byte) error {
	net := transport.NewSimNet(1)
	defer net.Close()
	rtt, _, err := pingPong(net.Join, frame)
	if err != nil {
		return err
	}
	r.set("transport.simnet_rtt_us", "us", rtt/1e3)
	return nil
}

func tcpProbes(r *result, frame []byte) error {
	addrs, err := freeLoopbackAddrs(2)
	if err != nil {
		return err
	}
	book := map[uint32]string{0: addrs[0], 1: addrs[1]}
	join := func(self transport.Endpoint, h transport.Handler) (transport.Conn, error) {
		return transport.ListenTCP(self, book[self.ID], book, h)
	}
	rtt, send, err := pingPong(join, frame)
	if err != nil {
		return err
	}
	r.set("transport.tcp_rtt_us", "us", rtt/1e3)
	r.set("transport.tcp_send_ns", "ns", send)
	return nil
}
