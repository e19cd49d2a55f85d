package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft"
)

// Run executes one experiment point: it builds the cluster, drives
// closed-loop clients through a warmup and a timed measurement window, and
// returns throughput/latency statistics plus (for SplitBFT) the leader's
// per-compartment ecall profile.
func Run(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	h, err := startCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.close()

	res := Result{System: cfg.System, Clients: cfg.Clients, Batched: cfg.Batched}
	rec := &recorder{}
	var measuring atomic.Bool
	var stop atomic.Bool

	payload := make([]byte, cfg.PayloadSize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	// Closed-loop workers: each performs synchronous PUT operations
	// (blockchain: raw transactions; ReadMix: GETs among them) back to
	// back. In batched mode each client runs Outstanding() workers sharing
	// its timestamp counter.
	var wg sync.WaitGroup
	for ci, cl := range h.clients {
		for w := 0; w < cfg.Outstanding(); w++ {
			wg.Add(1)
			go func(cl benchClient, ci, w int) {
				defer wg.Done()
				key := fmt.Sprintf("key-%d-%d", ci, w)
				var op []byte
				if cfg.System.IsBlockchain() {
					op = payload
				} else {
					op = splitbft.EncodePut(key, payload)
				}
				get := splitbft.EncodeGet(key)
				for i := 0; !stop.Load(); i++ {
					read := cfg.ReadMix && i%readMixPeriod != 0
					start := time.Now()
					var err error
					if read {
						_, err = cl.InvokeRead(get)
					} else {
						_, err = cl.Invoke(op)
					}
					if measuring.Load() {
						if err != nil {
							rec.fail()
						} else {
							rec.record(time.Since(start), read)
						}
					}
				}
			}(cl, ci, w)
		}
	}

	time.Sleep(cfg.Warmup)
	// Reset the nodes' stats so Figure 4 and the lease counters reflect
	// steady state.
	for _, n := range h.splitNodes {
		n.ResetStats()
	}
	measuring.Store(true)
	begin := time.Now()
	time.Sleep(cfg.Measure)
	measuring.Store(false)
	elapsed := time.Since(begin)
	stop.Store(true)
	// Unblock workers stuck in Invoke by closing clients.
	for _, cl := range h.clients {
		cl.Close()
	}
	wg.Wait()

	rec.summarize(&res, elapsed)
	if len(h.splitNodes) > 0 {
		var calls, msgs uint64
		for _, s := range h.splitNodes[0].EnclaveStats() {
			res.Compartments = append(res.Compartments, CompartmentStat{
				Name:  s.Role.String(),
				Calls: s.Count,
				Msgs:  s.Msgs,
				Mean:  s.Mean,
				Total: s.Total,
			})
			calls += s.Count
			msgs += s.Msgs
		}
		if calls > 0 {
			res.MsgsPerEcall = float64(msgs) / float64(calls)
		}
		res.VerifyCacheHitRate = h.splitNodes[0].VerifyCacheStats().HitRate()
		cs := h.splitNodes[0].CryptoStats()
		res.SigVerifies = cs.SigVerifies
		res.MACVerifies = cs.MACVerifies
		res.SigCPUFraction = cs.SigCPUFraction(elapsed)
		res.CounterCreates = cs.CounterCreates
		res.CounterVerifies = cs.CounterVerifies
		res.LeaseGrants = cs.LeaseGrants
		for _, n := range h.splitNodes {
			res.LocalReads += n.LocalReads()
		}
		res.Stages = h.splitNodes[0].StageLatencies()
	}
	return res, nil
}

// Sweep runs one system over several client counts.
func Sweep(sys System, clients []int, batched bool, measure time.Duration) ([]Result, error) {
	out := make([]Result, 0, len(clients))
	for _, c := range clients {
		r, err := Run(RunConfig{System: sys, Clients: c, Batched: batched, Measure: measure})
		if err != nil {
			return out, fmt.Errorf("%v @%d clients: %w", sys, c, err)
		}
		out = append(out, r)
	}
	return out, nil
}
