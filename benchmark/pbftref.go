package main

import (
	"fmt"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/internal/client"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/pbft"
	"github.com/splitbft/splitbft/internal/transport"
)

// setupPBFT builds the non-compartmentalised PBFT group (one key and one
// failure unit per replica, no enclaves) with the workload's clients, keys
// and values — the paper's baseline, and the closest thing this system has
// to a single-node reference.
func setupPBFT(w workload) (*group, error) {
	g := &group{w: w, keys: newKeyspace(w), resends: func() uint64 { return 0 }}
	net := transport.NewSimNet(1)
	g.closers = append(g.closers, net.Close)
	reg := crypto.NewRegistry()
	f := (w.n - 1) / 3
	keys := make([]*crypto.KeyPair, w.n)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		reg.Register(pbft.ReplicaIdentity(uint32(i)), keys[i].Public)
	}
	stores := make([]*splitbft.KVStore, w.n)
	for i := range stores {
		stores[i] = splitbft.NewKVStore()
		rep, err := pbft.NewReplica(pbft.Config{
			N: w.n, F: f, ID: uint32(i),
			Key:            keys[i],
			Registry:       reg,
			MACs:           crypto.NewMACStore(keySeed, pbft.ReplicaIdentity(uint32(i))),
			App:            stores[i],
			BatchSize:      w.batch,
			RequestTimeout: requestTimeout,
		})
		if err != nil {
			g.close()
			return nil, fmt.Errorf("pbft replica %d: %w", i, err)
		}
		conn, err := net.Join(transport.ReplicaEndpoint(uint32(i)), rep.Handler())
		if err != nil {
			g.close()
			return nil, err
		}
		rep.Start(conn)
		g.closers = append(g.closers, rep.Stop)
	}
	g.stores = func() []*splitbft.KVStore { return stores }
	for i := 0; i < w.clients; i++ {
		id := uint32(1000 + i)
		cl, err := client.New(client.Config{
			ID: id, N: w.n, F: f,
			MACs:          crypto.NewMACStore(keySeed, crypto.Identity{ReplicaID: id, Role: crypto.RoleClient}),
			AuthReceivers: pbft.BaselineAuthReceivers(w.n),
			ReplyRole:     crypto.RoleReplica,
			Timeout:       invokeTimeout,
		})
		if err != nil {
			g.close()
			return nil, fmt.Errorf("pbft client %d: %w", i, err)
		}
		conn, err := net.Join(transport.ClientEndpoint(id), cl.Handler())
		if err != nil {
			g.close()
			return nil, err
		}
		cl.Start(conn)
		g.closers = append(g.closers, cl.Close)
		g.workers = append(g.workers, newWorker(i, cl, g.keys, w))
	}
	if err := g.preload(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// pbftReference runs a closed-loop pass against plain PBFT and reports the
// paper's headline comparison: what compartmentalising costs in peak
// throughput on the same workload (splitPeak is this run's SplitBFT peak).
func pbftReference(w workload, cfg config, r *result, c *gate, splitPeak float64) error {
	g, err := setupPBFT(w)
	if err != nil {
		return fmt.Errorf("%s: pbft reference: %w", w.name, err)
	}
	defer g.close()
	g.warmUp(cfg, 0.05)
	p := g.closedLoop(cfg.seed, cfg.share(0.25), w.clients)
	c.checkPass("pbft", p, false)
	g.verify(c)
	r.tally("pbft", p)
	r.set("pbft.peak_ops_s", "ops/s", p.opsPerSec())
	r.set("pbft.lat_p50_ms", "ms", quantile(latencies(p.samples, all), 0.50))
	r.set("pbft.split_overhead_x", "ratio", ratio(p.opsPerSec(), splitPeak))
	return nil
}
