package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/splitbft/splitbft"
)

// workload is one traffic mix and the deployment it runs against. Every
// size the layer probes need (batch, value, key count) lives here, so
// changing a workload re-shapes its probes.
type workload struct {
	name string

	n         int  // replicas
	trusted   bool // trusted 2f+1 consensus with MAC agreement auth; false is classic 3f+1 with Ed25519
	tcp       bool // loopback TCP instead of the in-process SimNet
	batch     int
	persist   bool
	leases    bool
	valueSize int
	keys      int
	clients   int     // single-outstanding logical clients
	rate      float64 // offered ops/s of the open-loop passes
	readFrac  float64
	pbftRef   bool // also run the non-compartmentalised PBFT reference
}

// The rates sit at a quarter to a third of each workload's closed-loop peak
// on the 2-core reference box: the rate pass measures latency without a
// backlog, and still completes every request when the shared host slows the
// box to half speed for a while, which it does. The peak pass measures what
// is left. BENCHMARK.json records why each workload was chosen; README.md
// has the probe numbers behind each size.
var workloads = []workload{
	{
		name: "sig-write",
		n:    4, batch: 1, valueSize: 64, keys: 1024, clients: 16, rate: 250, pbftRef: true,
	},
	{
		name: "batch-durable",
		n:    4, batch: 32, persist: true, valueSize: 256, keys: 1024, clients: 64, rate: 1000,
	},
	{
		name: "mac-tcp",
		n:    3, trusted: true, tcp: true, batch: 1, valueSize: 64, keys: 1024, clients: 8, rate: 800,
	},
	{
		name: "readmix-lease",
		n:    4, batch: 1, leases: true, valueSize: 64, keys: 1024, clients: 16, rate: 1000, readFrac: 0.8,
	},
}

// soloClients is the size of the solo pass's closed loop: one batch in
// flight, so a batch fills from its clients and never waits for the batch
// timer; with batch 1 that is the lone client latency is classically
// measured with.
func (w workload) soloClients() int { return w.batch }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keySeed derives enclave and MAC keys; TCP and persistence both need
// processes (and restarts) to agree on them.
var keySeed = []byte("splitbft-benchmark-keys")

const (
	// requestTimeout keeps the failure detector quiet: there are no faults
	// to detect, and on the seed short timeouts fire spuriously over TCP
	// (README.md, seed behaviour 2).
	requestTimeout = 60 * time.Second
	invokeTimeout  = 5 * time.Second
	// leaseTTL is pinned so the long requestTimeout does not stretch
	// leases with it (the default TTL is a quarter of the timeout).
	leaseTTL = 125 * time.Millisecond
)

// options are the deployment options of w; traced adds the observability
// layer with every request sampled.
func (w workload) options(dataDir string, traced bool) []splitbft.Option {
	opts := []splitbft.Option{
		splitbft.WithBatchSize(w.batch),
		splitbft.WithRequestTimeout(requestTimeout),
		splitbft.WithInvokeTimeout(invokeTimeout),
	}
	if w.trusted {
		opts = append(opts, splitbft.WithConsensusMode("trusted"), splitbft.WithAgreementAuth("mac"))
	}
	if w.tcp || w.persist {
		opts = append(opts, splitbft.WithKeySeed(keySeed))
	}
	if w.persist {
		opts = append(opts, splitbft.WithPersistence(dataDir))
	}
	if w.leases {
		opts = append(opts, splitbft.WithReadLeases(true), splitbft.WithLeaseTTL(leaseTTL))
	}
	if traced {
		opts = append(opts, splitbft.WithObservability(), splitbft.WithTraceSample(1))
	}
	return opts
}

// group is one running deployment with its client pool and key space.
type group struct {
	w       workload
	cluster *splitbft.Cluster // nil over TCP and for the PBFT reference
	nodes   []*splitbft.Node  // nil for the PBFT reference
	stores  func() []*splitbft.KVStore
	resends func() uint64 // client retransmissions so far
	workers []*worker
	keys    *keyspace
	net     netCount // SimNet traffic, counted only when a pass asks for it
	dataDir string
	closers []func()
}

// close tears the deployment down and removes its data; it is idempotent.
func (g *group) close() {
	for i := len(g.closers) - 1; i >= 0; i-- {
		g.closers[i]()
	}
	g.closers = nil
	if g.dataDir != "" {
		_ = os.RemoveAll(g.dataDir) // leftovers sit in the build directory, which is disposable
	}
}

// setup is the setup pass: build nodes and clients, attest, and preload
// every key through the protocol. observe installs the SimNet message
// counter (per-layer runs only; it sits on the send path).
func setup(w workload, traced, observe bool) (*group, error) {
	g := &group{w: w, keys: newKeyspace(w)}
	if w.persist {
		dir, err := os.MkdirTemp("", "splitbft-bench-")
		if err != nil {
			return nil, err
		}
		g.dataDir = dir
	}
	opts := w.options(g.dataDir, traced)
	clients := make([]*splitbft.Client, w.clients)
	if w.tcp {
		addrs, err := freeLoopbackAddrs(w.n)
		if err != nil {
			g.close()
			return nil, err
		}
		opts = append(opts, splitbft.WithTransportTCP(addrs...))
		for i := 0; i < w.n; i++ {
			node, err := splitbft.NewNode(uint32(i), opts...)
			if err != nil {
				g.close()
				return nil, fmt.Errorf("node %d: %w", i, err)
			}
			g.nodes = append(g.nodes, node)
			g.closers = append(g.closers, node.Stop)
		}
		for _, node := range g.nodes {
			if err := node.Start(); err != nil {
				g.close()
				return nil, err
			}
		}
		for i := range clients {
			cl, err := splitbft.NewClient(uint32(1000+i), opts...)
			if err != nil {
				g.close()
				return nil, fmt.Errorf("client %d: %w", i, err)
			}
			clients[i] = cl
			g.closers = append(g.closers, cl.Close)
		}
	} else {
		cluster, err := splitbft.NewCluster(w.n, opts...)
		if err != nil {
			g.close()
			return nil, err
		}
		g.cluster = cluster
		g.nodes = cluster.Nodes()
		g.closers = append(g.closers, cluster.Close)
		if observe {
			cluster.Net().AddObserver(g.net.observe)
		}
		for i := range clients {
			cl, err := cluster.NewClient(uint32(1000 + i))
			if err != nil {
				g.close()
				return nil, fmt.Errorf("client %d: %w", i, err)
			}
			clients[i] = cl
		}
	}
	g.stores = func() []*splitbft.KVStore {
		out := make([]*splitbft.KVStore, len(g.nodes))
		for i, node := range g.nodes {
			// A restarted node runs a fresh application instance, so the
			// stores are looked up each time.
			out[i], _ = node.App().(*splitbft.KVStore)
		}
		return out
	}
	g.resends = func() uint64 {
		var sum uint64
		for _, cl := range clients {
			sum += cl.Resends()
		}
		return sum
	}
	for i, cl := range clients {
		if err := cl.Attest(); err != nil {
			g.close()
			return nil, fmt.Errorf("attest client %d: %w", i, err)
		}
		g.workers = append(g.workers, newWorker(i, cl, g.keys, w))
	}
	if err := g.preload(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// preload writes version 1 of every key, each by its owning client.
func (g *group) preload() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(g.workers))
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for _, k := range w.own {
				if !w.put(k) {
					errs <- fmt.Errorf("preload key %d by client %d failed", k, w.id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// freeLoopbackAddrs reserves n loopback ports by binding and releasing
// them; the nodes need every peer's address before any of them listens.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}
