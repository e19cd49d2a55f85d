package bench

import (
	"fmt"
	"sync"
	"time"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/internal/client"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/pbft"
	"github.com/splitbft/splitbft/internal/transport"
)

// benchN and benchF fix the replica group size to the paper's deployment
// (four SGX machines, f = 1).
const (
	benchN = 4
	benchF = 1
)

// benchSecret seeds the pairwise MAC keys for a PBFT baseline cluster.
var benchSecret = []byte("splitbft-bench-secret")

// benchClient abstracts over the public SplitBFT client and the internal
// client driving the PBFT baseline.
type benchClient interface {
	Invoke(op []byte) ([]byte, error)
	InvokeRead(op []byte) ([]byte, error)
	Close()
}

// clusterHandle owns a running benchmark cluster and its clients.
type clusterHandle struct {
	clients []benchClient
	// splitNodes is non-nil for SplitBFT systems (for enclave stats).
	splitNodes []*splitbft.Node
	shutdown   func()
}

func (h *clusterHandle) close() { h.shutdown() }

// buildApp constructs the application instance for one replica.
func buildApp(sys System) splitbft.Application {
	if sys.IsBlockchain() {
		return splitbft.NewBlockchain(splitbft.DefaultBlockSize, nil)
	}
	return splitbft.NewKVStore()
}

// startCluster launches the replica group for a system configuration and
// attaches cfg.Clients clients, attesting them when confidential. SplitBFT
// systems run on the public splitbft.Cluster facade — the same code path
// as the examples and CLIs; the PBFT baseline keeps its own wiring.
func startCluster(cfg RunConfig) (*clusterHandle, error) {
	batchSize := 1
	if cfg.Batched {
		batchSize = splitbft.DefaultBatchSize
		if cfg.BatchSizeOverride > 0 {
			batchSize = cfg.BatchSizeOverride
		}
	}
	// A generous request timeout keeps the failure detector quiet under
	// benchmark load (there are no faults to detect here).
	const requestTimeout = 5 * time.Second

	if cfg.System.IsSplit() {
		return startSplitCluster(cfg, batchSize, requestTimeout)
	}
	return startPBFTCluster(cfg, batchSize, requestTimeout)
}

func startSplitCluster(cfg RunConfig, batchSize int, requestTimeout time.Duration) (*clusterHandle, error) {
	cost := splitbft.DefaultCostModel()
	if cfg.System == SplitKVSSimulation {
		cost = splitbft.SimulationCostModel()
	}
	if cfg.CostOverride != nil {
		cost = *cfg.CostOverride
	}
	opts := []splitbft.Option{
		splitbft.WithNetworkSeed(42),
		splitbft.WithApp(func() splitbft.Application { return buildApp(cfg.System) }),
		splitbft.WithConfidential(),
		splitbft.WithCostModel(cost),
		splitbft.WithBatchSize(batchSize),
		splitbft.WithRequestTimeout(requestTimeout),
	}
	if cfg.System == SplitKVSSingleThread {
		opts = append(opts, splitbft.WithSingleThread())
	}
	if cfg.ReadLeases {
		opts = append(opts, splitbft.WithReadLeases(true))
	}
	if cfg.Trace {
		opts = append(opts, splitbft.WithObservability())
	}
	if cfg.AgreementAuth != "" {
		opts = append(opts, splitbft.WithAgreementAuth(cfg.AgreementAuth))
	}
	n := benchN
	if cfg.ConsensusMode != "" {
		opts = append(opts, splitbft.WithConsensusMode(cfg.ConsensusMode))
		if cfg.ConsensusMode == "trusted" {
			n = 2*benchF + 1
		}
	}
	cluster, err := splitbft.NewCluster(n, opts...)
	if err != nil {
		return nil, fmt.Errorf("bench: cluster: %w", err)
	}
	h := &clusterHandle{splitNodes: cluster.Nodes(), shutdown: cluster.Close}
	clients := make([]*splitbft.Client, 0, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		cl, err := cluster.NewClient(uint32(1000+c),
			splitbft.WithRetransmitInterval(2*time.Second),
			splitbft.WithInvokeTimeout(30*time.Second))
		if err != nil {
			h.close()
			return nil, err
		}
		clients = append(clients, cl)
		h.clients = append(h.clients, cl)
	}
	// Attest concurrently: with 150 clients the handshakes are the setup
	// bottleneck otherwise.
	var wg sync.WaitGroup
	errCh := make(chan error, len(clients))
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *splitbft.Client) {
			defer wg.Done()
			if err := cl.Attest(); err != nil {
				errCh <- err
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		h.close()
		return nil, fmt.Errorf("bench: attestation: %w", err)
	}
	return h, nil
}

func startPBFTCluster(cfg RunConfig, batchSize int, requestTimeout time.Duration) (*clusterHandle, error) {
	net := transport.NewSimNet(42)
	reg := crypto.NewRegistry()
	var replicas []*pbft.Replica
	h := &clusterHandle{}
	h.shutdown = func() {
		for _, cl := range h.clients {
			cl.Close()
		}
		for _, r := range replicas {
			r.Stop()
		}
		net.Close()
	}

	keys := make([]*crypto.KeyPair, benchN)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		reg.Register(pbft.ReplicaIdentity(uint32(i)), keys[i].Public)
	}
	for i := 0; i < benchN; i++ {
		rcfg := pbft.Config{
			N: benchN, F: benchF, ID: uint32(i),
			Key:            keys[i],
			Registry:       reg,
			MACs:           crypto.NewMACStore(benchSecret, pbft.ReplicaIdentity(uint32(i))),
			App:            buildApp(cfg.System),
			BatchSize:      batchSize,
			BatchTimeout:   splitbft.DefaultBatchTimeout,
			RequestTimeout: requestTimeout,
		}
		r, err := pbft.NewReplica(rcfg)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("bench: replica %d: %w", i, err)
		}
		conn, err := net.Join(transport.ReplicaEndpoint(uint32(i)), r.Handler())
		if err != nil {
			h.close()
			return nil, err
		}
		r.Start(conn)
		replicas = append(replicas, r)
	}

	for c := 0; c < cfg.Clients; c++ {
		id := uint32(1000 + c)
		cl, err := client.New(client.Config{
			ID: id, N: benchN, F: benchF,
			MACs:               crypto.NewMACStore(benchSecret, crypto.Identity{ReplicaID: id, Role: crypto.RoleClient}),
			AuthReceivers:      pbft.BaselineAuthReceivers(benchN),
			ReplyRole:          crypto.RoleReplica,
			RetransmitInterval: 2 * time.Second,
			Timeout:            30 * time.Second,
		})
		if err != nil {
			h.close()
			return nil, err
		}
		conn, err := net.Join(transport.ClientEndpoint(id), cl.Handler())
		if err != nil {
			h.close()
			return nil, err
		}
		cl.Start(conn)
		h.clients = append(h.clients, cl)
	}
	return h, nil
}
