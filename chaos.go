package splitbft

import (
	"time"

	"github.com/splitbft/splitbft/internal/store"
	"github.com/splitbft/splitbft/internal/transport"
)

// This file is the facade's chaos fault-injection surface: the handles the
// experiments/chaos harness (and tests) drive to inject network, disk and
// clock faults into a live cluster. Everything here injects faults the
// protocol claims to tolerate — safety must hold through any combination;
// only availability may suffer.

// NetFaults configures probabilistic message faults on the simulated
// network: drop, duplication, reordering (bounded by Jitter) and delay.
type NetFaults = transport.Faults

// DiskFaults is the per-node disk fault injector: write errors and fsync
// errors trip the store's sticky-failure barrier (the node's compartments
// go mute rather than equivocate), a stall models a degraded device.
type DiskFaults = store.FaultInjector

// SetClockSkew offsets this node's lease clock by d (negative d runs the
// clock slow). Only the lease-safety paths — grant freshness, holder-side
// validity, the new-primary write fence — read the skewed clock; the lease
// design budgets TTL/8 for skew, and chaos plans probe that bound. The
// skew survives Restart, like a machine whose system clock is simply
// wrong.
func (n *Node) SetClockSkew(d time.Duration) { n.clock.SetSkew(d) }

// DiskFaults returns the node's disk fault injector, shared by all three
// compartment durability stores (inert without WithPersistence). Injected
// write/fsync errors are sticky per store — like a real device error, only
// a restart (which reopens the stores) brings the node's log back.
func (n *Node) DiskFaults() *DiskFaults { return n.disk }

// Resends returns how many times this client retransmitted a write — the
// observable surface of the client's retransmit backoff.
func (c *Client) Resends() uint64 { return c.inner.Resends() }

// Net returns the cluster's simulated network — the low-level chaos
// handle for per-link fault configuration and asymmetric partitions
// (Cluster.Partition and friends cover the common symmetric cases).
func (c *Cluster) Net() *transport.SimNet { return c.net }

// SetNetFaults installs a global fault configuration on every link of the
// cluster's network (per-link overrides installed via Net() still win).
func (c *Cluster) SetNetFaults(f NetFaults) { c.net.SetFaults(f) }

// ClearNetFaults removes the global fault configuration and every
// per-link override.
func (c *Cluster) ClearNetFaults() {
	c.net.SetFaults(NetFaults{})
	c.net.ClearAllLinkFaults()
}

// PartitionWithClients cuts the listed replicas off from the rest of the
// deployment exactly like Partition, except that the named clients are
// stranded *inside* the partition with the listed replicas: their links to
// the listed side stay up and their links to the majority side are cut.
// It models a client that went down with its nearest replicas — with
// fewer than 2f+1 reachable replicas its writes cannot commit until Heal.
func (c *Cluster) PartitionWithClients(clientIDs []uint32, ids ...int) {
	in := make(map[int]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	stranded := make(map[uint32]bool, len(clientIDs))
	for _, id := range clientIDs {
		stranded[id] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	block := func(a, b transport.Endpoint) {
		c.net.Block(a, b)
		c.cut = append(c.cut, [2]transport.Endpoint{a, b})
	}
	for _, id := range ids {
		ep := transport.ReplicaEndpoint(uint32(id))
		for other := 0; other < c.n; other++ {
			if !in[other] {
				block(ep, transport.ReplicaEndpoint(uint32(other)))
			}
		}
		// Majority-side clients lose the listed replicas, as in Partition.
		for _, cl := range c.clients {
			if !stranded[cl.ID()] {
				block(ep, transport.ClientEndpoint(cl.ID()))
			}
		}
	}
	// Stranded clients lose the majority side instead.
	for clID := range stranded {
		cep := transport.ClientEndpoint(clID)
		for other := 0; other < c.n; other++ {
			if !in[other] {
				block(cep, transport.ReplicaEndpoint(uint32(other)))
			}
		}
	}
}
