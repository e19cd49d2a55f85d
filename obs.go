package splitbft

import (
	"time"

	"github.com/splitbft/splitbft/internal/messages"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/transport"
)

// Metric is one observability sample: a Prometheus-style series name —
// possibly carrying {key="value"} labels, e.g. a compartment — and its
// current value. Metrics snapshots are pull-style: the hot paths keep
// cheap atomic counters and the registry reads them only when asked.
type Metric struct {
	Name  string
	Value float64
}

// StageLatency is the latency profile of one request-lifecycle stage, as
// measured by the tracer between consecutive stamps at the untrusted
// compartment boundaries. The synthetic "end-to-end" (and, with leased
// reads, "end-to-end-read") rows span a request's first to last stamp.
type StageLatency struct {
	Stage string
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Metrics returns the node's current observability samples, sorted by
// series name. Nil without WithObservability.
func (n *Node) Metrics() []Metric {
	reg := n.observer.Registry()
	if reg == nil {
		return nil
	}
	samples := reg.Gather()
	out := make([]Metric, len(samples))
	for i, s := range samples {
		out[i] = Metric{Name: s.Name, Value: s.Value}
	}
	return out
}

// StageLatencies returns the per-stage latency breakdown of the traced
// requests since the last reset, in lifecycle order, stages that never
// completed omitted. Nil without WithObservability.
func (n *Node) StageLatencies() []StageLatency {
	tr := n.observer.Trace()
	if tr == nil {
		return nil
	}
	stats := tr.StageStats()
	out := make([]StageLatency, len(stats))
	for i, s := range stats {
		out[i] = StageLatency{Stage: s.Stage, Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99, Max: s.Max}
	}
	return out
}

// ResetStats zeroes every measurement surface of the node in one call:
// the per-compartment ecall, crypto and cache counters, the broker's
// message counters, the protocol-event counters, the metrics registry and
// the tracer. Use it to open a measurement window — resetting surfaces
// one by one (the pre-observability API) mixed measurement epochs,
// because counters zeroed at slightly different times disagreed about
// when the window began. Works with or without WithObservability.
func (n *Node) ResetStats() {
	if reg := n.observer.Registry(); reg != nil {
		// Reset zeroes the registry's own instruments and then runs the
		// replica's reset hook, which clears every underlying source —
		// one atomic epoch boundary for all surfaces.
		reg.Reset()
		return
	}
	n.replica.ResetAllStats()
}

// observeTransport publishes a TCP transport's outbound frame and socket
// write counters beside the enclave series: writes per operation is the
// per-node syscall count of the untrusted hot path, and frames per write
// the length of the runs the broker hands the transport.
// Registered at Start because every (re)start builds a fresh transport
// after the replica's collectors were dropped; the counters join the
// registry's reset epoch. No-op without WithObservability; in-process nodes
// have no sockets and export no transport series.
func (n *Node) observeTransport(tcp *transport.TCPNode) {
	reg := n.observer.Registry()
	reg.Collect(func(emit func(name string, value float64)) {
		emit("splitbft_transport_frames_sent_total", float64(tcp.FramesSent()))
		emit("splitbft_transport_writes_total", float64(tcp.WritesTotal()))
	})
	reg.OnReset(tcp.ResetStats)
}

// MetricsAddr returns the bound address of the HTTP introspection
// endpoint ("" when WithMetricsAddr was not given or the node is not
// started) — useful with ":0", which picks a free port.
func (n *Node) MetricsAddr() string {
	if n.metrics == nil {
		return ""
	}
	return n.metrics.Addr()
}

// nodeSource adapts a Node to the introspection server's Source interface
// without exposing internal observability types on the public Node API.
type nodeSource struct{ n *Node }

func (s nodeSource) Gather() []obs.Sample {
	return s.n.observer.Registry().Gather()
}

func (s nodeSource) StageStats() []obs.StageStat {
	return s.n.observer.Trace().StageStats()
}

func (s nodeSource) Spans(limit int) []obs.Span {
	return s.n.observer.Trace().Spans(limit)
}

func (s nodeSource) TraceEpoch() time.Time {
	return s.n.observer.Trace().Epoch()
}

// Health assembles the /healthz view: compartment liveness and WAL state
// come from the replica; peer reachability from an active connectivity
// probe — a single out-of-band byte sent to every peer endpoint, dropped
// by the receiver's classify stage. A send the transport refuses (dead
// TCP connection and failed redial, departed in-process endpoint) marks
// the peer unreachable.
func (s nodeSource) Health() obs.Health {
	n := s.n
	h := obs.Health{Healthy: true, Compartments: make(map[string]bool, 3)}
	for name, alive := range n.replica.EnclavesAlive() {
		h.Compartments[name] = alive
		if !alive {
			h.Healthy = false
		}
	}
	switch err := n.replica.WALError(); {
	case n.opts.persistDir == "":
		h.WAL = "off"
	case err != nil:
		h.WAL = err.Error()
		h.Healthy = false
	default:
		h.WAL = "ok"
	}
	conn := n.conn
	// A transport that can answer reachability directly (the simulated
	// network knows its blocked links) beats the send-probe: a partition
	// swallows sends without an error, so send success alone would report
	// a partitioned peer as healthy.
	prober, _ := conn.(interface{ Reachable(transport.Endpoint) bool })
	for id := 0; id < n.opts.n; id++ {
		if uint32(id) == n.id {
			continue
		}
		reachable := false
		switch {
		case prober != nil:
			reachable = prober.Reachable(transport.ReplicaEndpoint(uint32(id)))
		case conn != nil:
			reachable = conn.Send(transport.ReplicaEndpoint(uint32(id)), []byte{messages.ProbePing}) == nil
		}
		h.Peers = append(h.Peers, obs.PeerHealth{ID: uint32(id), Reachable: reachable})
		if !reachable {
			h.Healthy = false
		}
	}
	return h
}

// startMetrics binds the introspection endpoint if WithMetricsAddr was
// given; called from Start after the transport is up.
func (n *Node) startMetrics() error {
	if n.opts.metricsAddr == "" || n.metrics != nil {
		return nil
	}
	srv := obs.NewServer(n.opts.metricsAddr, nodeSource{n})
	if err := srv.Start(); err != nil {
		return err
	}
	n.metrics = srv
	return nil
}

// stopMetrics tears the introspection endpoint down; called from Stop and
// Crash before the transport detaches so no handler scrapes a dead node.
func (n *Node) stopMetrics() {
	if n.metrics != nil {
		n.metrics.Close()
		n.metrics = nil
	}
}
