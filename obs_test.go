package splitbft_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/splitbft/splitbft"
)

// metricValue scans the node's gathered samples for an exact series name
// (including any rendered labels) and returns its value.
func metricValue(t *testing.T, n *splitbft.Node, name string) (float64, bool) {
	t.Helper()
	for _, m := range n.Metrics() {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// scrape fetches one introspection endpoint and returns body and status.
func scrape(t *testing.T, addr, path string) (string, int) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return "", 0
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s%s read: %v", addr, path, err)
	}
	return string(b), resp.StatusCode
}

// tracedSpan mirrors the /debug/trace JSON span shape.
type tracedSpan struct {
	Client uint32           `json:"client"`
	TS     uint64           `json:"ts"`
	Seq    uint64           `json:"seq"`
	Read   bool             `json:"read"`
	Stages map[string]int64 `json:"stages"`
}

// writeChain is every stage a committed write must traverse on the replica
// that proposed it (the primary): classify on arrival, enqueue into the
// Preparation ecall, the agreement stamps, execution, and the reply send.
var writeChain = []string{"classify", "enqueue", "preprepare", "prepare-cert", "commit", "execute", "reply"}

func completeWriteSpans(t *testing.T, addr string) []tracedSpan {
	t.Helper()
	body, code := scrape(t, addr, "/debug/trace?limit=1024")
	if code != http.StatusOK {
		return nil
	}
	var out struct {
		Spans []tracedSpan `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("trace body not JSON: %v\n%s", err, body)
	}
	var complete []tracedSpan
	for _, sp := range out.Spans {
		if sp.Read {
			continue
		}
		ok := true
		for _, st := range writeChain {
			if _, stamped := sp.Stages[st]; !stamped {
				ok = false
				break
			}
		}
		if ok {
			complete = append(complete, sp)
		}
	}
	return complete
}

// TestTraceSpanChainCompleteness drives committed writes through an
// observability-enabled cluster and requires every one of them to surface
// on the primary as a finished span stamped at all seven write stages.
func TestTraceSpanChainCompleteness(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithObservability(),
		splitbft.WithMetricsAddr("127.0.0.1:0"),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(41),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 15
	for i := 0; i < ops; i++ {
		if _, err := cl.Put("trace-key", []byte{byte(i)}); err != nil {
			t.Fatalf("PUT %d: %v", i, err)
		}
	}

	addr := cluster.Node(0).MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with WithMetricsAddr set")
	}
	// The reply is sent before the span's Finish is necessarily visible to
	// a concurrent scrape, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	var complete []tracedSpan
	for time.Now().Before(deadline) {
		if complete = completeWriteSpans(t, addr); len(complete) >= ops {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(complete) < ops {
		body, _ := scrape(t, addr, "/debug/trace?limit=1024")
		t.Fatalf("only %d/%d committed writes produced complete span chains; ring:\n%s",
			len(complete), ops, body)
	}

	// The per-stage summary the bench tables print must cover the chain too.
	stages := cluster.Node(0).StageLatencies()
	names := make(map[string]bool, len(stages))
	for _, s := range stages {
		names[s.Stage] = true
		if s.Count == 0 || s.Max <= 0 {
			t.Fatalf("stage %q has empty summary: %+v", s.Stage, s)
		}
	}
	for _, want := range append(append([]string{}, writeChain[1:]...), "end-to-end") {
		if !names[want] {
			t.Fatalf("stage summary missing %q: %v", want, stages)
		}
	}
}

// TestMetricsEndpointScrapeCluster checks the Prometheus rendering of a
// live cluster: protocol counters present, per-compartment labels on the
// enclave series, and the Go facade agreeing with the scrape.
func TestMetricsEndpointScrapeCluster(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithObservability(),
		splitbft.WithMetricsAddr("127.0.0.1:0"),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Put("scrape-key", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A Put returns on f+1 matching replies, so the scraped node may still
	// be executing the last one.
	for deadline := time.Now().Add(5 * time.Second); cluster.Node(0).ExecutedOps() < 5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	body, code := scrape(t, cluster.Node(0).MetricsAddr(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		"splitbft_executed_ops_total",
		"splitbft_batches_total",
		`splitbft_ecalls_total{compartment="preparation"}`,
		`splitbft_ecalls_total{compartment="confirmation"}`,
		`splitbft_ecalls_total{compartment="execution"}`,
		`splitbft_sig_verifies_total{compartment="preparation"}`,
		"splitbft_view_changes_total",
		"splitbft_dedup_drops_total",
		`splitbft_stage_spans_total{stage="end-to-end"}`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %s:\n%s", series, body)
		}
	}

	if v, ok := metricValue(t, cluster.Node(0), "splitbft_executed_ops_total"); !ok || v < 5 {
		t.Fatalf("executed_ops sample = %v (present=%v), want >= 5", v, ok)
	}
	if got := float64(cluster.Node(0).ExecutedOps()); got < 5 {
		t.Fatalf("ExecutedOps = %v, want >= 5", got)
	}
}

// TestMetricsWALSyncSeconds: the time a replica's stores spend in their
// flushes is exported beside the fsync count, per compartment, and
// advances with every barrier.
func TestMetricsWALSyncSeconds(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithKeySeed([]byte("wal-sync-metric")),
		splitbft.WithPersistence(t.TempDir()),
		splitbft.WithObservability(),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(44),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cl, err := cluster.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	const series = `splitbft_wal_sync_seconds_total{compartment="preparation"}`
	var last float64
	for i := 0; i < 2; i++ {
		if _, err := cl.Put("wal-key", []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		// The primary's Preparation flushed before its proposal left.
		v, ok := metricValue(t, cluster.Node(0), series)
		if !ok || v <= last {
			t.Fatalf("after Put %d: %s = %v (present=%v), was %v", i, series, v, ok, last)
		}
		last = v
	}
	if v, ok := metricValue(t, cluster.Node(0), `splitbft_wal_fsyncs_total{compartment="preparation"}`); !ok || v < 2 {
		t.Fatalf("splitbft_wal_fsyncs_total = %v (present=%v), want >= 2", v, ok)
	}
}

// TestTraceSpanChainAcrossViewChange forces a view change by partitioning
// the view-0 primary and requires the write that crossed the view change
// to surface as a complete span chain on the NEW primary — the span began
// there as a backup and must survive re-proposal under a new sequence.
func TestTraceSpanChainAcrossViewChange(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithObservability(),
		splitbft.WithMetricsAddr("127.0.0.1:0"),
		splitbft.WithBatchSize(1),
		splitbft.WithRequestTimeout(300*time.Millisecond),
		splitbft.WithNetworkSeed(43),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100, splitbft.WithInvokeTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("account", []byte("100")); err != nil {
		t.Fatalf("PUT: %v", err)
	}

	cluster.Partition(0) // cut the view-0 primary off
	if _, err := cl.Put("account", []byte("200")); err != nil {
		t.Fatalf("PUT across view change: %v", err)
	}
	waitForAgreement(t, cluster, []int{1, 2, 3})

	// Replica 1 is the view-1 primary: it proposed the re-transmitted
	// request, so its tracer must hold the complete chain.
	addr := cluster.Node(1).MetricsAddr()
	deadline := time.Now().Add(15 * time.Second)
	found := false
	for time.Now().Before(deadline) && !found {
		if len(completeWriteSpans(t, addr)) >= 1 {
			found = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !found {
		t.Fatal("no complete span chain on the new primary after the view change")
	}
	if v, ok := metricValue(t, cluster.Node(1), "splitbft_view_changes_total"); !ok || v < 1 {
		t.Fatalf("view_changes_total = %v (present=%v), want >= 1", v, ok)
	}

	cluster.Heal()
	if _, err := cl.Put("account", []byte("300")); err != nil {
		t.Fatalf("PUT after heal: %v", err)
	}
}

// TestHealthzFlipsOnCrashAndRestart exercises the liveness probe: healthy
// while the full cluster answers pings, 503 naming the crashed peer while
// one replica is down, healthy again after it restarts.
func TestHealthzFlipsOnCrashAndRestart(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithObservability(),
		splitbft.WithMetricsAddr("127.0.0.1:0"),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(44),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addr := cluster.Node(0).MetricsAddr()

	waitHealth := func(wantCode int, check func(body string) bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		var body string
		var code int
		for time.Now().Before(deadline) {
			body, code = scrape(t, addr, "/healthz")
			if code == wantCode && (check == nil || check(body)) {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		t.Fatalf("healthz stuck at %d, want %d; last body:\n%s", code, wantCode, body)
	}

	waitHealth(http.StatusOK, nil)

	cluster.CrashNode(3)
	waitHealth(http.StatusServiceUnavailable, func(body string) bool {
		var h struct {
			Healthy bool `json:"healthy"`
			Peers   []struct {
				ID        uint32 `json:"id"`
				Reachable bool   `json:"reachable"`
			} `json:"peers"`
		}
		if err := json.Unmarshal([]byte(body), &h); err != nil || h.Healthy {
			return false
		}
		for _, p := range h.Peers {
			if p.ID == 3 {
				return !p.Reachable
			}
		}
		return false
	})

	if err := cluster.RestartNode(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitHealth(http.StatusOK, nil)
}

// TestMetricResetStatsSingleEpoch pins the satellite fix: one ResetStats
// call zeroes every surface — enclave counters, protocol counters, and the
// tracer — so a measurement window can never mix epochs.
func TestMetricResetStatsSingleEpoch(t *testing.T) {
	cluster, err := splitbft.NewCluster(4,
		splitbft.WithObservability(),
		splitbft.WithBatchSize(1),
		splitbft.WithNetworkSeed(45),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	cl, err := cluster.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := cl.Put("epoch-key", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := cluster.Node(0)
	if n.ExecutedOps() == 0 {
		t.Fatal("no ops recorded before reset")
	}
	if len(n.StageLatencies()) == 0 {
		t.Fatal("no traced stages before reset")
	}
	// Put returns at a reply quorum: this node's own reply and the slowest
	// peer's Commit may still be in flight, and would land in the new epoch.
	// Reset only once the node's counters have stopped moving.
	activity := func() uint64 {
		sum := n.ExecutedOps()
		for _, es := range n.EnclaveStats() {
			sum += es.Msgs
		}
		return sum
	}
	settle := time.Now().Add(5 * time.Second)
	for last, quiet := activity(), 0; quiet < 5 && time.Now().Before(settle); {
		time.Sleep(10 * time.Millisecond)
		if now := activity(); now == last && n.ExecutedOps() == 4 {
			quiet++
		} else {
			last, quiet = now, 0
		}
	}

	n.ResetStats()

	if got := n.ExecutedOps(); got != 0 {
		t.Fatalf("ExecutedOps after reset = %d, want 0", got)
	}
	if v, ok := metricValue(t, n, "splitbft_executed_ops_total"); !ok || v != 0 {
		t.Fatalf("executed_ops sample after reset = %v (present=%v), want 0", v, ok)
	}
	if st := n.StageLatencies(); len(st) != 0 {
		t.Fatalf("stage latencies survived reset: %+v", st)
	}
	if es := n.EnclaveStats(); es[0].Count != 0 || es[1].Count != 0 || es[2].Count != 0 {
		t.Fatalf("enclave ecall counts survived reset: %+v", es)
	}

	// Without observability the same call must still reset the replica
	// surfaces, and the metrics facade reports nothing rather than lying.
	plain, err := splitbft.NewCluster(4, splitbft.WithBatchSize(1), splitbft.WithNetworkSeed(46))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	pcl, err := plain.NewClient(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pcl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	pn := plain.Node(0)
	if pn.Metrics() != nil {
		t.Fatal("Metrics() non-nil without observability")
	}
	if pn.MetricsAddr() != "" {
		t.Fatal("MetricsAddr() non-empty without observability")
	}
	pn.ResetStats()
	if got := pn.ExecutedOps(); got != 0 {
		t.Fatalf("plain ResetStats left ExecutedOps = %d", got)
	}
}

// TestMetricsTransportCountersOverTCP: a TCP node exports its outbound
// frame and socket-write counters beside the enclave series, so frames per
// write, writes per operation and messages per trusted-boundary crossing
// read from one scrape; the counters share the registry's reset epoch and
// come back after a restart, which builds a fresh transport.
func TestMetricsTransportCountersOverTCP(t *testing.T) {
	nodes, cl := startTrustedMACOverTCP(t, "tcp-metrics-seed", splitbft.WithObservability())
	for i := 0; i < 20; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// f+1 replies answer a Put, so a backup may still be catching up: wait
	// until every node has executed the burst, and with it sent its votes.
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range nodes {
		for n.ExecutedOps() < 20 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d executed %d of 20 operations", n.ID(), n.ExecutedOps())
			}
			time.Sleep(time.Millisecond)
		}
	}
	framesSent := func(n *splitbft.Node) float64 {
		t.Helper()
		v, ok := metricValue(t, n, "splitbft_transport_frames_sent_total")
		if !ok {
			t.Fatalf("node %d exports no transport counter", n.ID())
		}
		return v
	}
	for _, n := range nodes {
		if frames := framesSent(n); frames == 0 {
			t.Fatalf("node %d: no frame sent after 20 operations", n.ID())
		}
		if writes, ok := metricValue(t, n, "splitbft_transport_writes_total"); !ok || writes == 0 {
			t.Fatalf("node %d: %v socket writes after 20 operations (exported: %v)", n.ID(), writes, ok)
		}
		var msgs, ecalls float64
		for _, c := range []string{"preparation", "confirmation", "execution"} {
			// Each read is its own scrape while traffic still crosses, so
			// crossings are read first: every crossing delivers at least one
			// message, and a later scrape can only hold more of them.
			e, _ := metricValue(t, n, `splitbft_ecalls_total{compartment="`+c+`"}`)
			m, _ := metricValue(t, n, `splitbft_ecall_msgs_total{compartment="`+c+`"}`)
			msgs, ecalls = msgs+m, ecalls+e
		}
		if ecalls == 0 || msgs < ecalls {
			t.Fatalf("node %d: %v messages in %v crossings", n.ID(), msgs, ecalls)
		}
	}
	// The counter joins the registry's reset epoch. A straggling Commit may
	// still leave after a reset, so retry until it reads zero — a counter
	// that ignored the reset would only ever grow.
	backup := nodes[2]
	zeroed := false
	for try := 0; try < 100 && !zeroed; try++ {
		backup.ResetStats()
		if zeroed = framesSent(backup) == 0; !zeroed {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !zeroed {
		t.Fatal("transport counter survived ResetStats")
	}
	if err := backup.Restart(); err != nil {
		t.Fatal(err)
	}
	// The peers notice the dead connection on their first send after the
	// restart and redial on the next, so keep the group busy until the
	// restarted node has been reached and answered.
	deadline = time.Now().Add(10 * time.Second)
	for i := 0; framesSent(backup) == 0; i++ {
		if _, err := cl.Put(fmt.Sprintf("after-restart-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted node's fresh transport is not exported")
		}
	}
}
