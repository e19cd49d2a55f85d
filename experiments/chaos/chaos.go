package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/splitbft/splitbft"
	"github.com/splitbft/splitbft/internal/app"
	"github.com/splitbft/splitbft/internal/crypto"
	"github.com/splitbft/splitbft/internal/obs"
	"github.com/splitbft/splitbft/internal/transport"
)

// Config parameterises one chaos run. Seed and Plan fully determine the
// fault schedule; the workload itself is concurrent (its interleaving is
// not replayed), which is why violations carry the full frontier history
// and the live plan step rather than relying on re-execution alone.
type Config struct {
	// Seed drives the plan generator, the simulated network's per-link
	// fault randomness, and the workload's key selection.
	Seed int64
	// Plan names the fault schedule (see PlanNames).
	Plan string
	// Duration is the fault-schedule window; quiescence checks run after.
	Duration time.Duration
	// Consensus is the agreement mode: "classic" (3f+1) or "trusted"
	// (2f+1).
	Consensus string
	// Auth is the agreement authenticator: "sig" or "mac". Empty is the
	// consensus mode's default (sig in classic, mac in trusted).
	Auth string
	// ReadLeases enables the lease-anchored local-read fast path.
	ReadLeases bool
	// DataDir, when set, enables persistence rooted there: each node gets
	// DataDir/node<i> and crash-restarts recover from disk.
	DataDir string
	// Writers and Readers size the workload (defaults 2 and 2).
	Writers, Readers int
	// Registry, when set, receives chaos counters (actions, operations,
	// violations) alongside whatever the nodes export.
	Registry *obs.Registry
	// BreakInvariant, when positive, deliberately corrupts replica 0's
	// execution journal at that offset into the run — the test hook proving
	// the checkers catch a violated invariant (report must fail and name
	// the live step).
	BreakInvariant time.Duration
}

func (c *Config) fill() {
	if c.Plan == "" {
		c.Plan = "kitchen-sink"
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Consensus == "" {
		c.Consensus = "classic"
	}
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.Readers <= 0 {
		c.Readers = 2
	}
}

// Violation is one invariant breach: which invariant, which plan step was
// live, and the history fragment that convicts it.
type Violation struct {
	// Invariant is "ledger-prefix", "linearizability", "exactly-once" or
	// "harness" (fault actions that themselves failed).
	Invariant string
	// Step is the rendered plan action that was live when the violation
	// surfaced, StepIndex its position ( -1 before the first action).
	Step      string
	StepIndex int
	// Detail describes the breach.
	Detail string
	// History is the per-key frontier state at detection time.
	History []string
}

// maxViolations caps how many violations one run records; a systemic
// breach would otherwise flood the report with echoes of itself.
const maxViolations = 32

// Report is the outcome of a chaos run. Replay the fault schedule by
// re-running with the same Config (seed, plan, duration, cluster shape).
type Report struct {
	Seed       int64
	Plan       string
	N, F       int
	Steps      []string
	Violations []Violation
	// Writes/Reads are completed workload operations; Resends the total
	// client retransmissions the schedule provoked.
	Writes, Reads, Resends uint64
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Dump renders the full replayable record: seed, schedule, violations.
func (r *Report) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos plan %q seed %d (n=%d f=%d): %d writes, %d reads, %d resends\n", r.Plan, r.Seed, r.N, r.F, r.Writes, r.Reads, r.Resends)
	b.WriteString("schedule:\n")
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "  [%d] %s\n", i, s)
	}
	if !r.Failed() {
		b.WriteString("invariants: all held\n")
		return b.String()
	}
	fmt.Fprintf(&b, "VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  invariant %s at step [%d] %s\n    %s\n", v.Invariant, v.StepIndex, v.Step, v.Detail)
		for _, h := range v.History {
			fmt.Fprintf(&b, "    history: %s\n", h)
		}
	}
	return b.String()
}

// harness is one live run: cluster, workload, checker state.
type harness struct {
	cfg     Config
	cluster *splitbft.Cluster
	n, f    int
	planLen int
	hist    *history

	mu         sync.Mutex
	stepIdx    int
	step       string
	violations []Violation
	down       map[int]bool
	oneWay     [][2]int

	settle  *splitbft.Client
	stop    chan struct{}
	writes  counter
	reads   counter
	actions *obs.Counter // nil without a registry
	viol    *obs.Counter
}

type counter struct {
	mu sync.Mutex
	v  uint64
}

func (c *counter) inc() {
	c.mu.Lock()
	c.v++
	c.mu.Unlock()
}

func (c *counter) value() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Run executes one chaos run to completion: build the cluster, start the
// workload, drive the fault plan with online invariant checks, then heal
// everything and verify quiescence. The returned error covers harness
// failures (bad config, cluster construction); invariant violations are in
// the Report, not the error.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	n, f := 4, 1
	if cfg.Consensus == "trusted" {
		n = 3
	}
	plan, err := BuildPlan(cfg.Plan, cfg.Seed, n, f, cfg.Duration)
	if err != nil {
		return nil, err
	}

	opts := []splitbft.Option{
		splitbft.WithConsensusMode(cfg.Consensus),
		splitbft.WithAgreementAuth(cfg.Auth),
		splitbft.WithReadLeases(cfg.ReadLeases),
		splitbft.WithRequestTimeout(300 * time.Millisecond),
		// Frequent checkpoints: restarted replicas close their outage gap
		// through the checkpoint/state-transfer path, and the workload is
		// small enough that the default interval might never be crossed.
		splitbft.WithCheckpointInterval(8),
		splitbft.WithNetworkSeed(cfg.Seed),
		splitbft.WithApp(func() splitbft.Application { return NewLedgerApp() }),
		splitbft.WithInvokeTimeout(cfg.Duration + 30*time.Second),
	}
	if cfg.DataDir != "" {
		// Persistence needs stable enclave keys across restarts; derive
		// them from the run's seed so replays unseal identically.
		opts = append(opts,
			splitbft.WithPersistence(cfg.DataDir),
			splitbft.WithKeySeed([]byte(fmt.Sprintf("chaos-keyseed-%d", cfg.Seed))))
	}
	cluster, err := splitbft.NewCluster(n, opts...)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	h := &harness{
		cfg:     cfg,
		cluster: cluster,
		n:       n,
		f:       f,
		planLen: len(plan),
		hist:    newHistory(),
		stepIdx: -1,
		step:    "(before schedule)",
		down:    make(map[int]bool),
		stop:    make(chan struct{}),
	}
	if cfg.Registry != nil {
		h.actions = cfg.Registry.Counter("chaos_actions_total")
		h.viol = cfg.Registry.Counter("chaos_violations_total")
	}

	report := &Report{Seed: cfg.Seed, Plan: cfg.Plan, N: n, F: f}
	for _, a := range plan {
		report.Steps = append(report.Steps, a.String())
	}

	// The settle client drives traffic during the quiescence convergence
	// wait: replicas that were down catch up via checkpoints, and
	// checkpoints need the sequence space to keep advancing.
	if h.settle, err = cluster.NewClient(99, splitbft.WithInvokeTimeout(2*time.Second)); err != nil {
		return nil, err
	}

	// Workload: one client per writer and per reader. Writer i owns key
	// chaos-w<i> exclusively; readers sample those keys.
	var wg sync.WaitGroup
	writers := make([]*splitbft.Client, cfg.Writers)
	for i := range writers {
		cl, err := cluster.NewClient(uint32(100 + i))
		if err != nil {
			return nil, err
		}
		writers[i] = cl
		wg.Add(1)
		go h.writer(&wg, cl, i)
	}
	for i := 0; i < cfg.Readers; i++ {
		cl, err := cluster.NewClient(uint32(200 + i))
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go h.reader(&wg, cl, int64(i))
	}

	h.drive(plan)

	// Heal before waiting: writers stranded by a partition sit inside
	// Invoke until their requests can commit again.
	close(h.stop)
	h.healAll()
	wg.Wait()
	h.verifyQuiescence()

	h.mu.Lock()
	report.Violations = h.violations
	h.mu.Unlock()
	report.Writes = h.writes.value()
	report.Reads = h.reads.value()
	for _, cl := range writers {
		report.Resends += cl.Resends()
	}
	return report, nil
}

func writerKey(i int) string { return fmt.Sprintf("chaos-w%d", i) }

// writer drives key chaos-w<i> as a single-writer monotonic register: one
// outstanding write, each value retried (with fresh op bytes, so protocol
// retries and client retries stay distinguishable to the exactly-once
// checker) until acknowledged before the next value starts.
func (h *harness) writer(wg *sync.WaitGroup, cl *splitbft.Client, i int) {
	defer wg.Done()
	key := writerKey(i)
	var v uint64
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		v++
		h.hist.writeInvoked(key, v)
		for attempt := 0; ; attempt++ {
			_, err := cl.Invoke(app.EncodePut(key, []byte(fmt.Sprintf("%d.%d", v, attempt))))
			if err == nil {
				break
			}
			select {
			case <-h.stop:
				// The value stays un-acknowledged; the quiescence check
				// only requires acknowledged writes to survive.
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
		h.hist.writeAcked(key, v)
		h.writes.inc()
		select {
		case <-h.stop:
			return
		case <-time.After(15 * time.Millisecond):
		}
	}
}

// parseValue decodes a register value ("<v>.<attempt>"); absent keys read
// as 0.
func parseValue(raw []byte) (uint64, error) {
	s := string(raw)
	if s == "" || s == "NOTFOUND" {
		// The KVS answers reads of absent keys with a NOTFOUND sentinel;
		// for a monotonic register that reads as "nothing written yet".
		return 0, nil
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[:i]
	}
	return strconv.ParseUint(s, 10, 64)
}

// reader issues linearizable reads over the writer keys and feeds every
// completed read to the online checker. Key choice rotates deterministically
// per reader; failed reads (timeouts during partitions) are fine — only
// completed reads make linearizability claims.
func (h *harness) reader(wg *sync.WaitGroup, cl *splitbft.Client, salt int64) {
	defer wg.Done()
	for turn := salt; ; turn++ {
		select {
		case <-h.stop:
			return
		default:
		}
		key := writerKey(int(turn) % h.cfg.Writers)
		start := time.Now()
		raw, err := cl.InvokeRead(app.EncodeGet(key))
		if err == nil {
			v, perr := parseValue(raw)
			if perr != nil {
				h.violate("linearizability", fmt.Sprintf("read %q returned unparseable value %q: %v", key, raw, perr))
			} else if msg := h.hist.readDone(key, start, v); msg != nil {
				h.violate("linearizability", *msg)
			}
			h.reads.inc()
		}
		select {
		case <-h.stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// violate records one invariant breach with the live plan step and the
// frontier history.
func (h *harness) violate(invariant, detail string) {
	if h.viol != nil {
		h.viol.Inc()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.violations) >= maxViolations {
		return
	}
	h.violations = append(h.violations, Violation{
		Invariant: invariant,
		Step:      h.step,
		StepIndex: h.stepIdx,
		Detail:    detail,
		History:   h.hist.summary(),
	})
}

// violated reports whether a violation of invariant has been recorded.
func (h *harness) violated(invariant string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.ContainsFunc(h.violations, func(v Violation) bool { return v.Invariant == invariant })
}

// drive executes the plan: a single goroutine applies due actions and runs
// the periodic ledger checks, so fault application, restarts and journal
// inspection never race each other.
func (h *harness) drive(plan []Action) {
	start := time.Now()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	next := 0
	broke := false
	lastCheck := start
	for {
		now := <-tick.C
		elapsed := now.Sub(start)
		for next < len(plan) && plan[next].At <= elapsed {
			a := plan[next]
			h.mu.Lock()
			h.stepIdx, h.step = next, a.String()
			h.mu.Unlock()
			h.apply(a)
			if h.actions != nil {
				h.actions.Inc()
			}
			next++
		}
		if h.cfg.BreakInvariant > 0 && !broke && elapsed >= h.cfg.BreakInvariant {
			broke = true
			if la, ok := h.cluster.Node(0).App().(*LedgerApp); ok && !h.isDown(0) {
				la.Sabotage()
			}
		}
		if now.Sub(lastCheck) >= 200*time.Millisecond {
			lastCheck = now
			h.checkLedgers()
		}
		if elapsed >= h.cfg.Duration {
			return
		}
	}
}

func (h *harness) isDown(i int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down[i]
}

func (h *harness) setDown(i int, d bool) {
	h.mu.Lock()
	h.down[i] = d
	h.mu.Unlock()
}

// apply executes one plan action against the cluster.
func (h *harness) apply(a Action) {
	c := h.cluster
	switch a.Op {
	case OpPartition:
		if a.StrandClient {
			c.PartitionWithClients([]uint32{100}, a.Nodes...)
		} else {
			c.Partition(a.Nodes...)
		}
	case OpHeal:
		c.Heal()
	case OpCrash:
		c.CrashNode(a.Node)
		h.setDown(a.Node, true)
	case OpRestart:
		if err := c.RestartNode(a.Node); err != nil {
			h.violate("harness", fmt.Sprintf("restart node %d: %v", a.Node, err))
			return
		}
		h.setDown(a.Node, false)
	case OpCrashEnclave:
		if !h.isDown(a.Node) {
			c.Node(a.Node).CrashEnclave(roleFromString(a.Role))
		}
	case OpGlobalFaults:
		c.SetNetFaults(splitbft.NetFaults{DropProb: a.Drop, DupProb: a.Dup, ReorderProb: a.Reorder, Delay: a.Delay, Jitter: a.Jitter})
	case OpLinkFaults:
		c.Net().SetLinkFaults(transport.ReplicaEndpoint(uint32(a.Node)), transport.ReplicaEndpoint(uint32(a.Node2)),
			transport.Faults{DropProb: a.Drop, DupProb: a.Dup, ReorderProb: a.Reorder, Delay: a.Delay, Jitter: a.Jitter})
	case OpBlockOneWay:
		c.Net().BlockOneWay(transport.ReplicaEndpoint(uint32(a.Node)), transport.ReplicaEndpoint(uint32(a.Node2)))
		h.mu.Lock()
		h.oneWay = append(h.oneWay, [2]int{a.Node, a.Node2})
		h.mu.Unlock()
	case OpClearNet:
		h.clearNet()
	case OpSkew:
		c.Node(a.Node).SetClockSkew(a.Dur)
	case OpDiskStall:
		c.Node(a.Node).DiskFaults().Stall(a.Dur)
	case OpDiskFail:
		c.Node(a.Node).DiskFaults().FailWrites(fmt.Errorf("chaos: injected write error"))
	case OpDiskClear:
		c.Node(a.Node).DiskFaults().Clear()
	default:
		h.violate("harness", fmt.Sprintf("unknown plan op %q", a.Op))
	}
}

// clearNet removes probabilistic faults and one-way blocks (partitions are
// healed separately, through Heal, which owns that bookkeeping).
func (h *harness) clearNet() {
	h.cluster.ClearNetFaults()
	h.mu.Lock()
	blocks := h.oneWay
	h.oneWay = nil
	h.mu.Unlock()
	for _, b := range blocks {
		h.cluster.Net().UnblockOneWay(transport.ReplicaEndpoint(uint32(b[0])), transport.ReplicaEndpoint(uint32(b[1])))
	}
}

func roleFromString(s string) splitbft.Role {
	switch s {
	case "confirmation":
		return splitbft.RoleConfirmation
	case "execution":
		return splitbft.RoleExecution
	default:
		return splitbft.RolePreparation
	}
}

// ledger returns node i's journaled application, nil while the node is
// down.
func (h *harness) ledger(i int) *LedgerApp {
	if h.isDown(i) {
		return nil
	}
	la, _ := h.cluster.Node(i).App().(*LedgerApp)
	return la
}

// checkLedgers verifies ledger-prefix parity and exactly-once apply across
// every live replica pair. Heads are sampled per replica and compared as
// prefixes, so concurrent execution never yields a false positive: in a
// correct run any two journal states are prefix-ordered regardless of when
// each was sampled.
func (h *harness) checkLedgers() {
	type head struct {
		node  int
		app   *LedgerApp
		count uint64
		chain crypto.Digest
	}
	var heads []head
	for i := 0; i < h.n; i++ {
		la := h.ledger(i)
		if la == nil {
			continue
		}
		if d := la.Duplicate(); d != "" {
			h.violate("exactly-once", fmt.Sprintf("node %d: %s", i, d))
		}
		cnt, chain := la.Head()
		heads = append(heads, head{node: i, app: la, count: cnt, chain: chain})
	}
	for i := 0; i < len(heads); i++ {
		for j := i + 1; j < len(heads); j++ {
			lo, hi := heads[i], heads[j]
			if lo.count > hi.count {
				lo, hi = hi, lo
			}
			if lo.count == hi.count {
				if lo.chain != hi.chain {
					h.violate("ledger-prefix", fmt.Sprintf("nodes %d and %d diverge at count %d: %x vs %x\n    node %d ops: %v\n    node %d ops: %v",
						lo.node, hi.node, lo.count, lo.chain[:8], hi.chain[:8],
						lo.node, lo.app.OpsAround(lo.count, 4), hi.node, hi.app.OpsAround(lo.count, 4)))
				}
				continue
			}
			// hi must contain lo's head as a prefix — if it still retains
			// that point (a freshly restored replica may not; skip then).
			if at, ok := hi.app.ChainAt(lo.count); ok && at != lo.chain {
				h.violate("ledger-prefix", fmt.Sprintf("node %d's journal at count %d (%x) is not a prefix of node %d's (%x)\n    node %d ops: %v\n    node %d ops: %v",
					lo.node, lo.count, lo.chain[:8], hi.node, at[:8],
					lo.node, lo.app.OpsAround(lo.count, 4), hi.node, hi.app.OpsAround(lo.count, 4)))
			}
		}
	}
}

// healAll clears every outstanding fault and restarts anything down,
// returning the cluster to a fault-free steady state.
func (h *harness) healAll() {
	h.mu.Lock()
	h.stepIdx, h.step = h.planLen, "(quiescence)"
	h.mu.Unlock()

	h.cluster.Heal()
	h.clearNet()
	for i := 0; i < h.n; i++ {
		h.cluster.Node(i).SetClockSkew(0)
		h.cluster.Node(i).DiskFaults().Clear()
		if h.isDown(i) {
			if err := h.cluster.RestartNode(i); err != nil {
				h.violate("harness", fmt.Sprintf("quiescence restart node %d: %v", i, err))
				continue
			}
			h.setDown(i, false)
		}
	}
}

// verifyQuiescence checks the end state once the workload has drained:
// journals converge to one head, every acknowledged write is readable, and
// no replica double-applied.
func (h *harness) verifyQuiescence() {
	// Journal convergence: all replicas reach one identical head. Settle
	// writes keep the sequence space advancing so laggards cross a
	// checkpoint boundary and state-transfer the gap; once they stop the
	// journals are stable. A diverged journal already failed the run and
	// convergence cannot clear it, so the wait ends there.
	deadline := time.Now().Add(30 * time.Second)
	settleSeq := 0
	for {
		settleSeq++
		_, _ = h.settle.Invoke(app.EncodePut("chaos-settle", []byte(strconv.Itoa(settleSeq))))
		h.checkLedgers()
		if h.violated("ledger-prefix") {
			break
		}
		counts := make(map[uint64]int)
		var minC, maxC uint64
		first := true
		for i := 0; i < h.n; i++ {
			if la := h.ledger(i); la != nil {
				c, _ := la.Head()
				counts[c]++
				if first || c < minC {
					minC = c
				}
				if first || c > maxC {
					maxC = c
				}
				first = false
			}
		}
		if len(counts) == 1 && !first {
			break
		}
		if time.Now().After(deadline) {
			h.violate("ledger-prefix", fmt.Sprintf("quiescence: journals did not converge within 30s (heads %d..%d)", minC, maxC))
			return
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Every acknowledged write survived: read each register off replica
	// 0's final state and run it through the same read checker.
	la := h.ledger(0)
	if la == nil {
		return
	}
	now := time.Now()
	for i := 0; i < h.cfg.Writers; i++ {
		key := writerKey(i)
		raw, _ := la.Get(key)
		v, err := parseValue(raw)
		if err != nil {
			h.violate("linearizability", fmt.Sprintf("final state of %q unparseable: %q", key, raw))
			continue
		}
		if msg := h.hist.readDone(key, now, v); msg != nil {
			h.violate("linearizability", "final state: "+*msg)
		}
	}
}
