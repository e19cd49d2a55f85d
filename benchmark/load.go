package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/splitbft/splitbft"
)

// invoker is the part of a client the load uses; the SplitBFT facade
// client and the PBFT reference's internal client both provide it.
type invoker interface {
	Invoke(op []byte) ([]byte, error)
	InvokeRead(op []byte) ([]byte, error)
}

// keyspace is the replicated data the correctness gate reasons about:
// every key has exactly one writer, which issues strictly increasing
// versions, so a read is checkable against the last acknowledged version
// without a general linearizability checker.
type keyspace struct {
	names     []string
	valueSize int
	sent      []uint64        // last version issued; written by the owner only
	acked     []atomic.Uint64 // last version acknowledged
	// lastAck is the most recent acknowledged write, key<<32 | version; the
	// recovery pass waits for it on the restarted node.
	lastAck atomic.Uint64
}

func newKeyspace(w workload) *keyspace {
	ks := &keyspace{
		names:     make([]string, w.keys),
		valueSize: w.valueSize,
		sent:      make([]uint64, w.keys),
		acked:     make([]atomic.Uint64, w.keys),
	}
	for k := range ks.names {
		ks.names[k] = fmt.Sprintf("key-%04d", k)
	}
	return ks
}

// value is key k at version v: both are embedded so any reply can be
// checked on its own; the rest is filler up to the workload's value size.
func (ks *keyspace) value(k int, v uint64) []byte {
	b := make([]byte, ks.valueSize)
	binary.BigEndian.PutUint64(b, v)
	binary.BigEndian.PutUint32(b[8:], uint32(k))
	for i := 12; i < len(b); i++ {
		b[i] = byte(v) + byte(i)
	}
	return b
}

// version extracts the version from a stored value of key k; ok is false
// for anything that is not a well-formed value of that key.
func (ks *keyspace) version(k int, val []byte) (v uint64, ok bool) {
	if len(val) != ks.valueSize || int(binary.BigEndian.Uint32(val[8:])) != k {
		return 0, false
	}
	return binary.BigEndian.Uint64(val), true
}

// worker is one logical client: at most one Invoke in flight (concurrent
// Invokes on one Client provoke spurious suspicion on the seed; README.md,
// seed behaviour 1).
type worker struct {
	id  int
	cl  invoker
	ks  *keyspace
	own []int // keys this client writes
	seq int
	out []sample
}

func newWorker(id int, cl invoker, ks *keyspace, w workload) *worker {
	wk := &worker{id: id, cl: cl, ks: ks}
	for k := id; k < w.keys; k += w.clients {
		wk.own = append(wk.own, k)
	}
	return wk
}

// put writes the next version of key k (owned by w) and reports whether
// it was acknowledged.
func (w *worker) put(k int) bool {
	w.ks.sent[k]++
	v := w.ks.sent[k]
	res, err := w.cl.Invoke(splitbft.EncodePut(w.ks.names[k], w.ks.value(k, v)))
	if err != nil || string(res) != "OK" {
		return false
	}
	w.ks.acked[k].Store(v)
	w.ks.lastAck.Store(uint64(k)<<32 | v)
	return true
}

// get reads key k and checks the linearizability floor: the version
// returned is at least the last one acknowledged before the read was sent.
func (w *worker) get(k int) (ok, wrong bool) {
	floor := w.ks.acked[k].Load()
	res, err := w.cl.InvokeRead(splitbft.EncodeGet(w.ks.names[k]))
	if err != nil {
		return false, false
	}
	v, valid := w.ks.version(k, res)
	if !valid || v < floor {
		return false, true
	}
	return true, false
}

// arrival is one generated request: when it is due (negative: the moment
// a client takes it), whether it reads, and a draw that picks the key once
// a client takes it (a write must land on one of that client's own keys).
type arrival struct {
	at   time.Duration
	draw uint64
	read bool
}

// schedule draws a Poisson arrival schedule; a longer duration extends
// the same sequence, so passes of different length share a prefix.
func schedule(seed int64, rate float64, dur time.Duration, readFrac float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, draw: rng.Uint64(), read: rng.Float64() < readFrac})
	}
}

// sample is the client-side span of one request; times count from the
// start of its pass.
type sample struct {
	client, seq     int
	read, ok, wrong bool
	due, sent, done time.Duration
}

func (s sample) latency() time.Duration { return s.done - s.due }

func (w *worker) do(a arrival, start time.Time) sample {
	s := sample{client: w.id, seq: w.seq, read: a.read, due: a.at, sent: time.Since(start)}
	if a.at < 0 {
		s.due = s.sent
	}
	w.seq++
	if a.read {
		s.ok, s.wrong = w.get(int(a.draw % uint64(len(w.ks.names))))
	} else {
		s.ok = w.put(w.own[a.draw%uint64(len(w.own))])
	}
	s.done = time.Since(start)
	return s
}

// pass is the outcome of one load pass.
type pass struct {
	dur        time.Duration
	elapsed    time.Duration // start to last completion
	cpu        time.Duration // process user+sys time consumed over elapsed, less the speed probe's own
	slowdown   float64       // of the host over the pass, by the speed probe (speed.go)
	stolen     float64       // share of the CPU time the VM asked for that the hypervisor withheld
	goroutines int           // live goroutines when the load stopped arriving
	offered    int
	dropped    int // queue overflow at the door
	samples    []sample
	late       []time.Duration // how late the generator issued each arrival
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives the first clients workers: feed hands arrivals to the queue
// and returns when the pass is over; run then waits for the requests in
// flight.
func (g *group) run(dur time.Duration, queueLen, clients int, feed func(start time.Time, queue chan<- arrival, p *pass)) *pass {
	p := &pass{dur: dur}
	queue := make(chan arrival, queueLen)
	var wg sync.WaitGroup
	start, cpu := time.Now(), cpuTime()
	probe := startSpeedProbe()
	ran, stolen := hostCPU()
	for _, w := range g.workers[:clients] {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for a := range queue {
				w.out = append(w.out, w.do(a, start))
			}
		}(w)
	}
	feed(start, queue, p)
	p.goroutines = runtime.NumGoroutine()
	close(queue)
	wg.Wait()
	p.elapsed, p.cpu = time.Since(start), cpuTime()-cpu
	var probed time.Duration
	p.slowdown, probed = probe.stop()
	p.cpu -= probed
	ranEnd, stolenEnd := hostCPU()
	p.stolen = ratio(float64(stolenEnd-stolen), float64(ranEnd-ran+stolenEnd-stolen))
	for _, w := range g.workers[:clients] {
		p.samples = append(p.samples, w.out...)
		w.out = w.out[:0]
	}
	return p
}

// openLoop issues sched on its own clock: an arrival takes a free client
// or waits FIFO. The queue holds three seconds of arrivals at the offered
// rate (never fewer than four per client): on the shared reference box the
// disk stalls the durable workload for 0.3-0.5 s now and then and the
// hypervisor once took half the CPU for ten seconds (a one-second queue
// overflowed), and a workload must not fail requests because of its
// neighbours. Beyond three seconds the system is not keeping up; the
// overflow is dropped and counted as failed.
// Latency runs from the due time, so queueing shows in it. Closing halt
// (nil for a pass of fixed length) ends the pass early.
func (g *group) openLoop(sched []arrival, dur time.Duration, halt <-chan struct{}) *pass {
	queueLen := max(4*len(g.workers), 3*int(g.w.rate))
	return g.run(dur, queueLen, len(g.workers), func(start time.Time, queue chan<- arrival, p *pass) {
		p.late = make([]time.Duration, 0, len(sched))
		for _, a := range sched {
			if d := time.Until(start.Add(a.at)); d > 0 {
				time.Sleep(d)
			}
			select {
			case <-halt:
				p.dur = time.Since(start)
				return
			default:
			}
			p.offered++
			p.late = append(p.late, time.Since(start)-a.at)
			select {
			case queue <- a:
			default:
				p.dropped++
			}
		}
		time.Sleep(time.Until(start.Add(dur)))
	})
}

// closedLoop keeps the first clients clients busy back to back for dur.
func (g *group) closedLoop(seed int64, dur time.Duration, clients int) *pass {
	// Unbuffered: a client takes its next request the moment it is free.
	return g.run(dur, 0, clients, func(start time.Time, queue chan<- arrival, p *pass) {
		rng := rand.New(rand.NewSource(seed))
		for time.Since(start) < dur {
			queue <- arrival{at: -1, draw: rng.Uint64(), read: rng.Float64() < g.w.readFrac}
			p.offered++
		}
	})
}
