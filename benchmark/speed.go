package main

import (
	"bufio"
	"crypto/ed25519"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The reference box is a shared VM whose cores are hyperthreads: while a
// neighbour runs on the sibling thread, compute-bound code takes about 1.6
// times as long, and neighbours come and go for seconds to minutes at a
// time. Every time a run measures follows that (correlation 0.9 and more
// with a fixed compute kernel timed beside it, README.md), so identical runs
// of identical code read 15-30 % apart, which is more than any bound the
// benchmark may set. The speed probe is that fixed kernel: standard library
// only, so no change to the repository moves it, run for half a millisecond
// every 50 ms beside each pass (1 % of one core). A pass's slowdown is the
// kernel's mean time over the pass as a multiple of its time on the quiet
// reference box, and the end-to-end times are divided by it: they read in
// milliseconds of a host running at reference speed.

const (
	// speedKernelVerifies Ed25519 verifications are one kernel run: the
	// operation the protocol itself spends most of its cycles in.
	speedKernelVerifies = 10
	// speedKernelRef is one kernel run on the quiet reference box (47 us a
	// verification). It only fixes the scale of the compensated times.
	speedKernelRef = 470 * time.Microsecond
	speedTick      = 50 * time.Millisecond
	// speedKeep is the share of kernel runs, fastest first, that the mean is
	// taken over: a run the kernel's own thread was descheduled in (a disk
	// stall on the durable workload reads 10 ms and more) says nothing about
	// the speed of the core.
	speedKeep = 0.9
)

var (
	speedPub, speedPriv, _ = ed25519.GenerateKey(nil)
	speedMsg               = make([]byte, 64)
	speedSig               = ed25519.Sign(speedPriv, speedMsg)
)

func speedKernel() {
	for i := 0; i < speedKernelVerifies; i++ {
		if !ed25519.Verify(speedPub, speedMsg, speedSig) {
			panic("speed probe: reference signature does not verify")
		}
	}
}

// speedProbe times the kernel on a ticker until it is stopped.
type speedProbe struct {
	halt, done chan struct{}
	runs       []time.Duration
}

func startSpeedProbe() *speedProbe {
	s := &speedProbe{halt: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(speedTick)
		defer tick.Stop()
		for {
			begin := time.Now()
			speedKernel()
			s.runs = append(s.runs, time.Since(begin))
			select {
			case <-tick.C:
			case <-s.halt:
				return
			}
		}
	}()
	return s
}

// stop ends the probe and returns the slowdown of the host over the probed
// interval and the CPU time the probe itself consumed.
func (s *speedProbe) stop() (slowdown float64, busy time.Duration) {
	close(s.halt)
	<-s.done
	sort.Slice(s.runs, func(i, j int) bool { return s.runs[i] < s.runs[j] })
	for _, d := range s.runs {
		busy += d
	}
	kept := s.runs[:max(1, int(speedKeep*float64(len(s.runs))))]
	var sum time.Duration
	for _, d := range kept {
		sum += d
	}
	return float64(sum) / float64(len(kept)) / float64(speedKernelRef), busy
}

// hostCPU reads the VM-wide CPU accounting of /proc/stat in clock ticks:
// time spent running anything, and time a vCPU was ready to run while the
// hypervisor ran something else (steal). Both are zero where the file does
// not exist.
func hostCPU() (ran, stolen uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, field := range fields[1:9] {
		v, _ := strconv.ParseUint(field, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			stolen = v
		default:
			ran += v
		}
	}
	return ran, stolen
}
