// Command splitbft-client talks to a SplitBFT deployment over TCP.
//
//	splitbft-client -replicas ":7000,:7001,:7002,:7003" put mykey myvalue
//	splitbft-client -replicas ":7000,:7001,:7002,:7003" get mykey
//	splitbft-client -replicas ":7000,:7001,:7002,:7003" bench -d 10s
//
// The -secret flag must match the replicas' deployment secret.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitbft/splitbft"
)

func main() {
	id := flag.Uint("id", 100, "client ID")
	n := flag.Int("n", 4, "number of replicas")
	f := flag.Int("f", 1, "fault threshold")
	replicas := flag.String("replicas", "", "comma-separated replica addresses, indexed by ID")
	secret := flag.String("secret", "splitbft-dev-secret", "shared deployment secret")
	confidential := flag.Bool("confidential", true, "end-to-end encrypt payloads")
	consensus := flag.String("consensus", "classic", "consensus mode: classic (3f+1) or trusted (counter-backed 2f+1); must match the replicas")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	flag.Parse()

	addrs := splitbft.SplitAddrs(*replicas)
	if len(addrs) != *n {
		fatalf("need exactly %d -replicas entries, got %d", *n, len(addrs))
	}

	opts := []splitbft.Option{
		splitbft.WithTransportTCP(addrs...),
		splitbft.WithFaults(*f),
		splitbft.WithKeySeed([]byte(*secret)),
		splitbft.WithConsensusMode(*consensus),
		splitbft.WithInvokeTimeout(*timeout),
	}
	if *confidential {
		opts = append(opts, splitbft.WithConfidential())
	}
	cl, err := splitbft.NewClient(uint32(*id), opts...)
	if err != nil {
		fatalf("create client: %v", err)
	}
	defer cl.Close()
	if err := cl.Attest(); err != nil {
		fatalf("attestation: %v", err)
	}

	args := flag.Args()
	if len(args) == 0 {
		fatalf("usage: splitbft-client [flags] put <key> <value> | get <key> | del <key> | bench [-d duration is -timeout]")
	}
	switch args[0] {
	case "put":
		if len(args) != 3 {
			fatalf("usage: put <key> <value>")
		}
		timed(func() ([]byte, error) { return cl.Put(args[1], []byte(args[2])) })
	case "get":
		if len(args) != 2 {
			fatalf("usage: get <key>")
		}
		timed(func() ([]byte, error) { return cl.Get(args[1]) })
	case "del":
		if len(args) != 2 {
			fatalf("usage: del <key>")
		}
		timed(func() ([]byte, error) { return cl.Delete(args[1]) })
	case "bench":
		runBench(cl, *timeout)
	default:
		fatalf("unknown command %q", args[0])
	}
}

func timed(invoke func() ([]byte, error)) {
	start := time.Now()
	res, err := invoke()
	if err != nil {
		fatalf("invoke: %v", err)
	}
	fmt.Printf("%s (%.2f ms)\n", res, float64(time.Since(start))/float64(time.Millisecond))
}

// runBench drives closed-loop PUTs for the timeout duration and reports
// throughput and latency.
func runBench(cl *splitbft.Client, d time.Duration) {
	const workers = 8
	var ops atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			op := splitbft.EncodePut(fmt.Sprintf("bench-%d", w), []byte("0123456789"))
			for !stop.Load() {
				if _, err := cl.Invoke(op); err != nil {
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	total := ops.Load()
	fmt.Printf("%d ops in %v: %.0f ops/s, %.2f ms mean latency\n",
		total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(),
		float64(elapsed)/float64(time.Millisecond)/float64(total)*workers)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "splitbft-client: "+format+"\n", args...)
	os.Exit(1)
}
