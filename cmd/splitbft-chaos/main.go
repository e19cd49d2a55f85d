// splitbft-chaos runs a deterministic, seeded chaos schedule against an
// in-process SplitBFT cluster and verifies safety invariants throughout.
// On a violation it prints the full replayable record — seed, schedule,
// live step, offending history — writes it to -dump if given, and exits 1;
// re-running with the printed seed reproduces the exact fault schedule.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/splitbft/splitbft/experiments/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "fault-schedule seed; a violation report names the seed that reproduces it")
	plan := flag.String("plan", "kitchen-sink", fmt.Sprintf("fault plan: %s", strings.Join(chaos.PlanNames(), ", ")))
	duration := flag.Duration("duration", 10*time.Second, "fault-schedule window (quiescence checks run after)")
	consensus := flag.String("consensus", "classic", "agreement mode: classic (3f+1) or trusted (2f+1)")
	auth := flag.String("auth", "", "agreement authenticator: sig or mac; empty is sig in classic and mac in trusted consensus")
	readLeases := flag.Bool("read-leases", true, "enable the lease-anchored local-read fast path")
	persist := flag.Bool("persist", true, "run with durable stores so crash-restarts recover from disk")
	writers := flag.Int("writers", 2, "writer clients (one register each)")
	readers := flag.Int("readers", 2, "reader clients")
	dump := flag.String("dump", "", "directory for the violation report (written only on failure)")
	list := flag.Bool("list", false, "print the generated schedule and exit without running")
	flag.Parse()

	cfg := chaos.Config{
		Seed:       *seed,
		Plan:       *plan,
		Duration:   *duration,
		Consensus:  *consensus,
		Auth:       *auth,
		ReadLeases: *readLeases,
		Writers:    *writers,
		Readers:    *readers,
	}

	if *list {
		n, f := 4, 1
		if *consensus == "trusted" {
			n = 3
		}
		acts, err := chaos.BuildPlan(*plan, *seed, n, f, *duration)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for i, a := range acts {
			fmt.Printf("[%d] %s\n", i, a)
		}
		return
	}

	if *persist {
		dir, err := os.MkdirTemp("", "splitbft-chaos-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
	}

	fmt.Printf("chaos: plan %q seed %d duration %v consensus %s auth %s leases %v persist %v\n",
		cfg.Plan, cfg.Seed, cfg.Duration, cfg.Consensus, cfg.Auth, cfg.ReadLeases, *persist)
	rep, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(2)
	}
	fmt.Print(rep.Dump())
	if !rep.Failed() {
		return
	}
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err == nil {
			path := filepath.Join(*dump, fmt.Sprintf("chaos-%s-seed%d.txt", rep.Plan, rep.Seed))
			if werr := os.WriteFile(path, []byte(rep.Dump()), 0o644); werr == nil {
				fmt.Fprintf(os.Stderr, "violation report written to %s\n", path)
			}
		}
	}
	os.Exit(1)
}
