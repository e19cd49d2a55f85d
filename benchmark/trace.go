package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/splitbft/splitbft"
)

// writeTrace writes trace-<workload>.jsonl: a header, every node's counter
// snapshot at the start and end of the traced pass, one client span per
// request, and the primary's stage table. Spans are kept in memory during
// the pass and written only here, after it. A span's id is the
// benchmark's own (client, seq); the in-program tracer's spans are per
// replica and not joined to these yet.
func writeTrace(cfg config, w workload, p *pass, before, after []counters, stages []splitbft.StageLatency) (err error) {
	f, err := os.Create(filepath.Join(cfg.out, "trace-"+w.name+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	emit := func(v any) {
		if err == nil {
			err = enc.Encode(v)
		}
	}
	emit(map[string]any{
		"kind": "header", "workload": w.name, "seed": cfg.seed, "rate_ops_s": w.rate,
		"clients": w.clients, "pass_s": p.dur.Seconds(), "times": "microseconds since the start of the pass",
	})
	for node := range before {
		emit(map[string]any{"kind": "counters", "at": "start", "node": node, "values": before[node]})
		emit(map[string]any{"kind": "counters", "at": "end", "node": node, "values": after[node]})
	}
	for _, s := range p.samples {
		class := "put"
		if s.read {
			class = "get"
		}
		emit(map[string]any{
			"kind": "span", "id": fmt.Sprintf("c%d-%d", s.client, s.seq), "workload": w.name, "class": class,
			"due": us(s.due), "sent": us(s.sent), "done": us(s.done), "ok": s.ok,
		})
	}
	for _, s := range stages {
		emit(map[string]any{
			"kind": "stage", "node": 0, "stage": s.Stage, "count": s.Count,
			"mean_us": us(s.Mean), "p50_us": us(s.P50), "p99_us": us(s.P99), "max_us": us(s.Max),
		})
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}
