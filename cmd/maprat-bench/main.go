// Command maprat-bench runs the experiment harness: one experiment per
// figure or claim of the paper (E1–E12, listed in internal/bench),
// printing each one's measured table.
//
//	maprat-bench                  # full MovieLens-1M scale (the paper's)
//	maprat-bench -scale small     # quick 80k-rating run
//	maprat-bench -only E2,E4      # a subset of experiments
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/bench"
)

// snapshot is the machine-readable form of a bench run (-json): the
// committed BENCH_*.json files track the perf trajectory PR over PR.
type snapshot struct {
	Scale   string         `json:"scale"`
	Seed    int64          `json:"seed"`
	Ratings int            `json:"ratings"`
	Reports []bench.Report `json:"reports"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("maprat-bench: ")

	var (
		scale    = flag.String("scale", "full", "dataset scale: small|full")
		seed     = flag.Int64("seed", 1, "generator seed")
		only     = flag.String("only", "", "comma-separated experiment IDs to run (default all)")
		jsonPath = flag.String("json", "", "also write the reports as a JSON snapshot to this path")
	)
	flag.Parse()

	cfg := maprat.DefaultGenConfig()
	if *scale == "small" {
		cfg = maprat.SmallGenConfig()
	}
	cfg.Seed = *seed

	start := time.Now()
	log.Printf("generating %s-scale synthetic dataset (seed %d) ...", *scale, *seed)
	ds, err := maprat.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := ds.Stats()
	log.Printf("dataset: %d ratings / %d movies / %d users in %s",
		stats.Ratings, stats.Items, stats.Users, time.Since(start).Round(time.Millisecond))

	start = time.Now()
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("engine opened (join + indexes; browse aggregates are lazy) in %s",
		time.Since(start).Round(time.Millisecond))

	// The experiment list, order and IDs come from the one registry in
	// internal/bench, so a newly registered experiment cannot be dropped
	// from default runs or snapshots by a stale list here.
	experiments := map[string]func(context.Context, *maprat.Engine) bench.Report{}
	order := make([]string, 0, len(bench.Experiments))
	for _, e := range bench.Experiments {
		experiments[e.ID] = e.Run
		order = append(order, e.ID)
	}
	if *only != "" {
		order = nil
		for _, id := range strings.Split(*only, ",") {
			order = append(order, strings.TrimSpace(strings.ToUpper(id)))
		}
	}

	ctx := context.Background()
	snap := snapshot{Scale: *scale, Seed: *seed, Ratings: stats.Ratings}
	for _, id := range order {
		run, ok := experiments[id]
		if !ok {
			log.Fatalf("unknown experiment %q (have %s..%s)", id,
				bench.Experiments[0].ID, bench.Experiments[len(bench.Experiments)-1].ID)
		}
		rep := run(ctx, eng)
		rep.Print(os.Stdout)
		snap.Reports = append(snap.Reports, rep)
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote snapshot %s", *jsonPath)
	}
}
