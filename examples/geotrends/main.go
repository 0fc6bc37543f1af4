// Geotrends: the Figure-3 scenario. Explain a movie's ratings, pick the
// top Similarity-Mining group, and drill into it: score distribution,
// state→city drill-down, rating evolution, and the sibling groups a user
// would compare it against.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)

	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		log.Fatal(err)
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		log.Fatal(err)
	}

	q, err := eng.ParseQuery(`movie:"Toy Story"`)
	if err != nil {
		log.Fatal(err)
	}
	ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{
		Query: q, Tasks: []maprat.Task{maprat.SimilarityMining},
	})
	if err != nil {
		log.Fatal(err)
	}

	sm := ex.Result(maprat.SimilarityMining)
	fmt.Printf("Similarity Mining for %s (%d ratings):\n", ex.Query, ex.NumRatings)
	for _, g := range sm.Groups {
		fmt.Printf("   %-58s μ=%.2f n=%d\n", g.Phrase, g.Agg.Mean(), g.Agg.Count)
	}

	// Drill into the largest group — the demo clicks "male reviewers from
	// California" here.
	top := sm.Groups[0]
	fmt.Printf("\n=== exploring: %s ===\n", top.Phrase)
	ge, err := eng.ExploreFullContext(ctx, q, top.Key, 6, -1)
	if err != nil {
		log.Fatal(err)
	}
	stats, related := ge.Stats, ge.Related

	fmt.Println("\nscore distribution:")
	for s := 1; s < len(stats.Histogram); s++ {
		fmt.Printf("   %d★ %4d  %s\n", s, stats.Histogram[s], hashes(stats.Histogram[s], stats.Agg.Count))
	}

	if len(stats.Cities) > 0 {
		fmt.Println("\ncity-level drill-down (the paper's state→city navigation):")
		for _, c := range stats.Cities {
			fmt.Printf("   %-20s μ=%.2f n=%d\n", c.City, c.Agg.Mean(), c.Agg.Count)
		}
	}

	fmt.Println("\nrating evolution:")
	for _, b := range stats.Timeline {
		if b.Agg.Count == 0 {
			continue
		}
		fmt.Printf("   %-18s μ=%.2f n=%d\n", b.Label(), b.Agg.Mean(), b.Agg.Count)
	}

	if len(related) > 0 {
		fmt.Println("\nrelated groups (one attribute away):")
		limit := related
		if len(limit) > 5 {
			limit = limit[:5]
		}
		for _, g := range limit {
			fmt.Printf("   %-58s μ=%.2f n=%d\n", g.Phrase, g.Agg.Mean(), g.Agg.Count)
		}
	}
}

func hashes(n, total int) string {
	if total == 0 {
		return ""
	}
	w := n * 50 / total
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
