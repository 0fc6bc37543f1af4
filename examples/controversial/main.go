// Controversial: the paper's introductory example. "The Twilight Saga:
// Eclipse" averages a mediocre score, but the average hides a controversy:
// female reviewers under 18 (and above 45) love it while male reviewers
// under 18 hate it. Diversity Mining surfaces exactly that sibling split —
// something no overall aggregate or pre-defined IMDB breakdown shows.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/cube"
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

	q, err := eng.ParseQuery(`movie:"The Twilight Saga: Eclipse"`)
	if err != nil {
		log.Fatal(err)
	}

	// The intro's analysis is framework mode: disagreeing demographic
	// groups, no geo-condition required. The controversial split lives in
	// a small slice of the audience (the under-18 reviewers), so the
	// coverage requirement must be low enough not to exclude it.
	settings := maprat.DefaultSettings()
	settings.K = 2
	settings.Coverage = 0.04
	free := cube.Config{RequireState: false, MinSupport: 6, MaxAVPairs: 2, SkipApex: true}

	ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{
		Query:      q,
		Settings:   settings,
		Tasks:      []maprat.Task{maprat.DiversityMining},
		CubeConfig: &free,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s\n", ex.Query)
	fmt.Printf("overall: μ=%.2f over %d ratings — looks like a mediocre movie\n\n",
		ex.Overall.Mean(), ex.NumRatings)

	dm := ex.Result(maprat.DiversityMining)
	fmt.Println("Diversity Mining disagrees:")
	for _, g := range dm.Groups {
		verdict := "love it"
		switch {
		case g.Agg.Mean() < 2.5:
			verdict = "hate it"
		case g.Agg.Mean() < 3.5:
			verdict = "shrug"
		}
		fmt.Printf("   %-42s μ=%.2f n=%-4d → they %s\n", g.Phrase, g.Agg.Mean(), g.Agg.Count, verdict)
	}
	if len(dm.Groups) >= 2 {
		gap := dm.Groups[0].Agg.Mean() - dm.Groups[1].Agg.Mean()
		if gap < 0 {
			gap = -gap
		}
		fmt.Printf("\nThe two groups disagree by %.1f stars; the overall average hides a controversy.\n", gap)
	}
}
