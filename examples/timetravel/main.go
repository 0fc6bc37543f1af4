// Timetravel: the §3.1 time-slider scenario. Mine the same query once per
// calendar year and watch how the best explanation groups — and the
// movie's reception — evolve over the rating log's eight years.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

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

	points, err := eng.EvolutionContext(ctx, maprat.ExplainRequest{
		Query: q, Tasks: []maprat.Task{maprat.SimilarityMining},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("time slider — %s\n", q)
	fmt.Println("(Toy Story is planted with a negative drift: its reception cools over the years)")
	var prevMean float64
	for _, p := range points {
		year := time.Unix(p.Window.From, 0).UTC().Year()
		if p.Err != nil || p.Explanation == nil {
			fmt.Printf("\n%d — no mineable ratings (%v)\n", year, p.Err)
			continue
		}
		mean := p.Explanation.Overall.Mean()
		trend := " "
		switch {
		case prevMean != 0 && mean < prevMean-0.01:
			trend = "↓"
		case prevMean != 0 && mean > prevMean+0.01:
			trend = "↑"
		}
		prevMean = mean
		fmt.Printf("\n%d — %4d ratings, μ=%.2f %s\n", year, p.Explanation.NumRatings, mean, trend)
		if sm := p.Explanation.Result(maprat.SimilarityMining); sm != nil {
			for _, g := range sm.Groups {
				fmt.Printf("     %-55s μ=%.2f n=%d\n", g.Phrase, g.Agg.Mean(), g.Agg.Count)
			}
		}
	}
}
