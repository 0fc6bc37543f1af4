// Quickstart: generate a synthetic collaborative rating site, ask MapRat
// to explain the ratings of one movie, and print both interpretations
// (Similarity Mining and Diversity Mining) with their choropleth maps.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)

	// 1. A dataset. Generate substitutes for MovieLens 1M + IMDB; use
	//    maprat.LoadDir to run on the real files instead.
	ds, err := maprat.Generate(maprat.SmallGenConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. An engine: joins ratings with reviewer demographics, builds the
	//    attribute indexes and the result cache.
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. A query over item attributes, exactly like the demo's Figure 1.
	q, err := eng.ParseQuery(`movie:"Toy Story"`)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Explain: mines the best reviewer groups for both sub-problems.
	//    The context bounds the mine — RHE restarts run across all cores
	//    and stop early if the deadline fires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query      : %s\n", ex.Query)
	fmt.Printf("ratings    : %d (overall μ=%.2f — the single number the paper argues is not enough)\n",
		ex.NumRatings, ex.Overall.Mean())
	fmt.Printf("mined in   : %s\n\n", ex.Elapsed)

	for _, tr := range ex.Results {
		fmt.Printf("— %s: %d groups, coverage %.0f%%\n", tr.Task, len(tr.Groups), tr.Coverage*100)
		for _, g := range tr.Groups {
			fmt.Printf("   %-58s μ=%.2f σ=%.2f n=%d (%.1f%% of ratings)\n",
				g.Phrase, g.Agg.Mean(), g.Agg.Std(), g.Agg.Count, g.Share*100)
		}
		fmt.Println()
	}

	// 5. The geo-visualization: each group is anchored on its state and
	//    shaded red→green by its average rating.
	fmt.Print(maprat.RenderExploration(ex).ASCII(false))
}
