// Profiles: §3.1's personalization. "MapRat can exploit any user
// demographic information (gender, age, location or occupation) available
// to constrain the groups that are highlighted. This ensures that the
// resulting groups are the ones that user most self-identifies with."
// Explain the same movie for three different visitor profiles and watch
// the returned groups change.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/cube"
	"repro/internal/model"
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
	q, err := eng.ParseQuery(`movie:"Forrest Gump"`)
	if err != nil {
		log.Fatal(err)
	}

	profiles := []struct {
		who string
		key maprat.Key
	}{
		{"anonymous visitor (no profile)", cube.KeyAll},
		{"female visitor", cube.KeyAll.With(cube.Gender, int16(model.Female))},
		{"male 25-34 visitor from California", cube.KeyAll.
			With(cube.Gender, int16(model.Male)).
			With(cube.Age, int16(model.Age25to34)).
			With(cube.State, cube.StateIndex("CA"))},
	}

	for _, p := range profiles {
		s := maprat.DefaultSettings()
		s.Profile = p.key
		ex, err := eng.ExplainContext(ctx, maprat.ExplainRequest{
			Query: q, Settings: s, Tasks: []maprat.Task{maprat.SimilarityMining},
		})
		if err != nil {
			log.Fatalf("%s: %v", p.who, err)
		}
		sm := ex.Result(maprat.SimilarityMining)
		fmt.Printf("— as %s:\n", p.who)
		for _, g := range sm.Groups {
			fmt.Printf("   %-58s μ=%.2f n=%d\n", g.Phrase, g.Agg.Mean(), g.Agg.Count)
		}
		fmt.Println()
	}
	fmt.Println("Each profile only sees groups it could belong to — the rating a user")
	fmt.Println("adopts is the one from the group she most self-identifies with.")
}
