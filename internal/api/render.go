package api

import (
	"fmt"

	"repro/internal/viz"
)

// ExplainMaps rebuilds the paper's per-task choropleths from an explain
// document: the same titles and shades maprat.RenderExploration builds
// from the engine's Explanation, so every front-end that renders the
// document draws the same maps.
func ExplainMaps(ex *ExplainResponse) *viz.Exploration {
	out := &viz.Exploration{Query: ex.Query}
	for _, tr := range ex.Tasks {
		name := "Similarity Mining (reviewers who agree)"
		if tr.Task == "DM" {
			name = "Diversity Mining (reviewers who disagree)"
		}
		m := viz.Map{Title: fmt.Sprintf("%s — %s (%d ratings, overall μ=%.2f)",
			name, ex.Query, ex.NumRatings, ex.OverallMean)}
		for _, g := range tr.Groups {
			m.Shades = append(m.Shades, viz.Shade{
				State:   g.State,
				Mean:    g.Mean,
				Support: g.Count,
				Label:   g.Phrase,
				Icons:   g.Icons,
			})
		}
		out.Maps = append(out.Maps, m)
	}
	return out
}
