package api

import "repro/internal/viz"

// ExplainMaps rebuilds the paper's per-task choropleths from an explain
// document: the same titles and shades maprat.RenderExploration builds
// from the engine's Explanation, so every front-end that renders the
// document draws the same maps.
func ExplainMaps(ex *ExplainResponse) *viz.Exploration {
	out := &viz.Exploration{Query: ex.Query}
	for _, tr := range ex.Tasks {
		out.Maps = append(out.Maps, viz.Map{
			Title:  viz.MapTitle(tr.Task, ex.Query, ex.NumRatings, ex.OverallMean),
			Shades: groupShades(tr.Groups),
		})
	}
	return out
}

// groupShades is the one group→shade conversion: the explain pages' maps
// and every task's GeoJSON layer shade the same groups the same way.
func groupShades(groups []Group) []viz.Shade {
	out := make([]viz.Shade, len(groups))
	for i, g := range groups {
		out[i] = viz.Shade{State: g.State, Mean: g.Mean, Support: g.Count, Label: g.Phrase, Icons: g.Icons}
	}
	return out
}
