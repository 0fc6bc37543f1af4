package api

import (
	"testing"

	"repro"
)

// TestExplainMapsMatchEngineRendering pins that a front-end drawing the
// explain document draws the maps the engine draws from its Explanation,
// in both geo modes.
func TestExplainMapsMatchEngineRendering(t *testing.T) {
	eng := testEngine(t)
	for _, geo := range []string{"on", "off"} {
		req, err := Params{Q: `movie:"Toy Story"`, Geo: geo}.ExplainRequest()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := eng.ExplainContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		want := maprat.RenderExploration(ex)
		got := ExplainMaps(explainDTO(ex))
		if len(got.Maps) != len(want.Maps) || got.Query != want.Query {
			t.Fatalf("geo=%s: %d maps for %q, want %d for %q", geo, len(got.Maps), got.Query, len(want.Maps), want.Query)
		}
		for i := range want.Maps {
			if got.Maps[i].SVG() != want.Maps[i].SVG() {
				t.Errorf("geo=%s: map %d SVG differs from the engine's", geo, i)
			}
		}
		if got.ASCII(false) != want.ASCII(false) {
			t.Errorf("geo=%s: ASCII differs from the engine's", geo)
		}
	}
}
