// Package viz renders MapRat's choropleth visualizations (§2.3): each
// explanation group is anchored on its state geo-condition and shaded on a
// red→green Likert scale by its average rating — dark red for 1.0, dark
// green for 5.0 — with the remaining attribute-value pairs annotated as
// icons. Two renderers share the same tile-grid cartogram of the US: a
// self-contained SVG (for the web front-end) and an ANSI terminal view
// (for the CLI), both stdlib-only.
package viz

import (
	"fmt"
	"html"
	"slices"
	"strings"

	"repro/internal/cube"
	"repro/internal/geo"
	"repro/internal/model"
)

// Likert maps a mean score in [1,5] to the paper's red→green gradient.
// Values outside the scale clamp to its ends.
func Likert(mean float64) (r, g, b uint8) {
	t := (mean - float64(model.MinScore)) / float64(model.MaxScore-model.MinScore)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Three stops: dark red → amber → dark green.
	const (
		r0, g0, b0 = 170, 25, 25
		r1, g1, b1 = 228, 188, 44
		r2, g2, b2 = 22, 128, 44
	)
	// The conversion rounds the product, so no GOARCH fuses the add.
	lerp := func(a, b float64, t float64) uint8 { return uint8(a + float64((b-a)*t) + 0.5) }
	if t < 0.5 {
		u := t * 2
		return lerp(r0, r1, u), lerp(g0, g1, u), lerp(b0, b1, u)
	}
	u := (t - 0.5) * 2
	return lerp(r1, r2, u), lerp(g1, g2, u), lerp(b1, b2, u)
}

// Hex renders the Likert colour as a #rrggbb string.
func Hex(mean float64) string {
	r, g, b := Likert(mean)
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// Icons renders the non-geo attribute-value pairs of a group description
// the way the demo annotates pins: gender symbol, age range, occupation.
func Icons(k cube.Key) string {
	var parts []string
	if k.Has(cube.Gender) {
		switch model.Gender(k[cube.Gender]) {
		case model.Male:
			parts = append(parts, "♂")
		case model.Female:
			parts = append(parts, "♀")
		}
	}
	if k.Has(cube.Age) {
		parts = append(parts, model.AgeBucket(k[cube.Age]).Label())
	}
	if k.Has(cube.Occupation) {
		parts = append(parts, model.Occupation(k[cube.Occupation]).Label())
	}
	if len(parts) == 0 {
		return "all reviewers"
	}
	return strings.Join(parts, " · ")
}

// Shade is one group rendered on the map.
type Shade struct {
	State   string  // two-letter code from the group's geo-condition
	Mean    float64 // average group rating (drives the fill colour)
	Support int     // number of ratings in the group
	Label   string  // full human caption, e.g. the cube.Key phrase
	Icons   string  // compact attribute annotation (see Icons)
}

// Map is one choropleth: a titled set of shaded states (one rating
// interpretation object in the paper's terms).
type Map struct {
	Title  string
	Shades []Shade
}

// MapTitle is the one title rule for a mining task's map, shared by the
// engine's rendering and every front-end that draws the v1 explain
// document: task is the task's code ("SM" or "DM").
func MapTitle(task, query string, ratings int, overallMean float64) string {
	name := "Similarity Mining (reviewers who agree)"
	if task == "DM" {
		name = "Diversity Mining (reviewers who disagree)"
	}
	return fmt.Sprintf("%s — %s (%d ratings, overall μ=%.2f)", name, query, ratings, overallMean)
}

// Tiles is the one tile rule every rendering of a map shares (SVG,
// ASCII and the v1 GeoJSON layer): per state, the shade with the most
// ratings fills the tile, the earlier shade winning ties. Tiles come in
// the order their states first appear; a shade without a state
// (framework mode) fills none.
func (m *Map) Tiles() []Shade {
	var tiles []Shade
	for _, s := range m.Shades {
		if s.State == "" {
			continue
		}
		i := slices.IndexFunc(tiles, func(t Shade) bool { return t.State == s.State })
		switch {
		case i < 0:
			tiles = append(tiles, s)
		case s.Support > tiles[i].Support:
			tiles[i] = s
		}
	}
	return tiles
}

// tileByState indexes Tiles by state code for the renderers' grid walk.
func (m *Map) tileByState() map[string]Shade {
	out := map[string]Shade{}
	for _, t := range m.Tiles() {
		out[t.State] = t
	}
	return out
}

// SVG geometry constants.
const (
	tile    = 62
	pad     = 4
	headerH = 34
	legendH = 46
)

// SVG renders the map as a self-contained SVG document.
func (m *Map) SVG() string {
	states := geo.States()
	maxRow, maxCol := 0, 0
	for _, s := range states {
		if s.Row > maxRow {
			maxRow = s.Row
		}
		if s.Col > maxCol {
			maxCol = s.Col
		}
	}
	width := (maxCol+1)*tile + 2*pad
	gridH := (maxRow + 1) * tile
	entryH := 18
	height := headerH + gridH + legendH + entryH*len(m.Shades) + 2*pad

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="Helvetica,Arial,sans-serif">`, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#ffffff"/>`, width, height)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="16" font-weight="bold">%s</text>`, pad, html.EscapeString(m.Title))

	dom := m.tileByState()
	for _, s := range states {
		x := pad + s.Col*tile
		y := headerH + s.Row*tile
		fill := "#ededed"
		if sh, ok := dom[s.Code]; ok {
			fill = Hex(sh.Mean)
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#888" stroke-width="1" rx="4"/>`,
			x, y, tile-4, tile-4, fill)
		textFill := "#333"
		if _, ok := dom[s.Code]; ok {
			textFill = "#ffffff"
		}
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="13" font-weight="bold" fill="%s">%s</text>`,
			x+8, y+22, textFill, s.Code)
		if sh, ok := dom[s.Code]; ok {
			fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="#ffffff">%.1f★</text>`,
				x+8, y+40, sh.Mean)
		}
	}

	// Legend: the red→green Likert gradient.
	ly := headerH + gridH + 16
	steps := 40
	lw := 200
	for i := 0; i < steps; i++ {
		mean := 1 + 4*float64(i)/float64(steps-1)
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="12" fill="%s"/>`,
			pad+i*lw/steps, ly, lw/steps+1, Hex(mean))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">1.0</text>`, pad, ly+24)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">5.0</text>`, pad+lw-14, ly+24)

	// Group entries with colour chips and icon annotations.
	ey := ly + legendH - 8
	for i, sh := range m.Shades {
		y := ey + i*entryH
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="12" height="12" fill="%s" stroke="#666"/>`,
			pad, y-10, Hex(sh.Mean))
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12">%s — %s (μ=%.2f, n=%d)</text>`,
			pad+18, y, html.EscapeString(sh.Label), html.EscapeString(sh.Icons), sh.Mean, sh.Support)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// ASCII renders the map for a terminal. With color=true the tiles carry
// 24-bit ANSI background colours; otherwise shaded tiles show their mean.
func (m *Map) ASCII(color bool) string {
	states := geo.States()
	maxRow, maxCol := 0, 0
	for _, s := range states {
		if s.Row > maxRow {
			maxRow = s.Row
		}
		if s.Col > maxCol {
			maxCol = s.Col
		}
	}
	grid := make([][]*geo.State, maxRow+1)
	for r := range grid {
		grid[r] = make([]*geo.State, maxCol+1)
	}
	for i := range states {
		s := states[i]
		grid[s.Row][s.Col] = &states[i]
	}
	dom := m.tileByState()

	var b strings.Builder
	b.WriteString(m.Title)
	b.WriteByte('\n')
	for r := 0; r <= maxRow; r++ {
		for c := 0; c <= maxCol; c++ {
			s := grid[r][c]
			if s == nil {
				b.WriteString("      ")
				continue
			}
			if sh, ok := dom[s.Code]; ok {
				cell := fmt.Sprintf("%s %.1f", s.Code, sh.Mean)
				if color {
					cr, cg, cb := Likert(sh.Mean)
					fmt.Fprintf(&b, "\x1b[48;2;%d;%d;%dm\x1b[97m%-6s\x1b[0m", cr, cg, cb, cell)
				} else {
					fmt.Fprintf(&b, "%-6s", cell)
				}
			} else {
				fmt.Fprintf(&b, " %s   ", strings.ToLower(s.Code))
			}
		}
		b.WriteByte('\n')
	}
	for _, sh := range m.Shades {
		fmt.Fprintf(&b, "  [%s] %-52s %s  μ=%.2f n=%d\n",
			sh.State, sh.Label, sh.Icons, sh.Mean, sh.Support)
	}
	return b.String()
}

// Exploration is the paper's "set of Choropleth maps formed from the same
// input": one map per mining sub-problem, rendered as tabs in the UI.
type Exploration struct {
	Query string
	Maps  []Map
}

// ASCII renders every map in sequence for the terminal.
func (e *Exploration) ASCII(color bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Exploration: %s\n\n", e.Query)
	for i := range e.Maps {
		b.WriteString(e.Maps[i].ASCII(color))
		b.WriteByte('\n')
	}
	return b.String()
}
