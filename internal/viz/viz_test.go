package viz

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cube"
	"repro/internal/geo"
)

func TestLikertEndpoints(t *testing.T) {
	r, g, b := Likert(1.0)
	if r != 170 || g != 25 || b != 25 {
		t.Errorf("Likert(1) = %d,%d,%d, want dark red", r, g, b)
	}
	r, g, b = Likert(5.0)
	if r != 22 || g != 128 || b != 44 {
		t.Errorf("Likert(5) = %d,%d,%d, want dark green", r, g, b)
	}
	rm, gm, _ := Likert(3.0)
	if rm < 200 || gm < 150 {
		t.Errorf("Likert(3) = %d,%d, want amber midpoint", rm, gm)
	}
}

func TestLikertClamps(t *testing.T) {
	r1, g1, b1 := Likert(0.0)
	r2, g2, b2 := Likert(1.0)
	if r1 != r2 || g1 != g2 || b1 != b2 {
		t.Error("Likert below scale should clamp to 1.0")
	}
	r1, g1, b1 = Likert(9.9)
	r2, g2, b2 = Likert(5.0)
	if r1 != r2 || g1 != g2 || b1 != b2 {
		t.Error("Likert above scale should clamp to 5.0")
	}
}

func TestLikertMonotoneGreenness(t *testing.T) {
	// Moving up the scale must never make the colour redder relative to
	// green: g-r is monotone nondecreasing.
	f := func(a, b uint8) bool {
		x := 1 + 4*float64(a)/255
		y := 1 + 4*float64(b)/255
		if x > y {
			x, y = y, x
		}
		rx, gx, _ := Likert(x)
		ry, gy, _ := Likert(y)
		return int(gy)-int(ry) >= int(gx)-int(rx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHexFormat(t *testing.T) {
	h := Hex(5.0)
	if h != "#16802c" {
		t.Errorf("Hex(5) = %q", h)
	}
	if len(Hex(2.2)) != 7 || Hex(2.2)[0] != '#' {
		t.Errorf("Hex(2.2) = %q", Hex(2.2))
	}
}

func TestIcons(t *testing.T) {
	k := cube.KeyAll.
		With(cube.Gender, 1).
		With(cube.Age, 0).
		With(cube.Occupation, 10).
		With(cube.State, cube.StateIndex("NY"))
	got := Icons(k)
	want := "♀ · under 18 · K-12 student"
	if got != want {
		t.Errorf("Icons = %q, want %q", got, want)
	}
	male := cube.KeyAll.With(cube.Gender, 0).With(cube.State, cube.StateIndex("CA"))
	if Icons(male) != "♂" {
		t.Errorf("Icons(male CA) = %q", Icons(male))
	}
	stateOnly := cube.KeyAll.With(cube.State, cube.StateIndex("CA"))
	if Icons(stateOnly) != "all reviewers" {
		t.Errorf("Icons(state only) = %q", Icons(stateOnly))
	}
}

func testShades() []Shade {
	return []Shade{
		{State: "CA", Mean: 4.4, Support: 812, Label: "male reviewers from California", Icons: "♂"},
		{State: "MA", Mean: 4.1, Support: 233, Label: "male reviewers from Massachusetts", Icons: "♂"},
		{State: "NY", Mean: 3.6, Support: 187, Label: "female under-18 K-12 student reviewers from New York", Icons: "♀ · under 18 · K-12 student"},
	}
}

func TestSVGStructure(t *testing.T) {
	m := Map{Title: "Similarity Mining — Toy Story", Shades: testShades()}
	svg := m.SVG()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	for _, want := range []string{
		"Similarity Mining", "CA", "MA", "NY", "WY", // all states drawn
		Hex(4.4), Hex(4.1), Hex(3.6), // shaded fills present
		"male reviewers from California",
		"♀ · under 18 · K-12 student",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// One rect per state tile at minimum.
	if n := strings.Count(svg, "<rect"); n < len(geo.States()) {
		t.Errorf("only %d rects for %d states", n, len(geo.States()))
	}
}

func TestSVGEscapesLabels(t *testing.T) {
	m := Map{Title: `<script>alert("x")</script>`, Shades: []Shade{
		{State: "CA", Mean: 3, Support: 1, Label: `a<b & "c"`, Icons: "♂"},
	}}
	svg := m.SVG()
	if strings.Contains(svg, "<script>") {
		t.Error("title not escaped")
	}
	if strings.Contains(svg, `a<b`) {
		t.Error("label not escaped")
	}
}

func TestASCIIPlain(t *testing.T) {
	m := Map{Title: "SM — Toy Story", Shades: testShades()}
	out := m.ASCII(false)
	if strings.Contains(out, "\x1b[") {
		t.Error("plain ASCII contains ANSI escapes")
	}
	for _, want := range []string{"SM — Toy Story", "CA 4.4", "MA 4.1", "NY 3.6", "μ=4.40", "n=812"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII missing %q", want)
		}
	}
	// Unshaded states render lowercase.
	if !strings.Contains(out, " tx ") {
		t.Error("unshaded TX tile missing")
	}
}

func TestASCIIColor(t *testing.T) {
	m := Map{Title: "t", Shades: testShades()}
	out := m.ASCII(true)
	if !strings.Contains(out, "\x1b[48;2;") {
		t.Error("colored ASCII lacks 24-bit background escapes")
	}
	if !strings.Contains(out, "\x1b[0m") {
		t.Error("colored ASCII lacks resets")
	}
}

func TestDominantShadePerState(t *testing.T) {
	m := Map{Shades: []Shade{
		{State: "CA", Mean: 2.0, Support: 10, Label: "small"},
		{State: "CA", Mean: 4.5, Support: 400, Label: "big"},
	}}
	svg := m.SVG()
	if !strings.Contains(svg, Hex(4.5)) {
		t.Error("dominant (larger) shade should fill the tile")
	}
	// Both groups still listed in the legend.
	if !strings.Contains(svg, "small") || !strings.Contains(svg, "big") {
		t.Error("legend must list every shade")
	}
}

// TestTilesRule pins the one tile rule: most ratings wins a state, the
// earlier shade wins a tie, tiles keep their states' first-appearance
// order, and a shade without a state fills no tile.
func TestTilesRule(t *testing.T) {
	m := Map{Shades: []Shade{
		{State: "TX", Support: 5, Label: "tx first"},
		{Support: 900, Label: "framework"},
		{State: "CA", Support: 10, Label: "ca small"},
		{State: "TX", Support: 5, Label: "tx tie"},
		{State: "CA", Support: 400, Label: "ca big"},
	}}
	var got []string
	for _, tile := range m.Tiles() {
		got = append(got, tile.State+":"+tile.Label)
	}
	if want := []string{"TX:tx first", "CA:ca big"}; !slices.Equal(got, want) {
		t.Errorf("tiles %v, want %v", got, want)
	}
}

func TestExplorationASCII(t *testing.T) {
	e := Exploration{
		Query: `movie:"Toy Story"`,
		Maps: []Map{
			{Title: "Similarity Mining", Shades: testShades()},
			{Title: "Diversity Mining", Shades: testShades()[:1]},
		},
	}
	out := e.ASCII(false)
	if !strings.Contains(out, `movie:"Toy Story"`) ||
		!strings.Contains(out, "Similarity Mining") ||
		!strings.Contains(out, "Diversity Mining") {
		t.Errorf("exploration output incomplete:\n%s", out)
	}
}

func BenchmarkSVG(b *testing.B) {
	m := Map{Title: "bench", Shades: testShades()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.SVG()) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkASCIIColor(b *testing.B) {
	m := Map{Title: "bench", Shades: testShades()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.ASCII(true)) == 0 {
			b.Fatal("empty")
		}
	}
}
