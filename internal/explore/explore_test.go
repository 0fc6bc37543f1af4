package explore

import (
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/model"
)

// fixtureTuples builds a small deterministic tuple set: CA tuples split
// between two cities with known scores and timestamps, plus NY noise.
func fixtureTuples() []cube.Tuple {
	ca := cube.StateIndex("CA")
	ny := cube.StateIndex("NY")
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	year := int64(365 * 24 * 3600)
	mk := func(state int16, city string, score int8, at int64) cube.Tuple {
		var t cube.Tuple
		t.Vals[cube.Gender] = 0
		t.Vals[cube.Age] = 2
		t.Vals[cube.Occupation] = 12
		t.Vals[cube.State] = state
		t.Vals[cube.City] = cube.CityIndex(city)
		t.Score = score
		t.Unix = at
		return t
	}
	return []cube.Tuple{
		mk(ca, "Los Angeles", 5, base),
		mk(ca, "Los Angeles", 4, base+year),
		mk(ca, "San Francisco", 3, base+2*year),
		mk(ca, "San Francisco", 5, base+3*year),
		mk(ca, "Los Angeles", 4, base+3*year),
		mk(ny, "New York City", 2, base),
		mk(ny, "New York City", 1, base+year),
		mk(ny, "New York City", 2, base+2*year),
	}
}

func buildFixture(t *testing.T) (*cube.Cube, []cube.Tuple) {
	t.Helper()
	tuples := fixtureTuples()
	c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 1, MaxAVPairs: 1})
	if c.Len() == 0 {
		t.Fatal("empty fixture cube")
	}
	return c, tuples
}

func caGroup(t *testing.T, c *cube.Cube) *cube.Group {
	t.Helper()
	g, ok := c.Group(cube.KeyAll.With(cube.State, cube.StateIndex("CA")))
	if !ok {
		t.Fatal("CA group missing")
	}
	return g
}

func TestStatsBasics(t *testing.T) {
	c, tuples := buildFixture(t)
	g := caGroup(t, c)
	st := Stats(tuples, g, 4)

	if st.Agg.Count != 5 {
		t.Fatalf("CA count = %d, want 5", st.Agg.Count)
	}
	wantShare := 5.0 / 8.0
	if st.Share != wantShare {
		t.Errorf("Share = %f, want %f", st.Share, wantShare)
	}
	if st.Histogram[5] != 2 || st.Histogram[4] != 2 || st.Histogram[3] != 1 {
		t.Errorf("histogram = %v", st.Histogram)
	}
	if st.Histogram[1] != 0 || st.Histogram[2] != 0 {
		t.Errorf("histogram has foreign scores: %v", st.Histogram)
	}
	if st.Phrase != "reviewers from California" {
		t.Errorf("Phrase = %q", st.Phrase)
	}
}

func TestStatsCityDrillDown(t *testing.T) {
	c, tuples := buildFixture(t)
	st := Stats(tuples, caGroup(t, c), 4)
	if len(st.Cities) != 2 {
		t.Fatalf("cities = %+v, want LA and SF", st.Cities)
	}
	if st.Cities[0].City != "Los Angeles" || st.Cities[0].Agg.Count != 3 {
		t.Errorf("top city = %+v", st.Cities[0])
	}
	if st.Cities[1].City != "San Francisco" || st.Cities[1].Agg.Count != 2 {
		t.Errorf("second city = %+v", st.Cities[1])
	}
	// City aggregates must sum to the group aggregate.
	var total cube.Agg
	for _, cs := range st.Cities {
		total.Merge(cs.Agg)
	}
	if total != st.Agg {
		t.Errorf("city sum %+v != group %+v", total, st.Agg)
	}
}

func TestStatsTimeline(t *testing.T) {
	c, tuples := buildFixture(t)
	st := Stats(tuples, caGroup(t, c), 4)
	if len(st.Timeline) != 4 {
		t.Fatalf("timeline buckets = %d, want 4", len(st.Timeline))
	}
	total := 0
	for i, b := range st.Timeline {
		total += b.Agg.Count
		if !b.End.After(b.Start) {
			t.Errorf("bucket %d empty span %v..%v", i, b.Start, b.End)
		}
		if i > 0 && !st.Timeline[i-1].End.Equal(b.Start) {
			t.Errorf("bucket %d not contiguous", i)
		}
	}
	if total != st.Agg.Count {
		t.Errorf("timeline total = %d, want %d", total, st.Agg.Count)
	}
	// First bucket holds the base-time score 5.
	if st.Timeline[0].Agg.Count == 0 {
		t.Error("first bucket empty")
	}
}

// TestStatsPreEpochTimeline is the regression test for the maxUnix
// seeding bug: a group whose ratings all predate 1970 (negative Unix)
// must get a timeline spanning exactly its own ratings, not one stretched
// forward to the epoch by a zero-initialized upper bound.
func TestStatsPreEpochTimeline(t *testing.T) {
	ca := cube.StateIndex("CA")
	day := int64(24 * 3600)
	mk := func(score int8, at int64) cube.Tuple {
		var t cube.Tuple
		t.Vals[cube.State] = ca
		t.Vals[cube.City] = cube.CityIndex("Los Angeles")
		t.Score = score
		t.Unix = at
		return t
	}
	tuples := []cube.Tuple{
		mk(5, -300*day),
		mk(4, -200*day),
		mk(3, -100*day),
	}
	c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 1, MaxAVPairs: 1})
	st := Stats(tuples, caGroup(t, c), 4)

	if len(st.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	first, last := st.Timeline[0], st.Timeline[len(st.Timeline)-1]
	if got := first.Start.Unix(); got != -300*day {
		t.Errorf("timeline starts at %d, want the earliest rating %d", got, -300*day)
	}
	// The span must end just past the latest rating; before the fix the
	// zero-seeded maxUnix stretched it to the epoch.
	if got := last.End.Unix(); got != -100*day+1 {
		t.Errorf("timeline ends at %d, want %d (not the epoch)", got, -100*day+1)
	}
	total := 0
	for _, b := range st.Timeline {
		total += b.Agg.Count
	}
	if total != 3 {
		t.Errorf("timeline total = %d, want 3", total)
	}
}

func TestStatsDefaultBuckets(t *testing.T) {
	c, tuples := buildFixture(t)
	st := Stats(tuples, caGroup(t, c), 0)
	if len(st.Timeline) != 8 {
		t.Errorf("default buckets = %d, want 8", len(st.Timeline))
	}
}

func TestStatsStatelessGroupSkipsCities(t *testing.T) {
	tuples := fixtureTuples()
	c := cube.Build(tuples, cube.Config{RequireState: false, MinSupport: 1, MaxAVPairs: 1})
	g, ok := c.Group(cube.KeyAll.With(cube.Gender, 0))
	if !ok {
		t.Fatal("gender group missing")
	}
	st := Stats(tuples, g, 2)
	if len(st.Cities) != 0 {
		t.Errorf("stateless group produced city drill-down: %+v", st.Cities)
	}
}

func TestTimeBucketLabel(t *testing.T) {
	y := TimeBucket{
		Start: time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	if y.Label() != "1998" {
		t.Errorf("year label = %q", y.Label())
	}
	p := TimeBucket{
		Start: time.Date(2001, 7, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2002, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	if p.Label() != "2001-07..2002-01" {
		t.Errorf("partial label = %q", p.Label())
	}
}

func TestRelated(t *testing.T) {
	c, _ := buildFixture(t)
	ca := caGroup(t, c)
	rel := Related(c, ca)
	if len(rel) != 1 {
		t.Fatalf("related = %d groups, want just NY", len(rel))
	}
	if cube.StateCode(rel[0].Key[cube.State]) != "NY" {
		t.Errorf("related group = %v", rel[0].Key)
	}
}

func TestRelatedSortedBySupport(t *testing.T) {
	// Three states; CA's siblings are NY (3 tuples) and TX (1 tuple).
	tuples := fixtureTuples()
	var tx cube.Tuple
	tx.Vals[cube.State] = cube.StateIndex("TX")
	tx.Vals[cube.City] = cube.CityIndex("Houston")
	tx.Score = 3
	tuples = append(tuples, tx)
	c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 1, MaxAVPairs: 1})
	g, _ := c.Group(cube.KeyAll.With(cube.State, cube.StateIndex("CA")))
	rel := Related(c, g)
	if len(rel) != 2 {
		t.Fatalf("related = %d, want 2", len(rel))
	}
	if rel[0].Support() < rel[1].Support() {
		t.Error("related groups not sorted by support")
	}
}

func TestYearWindows(t *testing.T) {
	from := time.Date(1999, 6, 1, 0, 0, 0, 0, time.UTC).Unix()
	to := time.Date(2002, 3, 1, 0, 0, 0, 0, time.UTC).Unix()
	ws := YearWindows(from, to)
	if len(ws) != 4 { // 1999, 2000, 2001, 2002
		t.Fatalf("windows = %d, want 4", len(ws))
	}
	if ws[0].From != from {
		t.Errorf("first window start = %d, want clamp to %d", ws[0].From, from)
	}
	if ws[len(ws)-1].To != to {
		t.Errorf("last window end = %d, want clamp to %d", ws[len(ws)-1].To, to)
	}
	for i, w := range ws {
		if w.To < w.From {
			t.Errorf("window %d inverted: %+v", i, w)
		}
		if i > 0 && ws[i-1].To+1 != w.From {
			t.Errorf("window %d not contiguous with %d", i, i-1)
		}
	}
	if YearWindows(to, from) != nil {
		t.Error("inverted range should yield nil")
	}
}

func TestStatsHistogramMatchesModelBounds(t *testing.T) {
	c, tuples := buildFixture(t)
	st := Stats(tuples, caGroup(t, c), 2)
	sum := 0
	for s := model.MinScore; s <= model.MaxScore; s++ {
		sum += st.Histogram[s]
	}
	if sum != st.Agg.Count {
		t.Errorf("histogram sums to %d, want %d", sum, st.Agg.Count)
	}
}
