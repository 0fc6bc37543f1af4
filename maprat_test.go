package maprat

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/model"
)

var (
	engOnce sync.Once
	engMemo *Engine

	coldOnce sync.Once
	coldMemo *Engine
)

// testEngine memoizes one engine over the small synthetic dataset.
func testEngine(t testing.TB) *Engine {
	t.Helper()
	engOnce.Do(func() {
		ds, err := Generate(SmallGenConfig())
		if err != nil {
			panic(err)
		}
		engMemo, err = Open(ds, nil)
		if err != nil {
			panic(err)
		}
	})
	return engMemo
}

// coldOptions turns the result cache and the plan tier both off: an
// engine opened with them runs resolve, gather, cube build and mining
// from scratch on every read, the oracle the cached paths are checked
// against.
func coldOptions() *Options {
	o := DefaultOptions()
	o.Store.CacheSize, o.Store.PlanCacheTuples = 0, 0
	return &o
}

// testColdEngine memoizes one cold engine over testEngine's dataset.
func testColdEngine(t testing.TB) *Engine {
	t.Helper()
	ds := testEngine(t).Dataset()
	coldOnce.Do(func() {
		var err error
		coldMemo, err = Open(ds, coldOptions())
		if err != nil {
			panic(err)
		}
	})
	return coldMemo
}

func mustQuery(t testing.TB, e *Engine, s string) Query {
	t.Helper()
	q, err := e.ParseQuery(s)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", s, err)
	}
	return q
}

func TestExplainToyStory(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(ex.ItemIDs) != 1 {
		t.Fatalf("ItemIDs = %v", ex.ItemIDs)
	}
	if ex.NumRatings < 100 {
		t.Fatalf("NumRatings = %d, planted Toy Story should be popular", ex.NumRatings)
	}
	if ex.Overall.Mean() < 3.5 {
		t.Errorf("overall mean = %.2f, planted quality 4.25", ex.Overall.Mean())
	}
	if len(ex.Results) != 2 {
		t.Fatalf("Results = %d tasks, want SM and DM", len(ex.Results))
	}

	sm := ex.Result(SimilarityMining)
	if sm == nil || !sm.Feasible {
		t.Fatalf("SM result unusable: %+v", sm)
	}
	if len(sm.Groups) == 0 || len(sm.Groups) > 3 {
		t.Fatalf("SM groups = %d, want 1..3", len(sm.Groups))
	}
	for _, g := range sm.Groups {
		if g.State == "" {
			t.Errorf("group %v lacks the mandatory geo-condition", g.Key)
		}
		if g.Phrase == "" || g.Icons == "" {
			t.Errorf("group %v missing captions", g.Key)
		}
		if g.Agg.Count == 0 {
			t.Errorf("group %v empty", g.Key)
		}
	}
	if sm.Coverage < sm.RelaxedCoverage-1e-9 {
		t.Errorf("coverage %f below the α actually enforced %f", sm.Coverage, sm.RelaxedCoverage)
	}

	dm := ex.Result(DiversityMining)
	if dm == nil || !dm.Feasible || len(dm.Groups) < 2 {
		t.Fatalf("DM result unusable: %+v", dm)
	}
}

func TestExplainCacheHit(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `movie:"Heat"`)
	req := ExplainRequest{Query: q}
	first, err := e.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Fatal("first call claims cache hit")
	}
	second, err := e.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("second call missed the cache")
	}
	if second.NumRatings != first.NumRatings || len(second.Results) != len(first.Results) {
		t.Error("cached explanation differs")
	}
	cold := testColdEngine(t)
	for i := 0; i < 2; i++ {
		ex, err := cold.ExplainContext(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if ex.FromCache {
			t.Errorf("call %d on a cache-off engine claims a cache hit", i)
		}
	}
}

// TestExplainLookupsCountedOnce: each explain counts one result-cache
// lookup. N distinct explains then the same N again are N misses and N
// hits; the singleflight leader's re-check of a key its caller just
// missed must not count a second miss.
func TestExplainLookupsCountedOnce(t *testing.T) {
	e := freshEngine(t)
	queries := []string{`movie:"Heat"`, `movie:"Jaws"`, `genre:Drama`, `genre:Comedy`}
	for round := 0; round < 2; round++ {
		for _, qs := range queries {
			if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: mustQuery(t, e, qs)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := uint64(len(queries))
	if hits, misses := e.Store().Cache().Stats(); hits+misses != 2*n || misses != n {
		t.Errorf("%d explains counted %d hits and %d misses, want %d and %d", 2*n, hits, misses, n, n)
	}
}

// TestExplainCacheKeyExactFloats: settings that differ below the old
// key's printed precision (coverage at 3 decimals, the sibling boost at
// 2) must not share a cached result.
func TestExplainCacheKeyExactFloats(t *testing.T) {
	e := freshEngine(t)
	q := mustQuery(t, e, `movie:"Jaws"`)
	for _, c := range []struct {
		name string
		set  func(s *Settings, v float64)
		a, b float64
	}{
		{"coverage", func(s *Settings, v float64) { s.Coverage = v }, 0.2001, 0.2004},
		{"sibling boost", func(s *Settings, v float64) { s.SiblingBoost = v }, 1.501, 1.504},
	} {
		req := func(v float64) ExplainRequest {
			s := DefaultSettings()
			c.set(&s, v)
			return ExplainRequest{Query: q, Settings: s}
		}
		if _, err := e.ExplainContext(t.Context(), req(c.a)); err != nil {
			t.Fatal(err)
		}
		got, err := e.ExplainContext(t.Context(), req(c.b))
		if err != nil {
			t.Fatal(err)
		}
		if got.FromCache {
			t.Errorf("%s %g served the cached result for %g", c.name, c.b, c.a)
		}
		if c.name == "coverage" {
			for _, tr := range got.Results {
				if tr.RelaxedCoverage != c.b {
					t.Errorf("%v relaxed coverage = %g, want %g", tr.Task, tr.RelaxedCoverage, c.b)
				}
			}
		}
	}
}

// TestSettingsKeyCoversEveryField: a Settings field the result and memo
// keys leave out would let two requests that mine differently share an
// entry. Each field is moved off its default in turn, and the key must
// move with it.
func TestSettingsKeyCoversEveryField(t *testing.T) {
	base := DefaultSettings()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		s := base
		f := reflect.ValueOf(&s).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.Array:
			f.Index(0).SetInt(f.Index(0).Int() + 1)
		default:
			t.Fatalf("Settings.%s: no change defined for kind %v", typ.Field(i).Name, f.Kind())
		}
		if settingsKey(s) == settingsKey(base) {
			t.Errorf("settingsKey ignores Settings.%s", typ.Field(i).Name)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"No Such Movie Exists"`)
	if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q}); !errors.Is(err, ErrNoItems) {
		t.Errorf("want ErrNoItems, got %v", err)
	}
	q2 := mustQuery(t, e, `movie:"Toy Story"`)
	q2.Window = TimeWindow{From: 1, To: 2} // before any rating
	if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q2}); !errors.Is(err, ErrNoRatings) {
		t.Errorf("want ErrNoRatings, got %v", err)
	}
}

func TestExplainPolarizedDM(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"The Twilight Saga: Eclipse"`)
	// The intro's Twilight analysis is framework-mode (no geo anchoring):
	// the disagreeing sub-populations are demographic, not geographic.
	q.Framework = true
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.10
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{
		Query: q, Settings: s, Tasks: []Task{DiversityMining},
	})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if m := ex.Overall.Mean(); m < 2.0 || m > 3.0 {
		t.Errorf("Eclipse overall mean = %.2f, want ≈ 2.4 (paper: 4.8/10)", m)
	}
	dm := ex.Result(DiversityMining)
	if dm == nil || len(dm.Groups) < 2 {
		t.Fatalf("DM groups: %+v", dm)
	}
	// The polarized structure must surface: some pair of returned groups
	// disagrees by at least 1.2 stars.
	maxGap := 0.0
	for i := range dm.Groups {
		for j := i + 1; j < len(dm.Groups); j++ {
			gap := dm.Groups[i].Agg.Mean() - dm.Groups[j].Agg.Mean()
			if gap < 0 {
				gap = -gap
			}
			if gap > maxGap {
				maxGap = gap
			}
		}
	}
	if maxGap < 1.2 {
		t.Errorf("DM max pair gap = %.2f on the polarized title, want ≥ 1.2\ngroups: %+v",
			maxGap, dm.Groups)
	}
}

func TestExplainWithProfile(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Forrest Gump"`)
	s := DefaultSettings()
	s.Profile = cube.KeyAll.With(cube.Gender, int16(model.Female))
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Settings: s, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatalf("Explain with profile: %v", err)
	}
	for _, g := range ex.Result(SimilarityMining).Groups {
		if g.Key.Has(cube.Gender) && g.Key[cube.Gender] != int16(model.Female) {
			t.Errorf("profile violated: %v", g.Key)
		}
	}
}

func TestExplainConjunctiveQuery(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `director:"Steven Spielberg" AND genre:Thriller`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	for _, id := range ex.ItemIDs {
		it := e.Dataset().ItemByID(id)
		hasDir := false
		for _, d := range it.Directors {
			if d == "Steven Spielberg" {
				hasDir = true
			}
		}
		if !hasDir {
			t.Errorf("item %q not by Spielberg", it.Title)
		}
	}
}

func TestExploreGroup(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	g := ex.Result(SimilarityMining).Groups[0]
	ge, err := e.ExploreFullContext(t.Context(), q, g.Key, 6, -1)
	if err != nil {
		t.Fatalf("ExploreFullContext: %v", err)
	}
	st := ge.Stats
	if st.Agg != g.Agg {
		t.Errorf("explore agg %+v != explain agg %+v", st.Agg, g.Agg)
	}
	if len(st.Timeline) == 0 {
		t.Error("no timeline")
	}
	hist := 0
	for s := model.MinScore; s <= model.MaxScore; s++ {
		hist += st.Histogram[s]
	}
	if hist != st.Agg.Count {
		t.Errorf("histogram total %d != count %d", hist, st.Agg.Count)
	}
	if g.State != "" && len(st.Cities) == 0 {
		t.Error("geo-anchored group has no city drill-down")
	}
}

// TestExploreFullV1Unification pins the GroupExploration unification: the
// one-call exploration returns exactly the stats and related groups of a
// refinement-free exploration plus what the separate RefineGroupContext
// returns, and a negative refine limit skips the refinement stage.
func TestExploreFullV1Unification(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	key := ex.Result(SimilarityMining).Groups[0].Key

	ge, err := e.ExploreFullContext(t.Context(), q, key, 6, 0)
	if err != nil {
		t.Fatalf("ExploreFullContext: %v", err)
	}
	bare, err := e.ExploreFullContext(t.Context(), q, key, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ge.Stats, bare.Stats) {
		t.Errorf("unified stats diverge:\n%+v\n%+v", ge.Stats, bare.Stats)
	}
	if !reflect.DeepEqual(ge.Related, bare.Related) {
		t.Errorf("unified related groups diverge")
	}
	refs, err := e.RefineGroupContext(t.Context(), q, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ge.Refinements, refs) {
		t.Errorf("unified refinements diverge:\n%+v\n%+v", ge.Refinements, refs)
	}

	limited, err := e.ExploreFullContext(t.Context(), q, key, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) > 2 && len(limited.Refinements) != 2 {
		t.Errorf("refine limit 2 returned %d refinements", len(limited.Refinements))
	}
	skipped, err := e.ExploreFullContext(t.Context(), q, key, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	if skipped.Refinements != nil {
		t.Errorf("refineLimit -1 still computed %d refinements", len(skipped.Refinements))
	}
}

func TestExploreGroupUnknownKey(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	bogus := cube.KeyAll.With(cube.State, cube.StateIndex("WY")).With(cube.Occupation, 8)
	if _, err := e.ExploreFullContext(t.Context(), q, bogus, 4, -1); err == nil {
		t.Error("unknown group should fail")
	}
}

func TestEvolution(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	points, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatalf("Evolution: %v", err)
	}
	if len(points) < 7 {
		t.Fatalf("evolution points = %d, want ≥ 7 yearly windows", len(points))
	}
	mined := 0
	for _, p := range points {
		if p.Err == nil && p.Explanation != nil {
			mined++
			if !p.Explanation.Query.Window.Contains(p.Window.From) {
				t.Error("explanation window mismatch")
			}
		}
	}
	if mined < 4 {
		t.Errorf("only %d windows mined successfully", mined)
	}
}

func TestRenderExploration(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	v := RenderExploration(ex)
	if len(v.Maps) != 2 {
		t.Fatalf("maps = %d, want SM + DM", len(v.Maps))
	}
	ascii := v.ASCII(false)
	if !strings.Contains(ascii, "Similarity Mining") || !strings.Contains(ascii, "Diversity Mining") {
		t.Error("exploration missing task titles")
	}
	svg := v.Maps[0].SVG()
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("SVG rendering broken")
	}
}

func TestDeterministicExplain(t *testing.T) {
	e := testColdEngine(t)
	q := mustQuery(t, e, `movie:"Jurassic Park"`)
	a, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range a.Results {
		ga, gb := a.Results[ti].Groups, b.Results[ti].Groups
		if len(ga) != len(gb) {
			t.Fatalf("task %d group counts differ", ti)
		}
		for i := range ga {
			if ga[i].Key != gb[i].Key {
				t.Fatalf("task %d group %d: %v vs %v", ti, i, ga[i].Key, gb[i].Key)
			}
		}
	}
}

func TestOpenNilDataset(t *testing.T) {
	if _, err := Open(nil, nil); err == nil {
		t.Error("Open(nil) should fail")
	}
}

// TestOpenRejectsInvalidRatings: an in-memory dataset reaches the engine
// through the same validating join as every other source. Before it did,
// a score-9 rating opened, explained as μ = 9.00, and panicked the first
// group click on the score histogram.
func TestOpenRejectsInvalidRatings(t *testing.T) {
	base := testEngine(t).Dataset()
	good := base.Ratings[0]
	for _, tc := range []struct {
		name string
		mut  func(r *model.Rating)
	}{
		{"score 9", func(r *model.Rating) { r.Score = 9 }},
		{"unknown item", func(r *model.Rating) { r.ItemID = 99999999 }},
		{"timestamp past year 9999", func(r *model.Rating) { r.Unix = firstUnixOfYear10000 }},
		// About year -93,000: the evolution sweep would hold 95,101 windows.
		{"timestamp before year 1", func(r *model.Rating) { r.Unix = -3_000_000_000_000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := good
			tc.mut(&bad)
			ds, err := model.NewDataset(base.Users, base.Items, []model.Rating{good, bad})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(ds, nil); err == nil {
				t.Errorf("Open accepted a dataset with a bad rating (%s)", tc.name)
			}
		})
	}
}

// TestOpenRejectsOrphanRatings: LoadDir checks a text directory's users
// and items, not its ratings. A rating of a user or item the directory
// does not define, or one with a score out of range, loads and then
// fails both paths that use the loaded dataset: Open, and WriteSnapshot
// (`maprat snap pack`), which writes nothing.
func TestOpenRejectsOrphanRatings(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 80, 30, 900
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"unknown item": "1::999999::5::978300760\n",
		"unknown user": "999999::1::5::978300760\n",
		"score 9":      "1::1::9::978300760\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := WriteDir(dir, ds); err != nil {
				t.Fatal(err)
			}
			ratings := filepath.Join(dir, "ratings.dat")
			f, err := os.OpenFile(ratings, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(bad); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			want := "999999"
			if name == "score 9" {
				want = "score 9"
			}
			if _, err := Open(loaded, nil); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Open: err = %v, want one naming %q", err, want)
			}
			out := filepath.Join(dir, "packed.msnap")
			if err := WriteSnapshot(out, loaded, SnapshotMeta{Source: "text"}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("WriteSnapshot: err = %v, want one naming %q", err, want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("WriteSnapshot left %s behind (stat: %v)", out, err)
			}
		})
	}
}

func TestGenerateReExports(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 100, 40, 1500
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != 100 {
		t.Errorf("users = %d", len(ds.Users))
	}
	if DefaultGenConfig().Ratings != 1_000_000 {
		t.Error("DefaultGenConfig should be 1M scale")
	}
}

func TestWriteLoadRoundTripViaFacade(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 80, 30, 900
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDir(dir, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ratings) != len(ds.Ratings) {
		t.Errorf("round trip ratings %d != %d", len(back.Ratings), len(ds.Ratings))
	}
}

func TestRefineGroup(t *testing.T) {
	e := testEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, Tasks: []Task{SimilarityMining}})
	if err != nil {
		t.Fatal(err)
	}
	parent := ex.Result(SimilarityMining).Groups[0]
	refs, err := e.RefineGroupContext(t.Context(), q, parent.Key, 5)
	if err != nil {
		t.Fatalf("RefineGroup: %v", err)
	}
	if len(refs) == 0 {
		t.Fatal("no refinements for the top group")
	}
	if len(refs) > 5 {
		t.Fatalf("limit ignored: %d refinements", len(refs))
	}
	for _, r := range refs {
		if !parent.Key.Contains(r.Group.Key) {
			t.Errorf("refinement %v escapes parent %v", r.Group.Key, parent.Key)
		}
		if r.Group.Key.NumConstrained() != parent.Key.NumConstrained()+1 {
			t.Errorf("refinement %v is not one level deeper", r.Group.Key)
		}
		wantDelta := r.Group.Agg.Mean() - parent.Agg.Mean()
		if d := r.Delta - wantDelta; d > 1e-9 || d < -1e-9 {
			t.Errorf("delta %f, want %f", r.Delta, wantDelta)
		}
		if r.Added == "" {
			t.Error("refinement missing the added attribute name")
		}
	}
	// Unknown group fails.
	bogus := cube.KeyAll.With(cube.State, cube.StateIndex("WY")).With(cube.Occupation, 8)
	if _, err := e.RefineGroupContext(t.Context(), q, bogus, 3); err == nil {
		t.Error("unknown group should fail")
	}
}

func TestBrowseStates(t *testing.T) {
	e := testEngine(t)
	states, err := e.BrowseStatesAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no browse states")
	}
	total := 0
	seen := map[string]bool{}
	for i, st := range states {
		if seen[st.State] {
			t.Errorf("duplicate state %s", st.State)
		}
		seen[st.State] = true
		total += st.Agg.Count
		if i > 0 && states[i-1].Agg.Count < st.Agg.Count {
			t.Error("browse states not sorted by count")
		}
	}
	// Every rating belongs to exactly one state (all zips resolve).
	if total != len(e.Dataset().Ratings) {
		t.Errorf("state totals %d != ratings %d", total, len(e.Dataset().Ratings))
	}
}

func TestExplainConcurrent(t *testing.T) {
	e := testEngine(t)
	queries := []string{
		`movie:"Toy Story"`, `actor:"Tom Hanks"`, `movie:"Heat"`,
		`genre:Animation`, `director:"Woody Allen"`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := mustQuery(t, e, queries[(g+i)%len(queries)])
				if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent explain: %v", err)
	}
}

// TestAdaptCubeConfig pins the MinSupport adaptation: it scales down to
// |R_I|/50 on small inputs, never below 3 unless the caller asked for
// less, and never above the caller's value.
func TestAdaptCubeConfig(t *testing.T) {
	cases := []struct{ base, tuples, want int }{
		{1, 40, 1}, {1, 600, 1}, {1, 10_000, 1},
		{3, 40, 3}, {3, 600, 3}, {3, 10_000, 3},
		{12, 40, 3}, {12, 600, 12}, {12, 10_000, 12},
	}
	for _, c := range cases {
		cfg := cube.DefaultConfig()
		cfg.MinSupport = c.base
		got := AdaptCubeConfig(cfg, c.tuples)
		if got.MinSupport != c.want {
			t.Errorf("MinSupport %d with %d tuples: got %d, want %d", c.base, c.tuples, got.MinSupport, c.want)
		}
		got.MinSupport = cfg.MinSupport
		if got != cfg {
			t.Errorf("MinSupport %d with %d tuples: changed more than MinSupport: %+v", c.base, c.tuples, got)
		}
	}
}
