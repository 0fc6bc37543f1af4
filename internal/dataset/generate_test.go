package dataset

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

var (
	smallOnce sync.Once
	smallDS   *model.Dataset
	smallErr  error
)

// generateSmall memoizes one small dataset across the package's tests.
func generateSmall(t *testing.T) *model.Dataset {
	t.Helper()
	smallOnce.Do(func() {
		smallDS, smallErr = Generate(SmallGenConfig())
	})
	if smallErr != nil {
		t.Fatalf("Generate: %v", smallErr)
	}
	return smallDS
}

func TestGenerateShape(t *testing.T) {
	cfg := SmallGenConfig()
	d := generateSmall(t)
	if len(d.Users) != cfg.Users {
		t.Errorf("users = %d, want %d", len(d.Users), cfg.Users)
	}
	if len(d.Items) != cfg.Movies {
		t.Errorf("movies = %d, want %d", len(d.Items), cfg.Movies)
	}
	got, want := float64(len(d.Ratings)), float64(cfg.Ratings)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("ratings = %d, want within 15%% of %d", len(d.Ratings), cfg.Ratings)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 200, 60, 4000
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ratings) != len(b.Ratings) {
		t.Fatal("rating counts differ across identical configs")
	}
	for i := range a.Ratings {
		if a.Ratings[i] != b.Ratings[i] {
			t.Fatalf("rating %d differs: %+v vs %+v", i, a.Ratings[i], b.Ratings[i])
		}
	}
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			t.Fatalf("user %d differs", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 2
	c, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Ratings) == len(a.Ratings)
	if same {
		diff := false
		for i := range a.Ratings {
			if a.Ratings[i] != c.Ratings[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical rating logs")
	}
}

func TestGenerateInvalidConfigs(t *testing.T) {
	bad := []GenConfig{
		{},
		{Users: 10, Movies: 5, Ratings: 100}, // fewer movies than planted catalog
		func() GenConfig {
			c := SmallGenConfig()
			c.End = c.Start
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

// itemsTitled returns the catalog items with exactly this title.
func itemsTitled(d *model.Dataset, title string) []*model.Item {
	var out []*model.Item
	for i := range d.Items {
		if d.Items[i].Title == title {
			out = append(out, &d.Items[i])
		}
	}
	return out
}

func TestGeneratePlantedCatalogPresent(t *testing.T) {
	d := generateSmall(t)
	for _, p := range PlantedMovies {
		items := itemsTitled(d, p.Title)
		if len(items) != 1 {
			t.Errorf("planted title %q: found %d items", p.Title, len(items))
			continue
		}
		it := items[0]
		if it.Year != p.Year {
			t.Errorf("%q year = %d, want %d", p.Title, it.Year, p.Year)
		}
		if len(it.Actors) == 0 || len(it.Directors) == 0 {
			t.Errorf("%q missing cast", p.Title)
		}
	}
}

func TestGeneratePlantedMoviesPopular(t *testing.T) {
	d := generateSmall(t)
	counts := map[int]int{}
	for _, r := range d.Ratings {
		counts[r.ItemID]++
	}
	// Planted movies occupy the top popularity ranks; each must collect a
	// healthy rating sample for the demo queries.
	for i := range PlantedMovies {
		if counts[i+1] < 50 {
			t.Errorf("planted movie %q has only %d ratings", PlantedMovies[i].Title, counts[i+1])
		}
	}
}

func TestGenerateDemographicMarginals(t *testing.T) {
	d := generateSmall(t)
	males := 0
	for i := range d.Users {
		if d.Users[i].Gender == model.Male {
			males++
		}
	}
	share := float64(males) / float64(len(d.Users))
	if math.Abs(share-maleShare) > 0.04 {
		t.Errorf("male share = %.3f, want ≈ %.2f", share, maleShare)
	}
	states := map[string]int{}
	unresolved := 0
	for i := range d.Users {
		if d.Users[i].State == "" {
			unresolved++
		} else {
			states[d.Users[i].State]++
		}
	}
	if unresolved > 0 {
		t.Errorf("%d users with unresolvable zips", unresolved)
	}
	if states["CA"] < states["WY"] {
		t.Error("California should dominate Wyoming in the population model")
	}
}

func TestGenerateTimestampsInWindow(t *testing.T) {
	cfg := SmallGenConfig()
	d := generateSmall(t)
	lo, hi := cfg.Start.Unix(), cfg.End.Unix()
	var minTS, maxTS int64 = math.MaxInt64, 0
	for _, r := range d.Ratings {
		if r.Unix < lo || r.Unix > hi {
			t.Fatalf("rating timestamp %d outside window [%d,%d]", r.Unix, lo, hi)
		}
		if r.Unix < minTS {
			minTS = r.Unix
		}
		if r.Unix > maxTS {
			maxTS = r.Unix
		}
	}
	// The log should span most of the window (time-slider demo needs it).
	span := float64(maxTS-minTS) / float64(hi-lo)
	if span < 0.75 {
		t.Errorf("rating log spans only %.0f%% of the window", span*100)
	}
}

func TestGenerateNoDuplicateUserMoviePairs(t *testing.T) {
	d := generateSmall(t)
	seen := make(map[int64]bool, len(d.Ratings))
	for _, r := range d.Ratings {
		key := int64(r.UserID)<<32 | int64(r.ItemID)
		if seen[key] {
			t.Fatalf("duplicate rating for user %d movie %d", r.UserID, r.ItemID)
		}
		seen[key] = true
	}
}

func TestGeneratePolarizedStructure(t *testing.T) {
	d := generateSmall(t)
	eclipse := itemsTitled(d, "The Twilight Saga: Eclipse")
	if len(eclipse) != 1 {
		t.Fatal("Eclipse missing")
	}
	id := eclipse[0].ID
	var maleU18, femaleU18, all sumCount
	for _, r := range d.Ratings {
		if r.ItemID != id {
			continue
		}
		all.add(r.Score)
		u := d.UserByID(int(r.UserID))
		if u.Age == model.AgeUnder18 {
			if u.Gender == model.Male {
				maleU18.add(r.Score)
			} else {
				femaleU18.add(r.Score)
			}
		}
	}
	if all.n < 100 {
		t.Fatalf("Eclipse has only %d ratings", all.n)
	}
	if m := all.mean(); m < 2.0 || m > 3.0 {
		t.Errorf("Eclipse overall mean = %.2f, want ≈ 2.4 (paper: 4.8/10)", m)
	}
	if maleU18.n < 5 || femaleU18.n < 5 {
		t.Skipf("too few under-18 ratings to check the split (%d male, %d female)", maleU18.n, femaleU18.n)
	}
	gap := femaleU18.mean() - maleU18.mean()
	if gap < 1.5 {
		t.Errorf("female-U18 minus male-U18 gap = %.2f, want ≥ 1.5 (intro's DM example)", gap)
	}
}

func TestGenerateAnimationAffinity(t *testing.T) {
	d := generateSmall(t)
	toyStory := itemsTitled(d, "Toy Story")[0]
	var under18, over50 sumCount
	for _, r := range d.Ratings {
		if r.ItemID != toyStory.ID {
			continue
		}
		u := d.UserByID(int(r.UserID))
		switch {
		case u.Age == model.AgeUnder18:
			under18.add(r.Score)
		case u.Age >= model.Age50to55:
			over50.add(r.Score)
		}
	}
	if under18.n < 10 || over50.n < 10 {
		t.Skipf("too few ratings to compare (%d under-18, %d 50+)", under18.n, over50.n)
	}
	if under18.mean() <= over50.mean() {
		t.Errorf("planted animation affinity missing: under-18 mean %.2f ≤ 50+ mean %.2f",
			under18.mean(), over50.mean())
	}
}

func TestGenerateDriftObservable(t *testing.T) {
	cfg := SmallGenConfig()
	d := generateSmall(t)
	toyStory := itemsTitled(d, "Toy Story")[0]
	mid := cfg.Start.Unix() + (cfg.End.Unix()-cfg.Start.Unix())/2
	var early, late sumCount
	for _, r := range d.Ratings {
		if r.ItemID != toyStory.ID {
			continue
		}
		if r.Unix < mid {
			early.add(r.Score)
		} else {
			late.add(r.Score)
		}
	}
	if early.n < 20 || late.n < 20 {
		t.Skipf("too few ratings per half (%d, %d)", early.n, late.n)
	}
	// Toy Story is planted with drift -0.30: later ratings trend lower.
	if early.mean() <= late.mean() {
		t.Errorf("planted negative drift missing: early %.2f ≤ late %.2f", early.mean(), late.mean())
	}
}

type sumCount struct {
	sum, n int
}

func (s *sumCount) add(score int8) { s.sum += int(score); s.n++ }
func (s *sumCount) mean() float64  { return float64(s.sum) / float64(s.n) }

func TestDefaultConfigWindow(t *testing.T) {
	cfg := DefaultGenConfig()
	if cfg.Users != 6040 || cfg.Movies != 3900 || cfg.Ratings != 1_000_000 {
		t.Errorf("default scale = %+v, want MovieLens 1M scale", cfg)
	}
	years := cfg.End.Sub(cfg.Start) / (365 * 24 * time.Hour)
	if years < 7 {
		t.Errorf("default window spans %d years, want ≥ 7 for the time slider", years)
	}
}

func TestSyntheticTitlesUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		title := syntheticTitle(i)
		if seen[title] {
			t.Fatalf("syntheticTitle collision at %d: %q", i, title)
		}
		seen[title] = true
	}
}

func TestRoman(t *testing.T) {
	cases := map[int]string{1: "I", 2: "II", 4: "IV", 9: "IX", 14: "XIV", 40: "XL", 1987: "MCMLXXXVII"}
	for n, want := range cases {
		if got := roman(n); got != want {
			t.Errorf("roman(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestPersonNameDistinct(t *testing.T) {
	seen := map[string]bool{}
	n := len(firstNames) * len(lastNames)
	for i := 0; i < n; i++ {
		name := personName(i)
		if seen[name] {
			t.Fatalf("personName collision at %d: %q", i, name)
		}
		seen[name] = true
	}
}
