package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cube"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/rng"
)

// GenConfig parameterizes the synthetic generator. The defaults reproduce
// the MovieLens 1M scale the paper demos on (§3: ~1M ratings over 3 900
// movies by 6 040 users).
type GenConfig struct {
	Seed   int64
	Users  int
	Movies int
	// Ratings is the target rating count; the realized count differs by a
	// small rounding margin because activity is distributed per user.
	Ratings int
	// Start and End bound rating timestamps. The real MovieLens 1M window
	// is Apr 2000–Feb 2003; the default widens it to 1996–2003 so the
	// paper's time-slider exploration has eight yearly windows to show.
	Start, End time.Time
}

// DefaultGenConfig is the full MovieLens-1M-scale configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:    1,
		Users:   6040,
		Movies:  3900,
		Ratings: 1_000_000,
		Start:   time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC),
		End:     time.Date(2003, 2, 28, 0, 0, 0, 0, time.UTC),
	}
}

// SmallGenConfig is a reduced configuration for unit tests and examples:
// the same planted structure at ~1/12 scale.
func SmallGenConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Users = 1200
	cfg.Movies = 420
	cfg.Ratings = 80_000
	return cfg
}

// Planted describes a hand-placed movie whose rating behaviour the
// generator controls, so the paper's demo scenarios have the structure
// MapRat is supposed to surface. Titles, casts and franchise groupings
// mirror the queries in §3 of the paper.
type Planted struct {
	Title     string
	Year      int
	Genres    []string
	Directors []string
	Actors    []string
	Quality   float64 // base mean score before affinities
	Drift     float64 // linear mean shift across the full time window
	Polarized bool    // Twilight-style gender×age split (intro example)
}

// PlantedMovies is the fixed catalog head. Planted movies receive the top
// popularity ranks, so the demo queries always have ample ratings.
var PlantedMovies = []Planted{
	{Title: "Toy Story", Year: 1995, Genres: []string{"Animation", "Children's", "Comedy"},
		Directors: []string{"John Lasseter"}, Actors: []string{"Tom Hanks", "Tim Allen"},
		Quality: 4.25, Drift: -0.30},
	{Title: "Toy Story 2", Year: 1999, Genres: []string{"Animation", "Children's", "Comedy"},
		Directors: []string{"John Lasseter"}, Actors: []string{"Tom Hanks", "Tim Allen"},
		Quality: 4.10, Drift: -0.10},
	{Title: "The Twilight Saga: Eclipse", Year: 2000, Genres: []string{"Romance", "Drama", "Fantasy"},
		Directors: []string{"David Slade"}, Actors: []string{"Kristen Stewart", "Robert Pattinson"},
		Quality: 2.90, Polarized: true},
	{Title: "The Social Network", Year: 2000, Genres: []string{"Drama"},
		Directors: []string{"David Fincher"}, Actors: []string{"Jesse Eisenberg", "Andrew Garfield"},
		Quality: 4.20, Drift: 0.15},
	{Title: "The Lord of the Rings: The Fellowship of the Ring", Year: 2001,
		Genres:    []string{"Adventure", "Fantasy"},
		Directors: []string{"Peter Jackson"}, Actors: []string{"Elijah Wood", "Ian McKellen"},
		Quality: 4.40, Drift: 0.10},
	{Title: "The Lord of the Rings: The Two Towers", Year: 2002,
		Genres:    []string{"Adventure", "Fantasy"},
		Directors: []string{"Peter Jackson"}, Actors: []string{"Elijah Wood", "Ian McKellen"},
		Quality: 4.35, Drift: 0.10},
	{Title: "The Lord of the Rings: The Return of the King", Year: 2003,
		Genres:    []string{"Adventure", "Fantasy"},
		Directors: []string{"Peter Jackson"}, Actors: []string{"Elijah Wood", "Ian McKellen"},
		Quality: 4.45},
	{Title: "Forrest Gump", Year: 1994, Genres: []string{"Comedy", "Drama", "Romance", "War"},
		Directors: []string{"Robert Zemeckis"}, Actors: []string{"Tom Hanks", "Robin Wright"},
		Quality: 4.15, Drift: -0.05},
	{Title: "Saving Private Ryan", Year: 1998, Genres: []string{"Action", "Drama", "War"},
		Directors: []string{"Steven Spielberg"}, Actors: []string{"Tom Hanks", "Matt Damon"},
		Quality: 4.30, Drift: 0.05},
	{Title: "Cast Away", Year: 2000, Genres: []string{"Drama"},
		Directors: []string{"Robert Zemeckis"}, Actors: []string{"Tom Hanks", "Helen Hunt"},
		Quality: 3.90},
	{Title: "The Green Mile", Year: 1999, Genres: []string{"Drama", "Thriller"},
		Directors: []string{"Frank Darabont"}, Actors: []string{"Tom Hanks", "Michael Clarke Duncan"},
		Quality: 4.10},
	{Title: "Apollo 13", Year: 1995, Genres: []string{"Drama"},
		Directors: []string{"Ron Howard"}, Actors: []string{"Tom Hanks", "Kevin Bacon"},
		Quality: 4.00},
	{Title: "Jurassic Park", Year: 1993, Genres: []string{"Action", "Adventure", "Sci-Fi"},
		Directors: []string{"Steven Spielberg"}, Actors: []string{"Sam Neill", "Laura Dern"},
		Quality: 3.90, Drift: -0.15},
	{Title: "Schindler's List", Year: 1993, Genres: []string{"Drama", "War"},
		Directors: []string{"Steven Spielberg"}, Actors: []string{"Liam Neeson", "Ben Kingsley"},
		Quality: 4.50},
	{Title: "Minority Report", Year: 2002, Genres: []string{"Action", "Sci-Fi", "Thriller"},
		Directors: []string{"Steven Spielberg"}, Actors: []string{"Tom Cruise", "Colin Farrell"},
		Quality: 4.00},
	{Title: "Jaws", Year: 1975, Genres: []string{"Action", "Horror", "Thriller"},
		Directors: []string{"Steven Spielberg"}, Actors: []string{"Roy Scheider", "Richard Dreyfuss"},
		Quality: 4.00},
	{Title: "Annie Hall", Year: 1977, Genres: []string{"Comedy", "Romance"},
		Directors: []string{"Woody Allen"}, Actors: []string{"Woody Allen", "Diane Keaton"},
		Quality: 4.20},
	{Title: "Manhattan", Year: 1979, Genres: []string{"Comedy", "Drama", "Romance"},
		Directors: []string{"Woody Allen"}, Actors: []string{"Woody Allen", "Diane Keaton"},
		Quality: 4.00},
	{Title: "Deconstructing Harry", Year: 1997, Genres: []string{"Comedy", "Drama"},
		Directors: []string{"Woody Allen"}, Actors: []string{"Woody Allen", "Judy Davis"},
		Quality: 3.60},
	{Title: "Heat", Year: 1995, Genres: []string{"Action", "Crime", "Thriller"},
		Directors: []string{"Michael Mann"}, Actors: []string{"Al Pacino", "Robert De Niro"},
		Quality: 4.00},
}

// statePop approximates 2000-census population shares so synthetic
// reviewers concentrate in the states the demo screenshots highlight.
// Minnesota is boosted above census share as a nod to the MovieLens user
// base (GroupLens is at the University of Minnesota).
var statePop = map[string]float64{
	"CA": 12.0, "TX": 7.4, "NY": 6.7, "FL": 5.7, "IL": 4.4, "PA": 4.4,
	"OH": 4.0, "MI": 3.5, "NJ": 3.0, "GA": 2.9, "NC": 2.9, "VA": 2.5,
	"MA": 2.3, "IN": 2.2, "WA": 2.1, "TN": 2.0, "MO": 2.0, "WI": 1.9,
	"MD": 1.9, "AZ": 1.8, "MN": 2.6, "LA": 1.6, "AL": 1.6, "CO": 1.5,
	"KY": 1.4, "SC": 1.4, "OK": 1.2, "OR": 1.2, "CT": 1.2, "IA": 1.0,
	"MS": 1.0, "KS": 0.95, "AR": 0.95, "UT": 0.79, "NV": 0.71, "NM": 0.64,
	"WV": 0.64, "NE": 0.61, "ID": 0.46, "ME": 0.45, "NH": 0.44, "HI": 0.43,
	"RI": 0.37, "MT": 0.32, "DE": 0.28, "SD": 0.27, "ND": 0.23, "AK": 0.22,
	"VT": 0.22, "DC": 0.20, "WY": 0.17,
}

// Demographic priors approximating the published MovieLens 1M marginals
// (~72% male; 25–34 the dominant age bucket).
var (
	maleShare = 0.72
	agePrior  = [model.NumAgeBuckets]float64{0.04, 0.18, 0.35, 0.20, 0.09, 0.08, 0.06}
	occPrior  = [model.NumOccupations]float64{
		0.12, 0.09, 0.045, 0.03, 0.125, 0.02, 0.04, 0.11, 0.005, 0.015,
		0.035, 0.02, 0.07, 0.025, 0.05, 0.025, 0.04, 0.08, 0.015, 0.012, 0.033,
	}
)

// Planted affinity matrices: how much a demographic shifts a genre's score.
// These create the structure MapRat's Similarity Mining is supposed to
// recover (e.g. the young/male animation affinity behind Figure 2).
var genderAffinity = map[model.Gender]map[string]float64{
	model.Male: {
		"Action": 0.30, "War": 0.25, "Sci-Fi": 0.20, "Western": 0.15,
		"Animation": 0.15, "Crime": 0.15, "Horror": 0.10,
		"Romance": -0.35, "Musical": -0.25, "Children's": -0.10, "Drama": -0.05,
	},
	model.Female: {
		"Romance": 0.35, "Drama": 0.20, "Musical": 0.25, "Children's": 0.15,
		"Animation": 0.05,
		"Action":    -0.25, "War": -0.30, "Horror": -0.20, "Sci-Fi": -0.15, "Western": -0.20,
	},
}

var ageAffinity = map[model.AgeBucket]map[string]float64{
	model.AgeUnder18: {
		"Animation": 0.60, "Children's": 0.50, "Fantasy": 0.30, "Comedy": 0.20,
		"Horror": 0.20, "Sci-Fi": 0.15,
		"Film-Noir": -0.40, "Documentary": -0.35, "Western": -0.30, "Drama": -0.20, "War": -0.20,
	},
	model.Age18to24: {
		"Comedy": 0.25, "Horror": 0.25, "Action": 0.20, "Sci-Fi": 0.20, "Animation": 0.20,
		"Musical": -0.25, "Western": -0.25, "Film-Noir": -0.20,
	},
	model.Age25to34: {
		"Thriller": 0.15, "Crime": 0.15, "Sci-Fi": 0.10, "Action": 0.10,
	},
	model.Age35to44: {
		"Drama": 0.15, "Crime": 0.10, "Mystery": 0.10,
	},
	model.Age45to49: {
		"Drama": 0.20, "Documentary": 0.15, "Film-Noir": 0.10, "Musical": 0.10,
		"Animation": -0.15, "Horror": -0.25,
	},
	model.Age50to55: {
		"Western": 0.25, "Musical": 0.20, "Film-Noir": 0.20, "War": 0.15,
		"Horror": -0.35, "Animation": -0.10,
	},
	model.Age56Plus: {
		"Western": 0.35, "Musical": 0.30, "War": 0.25, "Film-Noir": 0.25, "Documentary": 0.20,
		"Horror": -0.45, "Sci-Fi": -0.20, "Animation": -0.15,
	},
}

var occAffinityByLabel = map[string]map[string]float64{
	"K-12 student":         {"Animation": 0.40, "Children's": 0.35, "Fantasy": 0.20},
	"college/grad student": {"Comedy": 0.20, "Sci-Fi": 0.15, "Horror": 0.15},
	"programmer":           {"Sci-Fi": 0.35, "Animation": 0.20, "Fantasy": 0.15},
	"scientist":            {"Sci-Fi": 0.30, "Documentary": 0.20},
	"executive/managerial": {"Drama": 0.15, "Thriller": 0.10},
	"retired":              {"Western": 0.30, "Musical": 0.20, "Film-Noir": 0.15},
	"artist":               {"Documentary": 0.25, "Film-Noir": 0.20, "Musical": 0.15},
	"farmer":               {"Western": 0.35},
	"homemaker":            {"Romance": 0.30, "Drama": 0.10},
	"lawyer":               {"Crime": 0.20, "Thriller": 0.15},
	"writer":               {"Drama": 0.20, "Film-Noir": 0.15},
	"doctor/health care":   {"Documentary": 0.10, "Drama": 0.10},
	"unemployed":           {"Comedy": 0.15},
}

// regionalPlanted gives a few states deliberate genre leanings so the
// choropleth has visible geographic trends (Fig 2's CA/MA/NY pattern).
var regionalPlanted = map[string]map[string]float64{
	"CA": {"Animation": 0.30, "Sci-Fi": 0.15},
	"MA": {"Animation": 0.25, "Documentary": 0.15},
	"NY": {"Drama": 0.20, "Animation": -0.10},
	"TX": {"Action": 0.20, "Western": 0.25},
	"WA": {"Sci-Fi": 0.25},
	"MN": {"Comedy": 0.10},
}

// Generate builds a complete synthetic dataset. The output is a pure
// function of cfg: identical configs produce byte-identical datasets, on
// every GOARCH, because each float product added to something is
// rounded by an explicit float64(x*y) that forbids a fused multiply-add.
func Generate(cfg GenConfig) (*model.Dataset, error) {
	if cfg.Users <= 0 || cfg.Movies <= 0 || cfg.Ratings <= 0 {
		return nil, fmt.Errorf("dataset: non-positive size in config %+v", cfg)
	}
	if cfg.Users > model.MaxID || cfg.Movies > model.MaxID {
		return nil, fmt.Errorf("dataset: IDs 1..%d/1..%d exceed model.MaxID", cfg.Users, cfg.Movies)
	}
	if cfg.Movies < len(PlantedMovies) {
		return nil, fmt.Errorf("dataset: need at least %d movies for the planted catalog", len(PlantedMovies))
	}
	if !cfg.End.After(cfg.Start) {
		return nil, fmt.Errorf("dataset: empty time window %v..%v", cfg.Start, cfg.End)
	}
	g := &generator{cfg: cfg, rng: rng.New(cfg.Seed)}
	g.buildUsers()
	g.buildMovies()
	g.buildRatings()
	return model.NewDataset(g.users, g.items, g.ratings)
}

type generator struct {
	cfg GenConfig
	rng *rand.Rand

	users   []model.User
	items   []model.Item
	ratings []model.Rating

	// per-movie score-model inputs, indexed by item position
	quality   []float64
	drift     []float64
	polarized []bool
	genreIdx  [][]int

	stateCodes []string
	stateCum   []float64
}

func (g *generator) buildUsers() {
	// Cumulative state distribution over the weighted population table.
	g.stateCodes = geo.StateCodes()
	total := 0.0
	for _, c := range g.stateCodes {
		total += statePop[c]
	}
	cum := 0.0
	g.stateCum = make([]float64, len(g.stateCodes))
	for i, c := range g.stateCodes {
		cum += statePop[c] / total
		g.stateCum[i] = cum
	}

	ageCum := cumulative(agePrior[:])
	occCum := cumulative(occPrior[:])

	g.users = make([]model.User, g.cfg.Users)
	for i := range g.users {
		u := &g.users[i]
		u.ID = i + 1
		if g.rng.Float64() < maleShare {
			u.Gender = model.Male
		} else {
			u.Gender = model.Female
		}
		u.Age = model.AgeBucket(pickCum(ageCum, g.rng.Float64()))
		u.Occupation = model.Occupation(pickCum(occCum, g.rng.Float64()))
		state := g.stateCodes[pickCum(g.stateCum, g.rng.Float64())]
		u.Zip = g.zipFor(state)
		cube.ResolveUser(u)
	}
}

// zipFor synthesizes a 5-digit zip inside a state's real prefix allocation.
func (g *generator) zipFor(state string) string {
	prefixes := geo.PrefixesFor(state)
	p := prefixes[g.rng.Intn(len(prefixes))]
	return fmt.Sprintf("%03d%02d", p, g.rng.Intn(100))
}

func (g *generator) buildMovies() {
	n := g.cfg.Movies
	g.items = make([]model.Item, 0, n)
	g.quality = make([]float64, 0, n)
	g.drift = make([]float64, 0, n)
	g.polarized = make([]bool, 0, n)

	for i, p := range PlantedMovies {
		g.items = append(g.items, model.Item{
			ID: i + 1, Title: p.Title, Year: p.Year,
			Genres:    append([]string(nil), p.Genres...),
			Actors:    append([]string(nil), p.Actors...),
			Directors: append([]string(nil), p.Directors...),
		})
		g.quality = append(g.quality, p.Quality)
		g.drift = append(g.drift, p.Drift)
		g.polarized = append(g.polarized, p.Polarized)
	}

	seenTitles := map[string]bool{}
	for i := range g.items {
		seenTitles[g.items[i].Title] = true
	}
	nActors := len(firstNames) * len(lastNames) / 4
	nDirectors := len(firstNames) * len(lastNames) / 12
	for i := len(PlantedMovies); i < n; i++ {
		title := syntheticTitle(i)
		for seenTitles[title] {
			title += " Redux"
		}
		seenTitles[title] = true
		year := 1935 + g.rng.Intn(66) // 1935..2000, recent-heavy below
		if g.rng.Float64() < 0.6 {
			year = 1985 + g.rng.Intn(16)
		}
		genres := g.pickGenres()
		actors := make([]string, 2+g.rng.Intn(4))
		for j := range actors {
			actors[j] = personName(g.rng.Intn(nActors))
		}
		directors := []string{personName(nActors + g.rng.Intn(nDirectors))}
		if g.rng.Float64() < 0.08 {
			directors = append(directors, personName(nActors+g.rng.Intn(nDirectors)))
		}
		g.items = append(g.items, model.Item{
			ID: i + 1, Title: title, Year: year,
			Genres: genres, Actors: actors, Directors: directors,
		})
		q := 3.55 + float64(g.rng.NormFloat64()*0.45)
		g.quality = append(g.quality, clampF(q, 1.8, 4.7))
		g.drift = append(g.drift, clampF(g.rng.NormFloat64()*0.25, -0.5, 0.5))
		g.polarized = append(g.polarized, false)
	}

	g.genreIdx = make([][]int, len(g.items))
	for i := range g.items {
		for _, gn := range g.items[i].Genres {
			if idx := GenreIndex(gn); idx >= 0 {
				g.genreIdx[i] = append(g.genreIdx[i], idx)
			}
		}
	}
}

func (g *generator) pickGenres() []string {
	k := 1 + g.rng.Intn(3)
	seen := map[int]bool{}
	var out []string
	for len(out) < k {
		gi := g.rng.Intn(len(Genres))
		if !seen[gi] {
			seen[gi] = true
			out = append(out, Genres[gi])
		}
	}
	sort.Strings(out)
	return out
}

func (g *generator) buildRatings() {
	// Per-user activity: lognormal, scaled so the total hits cfg.Ratings.
	raw := make([]float64, g.cfg.Users)
	sum := 0.0
	for i := range raw {
		raw[i] = math.Exp(g.rng.NormFloat64() * 0.9)
		sum += raw[i]
	}
	activity := make([]int, g.cfg.Users)
	for i := range raw {
		a := int(float64(raw[i]/sum*float64(g.cfg.Ratings)) + 0.5)
		if a < 3 {
			a = 3
		}
		if cap := g.cfg.Movies * 4 / 5; a > cap {
			a = cap
		}
		activity[i] = a
	}

	// Movie popularity: Zipf over ranks, planted movies on top.
	popCum := make([]float64, g.cfg.Movies)
	cum := 0.0
	for i := 0; i < g.cfg.Movies; i++ {
		cum += math.Pow(float64(i+1), -0.55)
		popCum[i] = cum
	}
	for i := range popCum {
		popCum[i] /= cum
	}

	window := g.cfg.End.Unix() - g.cfg.Start.Unix()
	precomp := g.precomputeAffinities()

	g.ratings = make([]model.Rating, 0, g.cfg.Ratings+g.cfg.Users)
	seen := make(map[int64]bool, 256)
	for ui := range g.users {
		u := &g.users[ui]
		clear(seen)
		// A user rates inside a personal sub-window, so the global rating
		// log spans the whole period with realistic per-user bursts.
		joined := g.cfg.Start.Unix() + int64(g.rng.Float64()*float64(window)*0.8)
		span := int64(float64(window) * (0.05 + float64(g.rng.Float64()*0.20)))
		// Popularity-weighted draws collide on the catalog head, so re-draw
		// duplicates (bounded) to keep the realized count near the target.
		attempts, maxAttempts := 0, activity[ui]*8
		for n := 0; n < activity[ui] && attempts < maxAttempts; attempts++ {
			mi := pickCum(popCum, g.rng.Float64())
			key := int64(ui)<<32 | int64(mi)
			if seen[key] {
				continue
			}
			seen[key] = true
			n++
			ts := joined + int64(g.rng.Float64()*float64(span))
			if ts > g.cfg.End.Unix() {
				ts = g.cfg.End.Unix()
			}
			score := g.score(u, mi, ts, precomp)
			g.ratings = append(g.ratings, model.Rating{
				UserID: int32(u.ID), ItemID: g.items[mi].ID, Score: int8(score), Unix: ts,
			})
		}
	}
}

// affinityTables is the dense precomputation of the sparse planted
// matrices, indexed by [gender|age|occ][genre].
type affinityTables struct {
	gender [model.NumGenders][]float64
	age    [model.NumAgeBuckets][]float64
	occ    [model.NumOccupations][]float64
	// regional[stateIdx][genre] combines planted leanings with small
	// deterministic per-(state,genre) noise so every state has texture.
	regional map[string][]float64
}

func (g *generator) precomputeAffinities() *affinityTables {
	t := &affinityTables{regional: map[string][]float64{}}
	ng := len(Genres)
	fill := func(dst []float64, src map[string]float64) {
		for gn, v := range src {
			dst[GenreIndex(gn)] = v
		}
	}
	for gi := 0; gi < model.NumGenders; gi++ {
		t.gender[gi] = make([]float64, ng)
		fill(t.gender[gi], genderAffinity[model.Gender(gi)])
	}
	for ai := 0; ai < model.NumAgeBuckets; ai++ {
		t.age[ai] = make([]float64, ng)
		fill(t.age[ai], ageAffinity[model.AgeBucket(ai)])
	}
	for oi := 0; oi < model.NumOccupations; oi++ {
		t.occ[oi] = make([]float64, ng)
		fill(t.occ[oi], occAffinityByLabel[model.Occupation(oi).Label()])
	}
	for si, code := range g.stateCodes {
		row := make([]float64, ng)
		for gi := range row {
			row[gi] = noise(g.cfg.Seed, si, gi) * 0.15
		}
		for gn, v := range regionalPlanted[code] {
			row[GenreIndex(gn)] += v
		}
		t.regional[code] = row
	}
	return t
}

// noise derives a deterministic value in [-1,1] from (seed, a, b) via
// SplitMix64, independent of the rng stream so the planted regional texture
// does not shift when sampling order changes.
func noise(seed int64, a, b int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(a)<<32 + uint64(b) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	// x>>11 has 53 bits, so the quotient is exact, in [0, 2).
	return float64(float64(x>>11)/(1<<52)) - 1
}

// score draws one integer rating from the behaviour model.
func (g *generator) score(u *model.User, mi int, ts int64, t *affinityTables) int {
	if g.polarized[mi] {
		return g.polarizedScore(u)
	}
	raw := g.quality[mi]
	genres := g.genreIdx[mi]
	if len(genres) > 0 {
		aff := 0.0
		regional := t.regional[u.State]
		for _, gi := range genres {
			aff += t.gender[u.Gender][gi] + t.age[u.Age][gi] + t.occ[u.Occupation][gi]
			if regional != nil {
				aff += regional[gi]
			}
		}
		raw += aff / float64(len(genres))
	}
	frac := float64(ts-g.cfg.Start.Unix()) / float64(g.cfg.End.Unix()-g.cfg.Start.Unix())
	raw += float64(g.drift[mi] * (frac - 0.5))
	raw += float64(g.rng.NormFloat64() * 0.65)
	return clampScore(raw)
}

// polarizedScore implements the intro's Twilight example: female reviewers
// under 18 and above 45 love the title, male reviewers under 18 hate it,
// and everyone else is lukewarm — so the overall mean lands near the
// paper's 4.8/10 while Diversity Mining finds the sibling split.
func (g *generator) polarizedScore(u *model.User) int {
	base := 2.9
	switch {
	case u.Gender == model.Female && (u.Age == model.AgeUnder18 || u.Age >= model.Age45to49):
		base += 1.8
	case u.Gender == model.Female:
		base += 0.5
	case u.Gender == model.Male && u.Age == model.AgeUnder18:
		base -= 1.9
	default:
		base -= 0.6
	}
	base += float64(g.rng.NormFloat64() * 0.45)
	return clampScore(base)
}

func clampScore(raw float64) int {
	s := int(math.Round(raw))
	if s < model.MinScore {
		return model.MinScore
	}
	if s > model.MaxScore {
		return model.MaxScore
	}
	return s
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// cumulative turns a weight vector into a normalized cumulative
// distribution.
func cumulative(w []float64) []float64 {
	out := make([]float64, len(w))
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	cum := 0.0
	for i, v := range w {
		cum += v / sum
		out[i] = cum
	}
	return out
}

// pickCum samples an index from a cumulative distribution via binary
// search; u must be in [0,1).
func pickCum(cum []float64, u float64) int {
	i := sort.SearchFloat64s(cum, u)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}
