package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cube"
)

// miningTuples builds a deterministic tuple set with planted consistency
// structure: per (gender,state) blocks with distinct means and low noise,
// so SM has consistent groups to find.
func miningTuples(n int, seed int64) []cube.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]cube.Tuple, n)
	for i := range tuples {
		var t cube.Tuple
		t.Vals[cube.Gender] = int16(rng.Intn(2))
		t.Vals[cube.Age] = int16(rng.Intn(7))
		t.Vals[cube.Occupation] = int16(rng.Intn(21))
		t.Vals[cube.State] = int16(rng.Intn(6))
		base := 2.0 + float64(t.Vals[cube.Gender]) + float64(t.Vals[cube.State])*0.3
		score := int(base + rng.Float64()*1.2)
		if score < 1 {
			score = 1
		}
		if score > 5 {
			score = 5
		}
		t.Score = int8(score)
		t.Unix = 1_000_000 + int64(i)
		tuples[i] = t
	}
	return tuples
}

// polarizedTuples plants the intro's Twilight structure: male-under-18 in
// every state hates (score 1-2), female-under-18 loves (4-5), everyone
// else sits in the middle.
func polarizedTuples(n int, seed int64) []cube.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]cube.Tuple, n)
	for i := range tuples {
		var t cube.Tuple
		t.Vals[cube.Gender] = int16(rng.Intn(2))
		t.Vals[cube.Age] = int16(rng.Intn(3)) // young population
		t.Vals[cube.Occupation] = int16(rng.Intn(4))
		t.Vals[cube.State] = int16(rng.Intn(4))
		switch {
		case t.Vals[cube.Gender] == 0 && t.Vals[cube.Age] == 0:
			t.Score = int8(1 + rng.Intn(2)) // male under 18: hates
		case t.Vals[cube.Gender] == 1 && t.Vals[cube.Age] == 0:
			t.Score = int8(4 + rng.Intn(2)) // female under 18: loves
		default:
			t.Score = 3
		}
		t.Unix = 1_000_000 + int64(i)
		tuples[i] = t
	}
	return tuples
}

func buildCube(t testing.TB, tuples []cube.Tuple, cfg cube.Config) *cube.Cube {
	t.Helper()
	c := cube.Build(tuples, cfg)
	if c.Len() == 0 {
		t.Fatal("fixture cube has no groups")
	}
	return c
}

func newProblem(t testing.TB, task Task, c *cube.Cube, s Settings) *Problem {
	t.Helper()
	p, err := NewProblem(task, c, s)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

// solve runs RHE under the test's context and fails the test on error.
func solve(t testing.TB, p *Problem) Solution {
	t.Helper()
	sol, err := p.SolveRHECtx(t.Context())
	if err != nil {
		t.Fatalf("SolveRHECtx: %v", err)
	}
	return sol
}

// solveAt solves p with GOMAXPROCS set to procs, which sizes the RHE
// worker pool (min(GOMAXPROCS, Restarts)), and restores the previous
// setting before it returns.
func solveAt(t testing.TB, procs int, p *Problem) Solution {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return solve(t, p)
}

func TestNewProblemValidation(t *testing.T) {
	c := buildCube(t, miningTuples(400, 1), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 2})

	s := DefaultSettings()
	s.K = 0
	if _, err := NewProblem(SimilarityMining, c, s); err == nil {
		t.Error("K=0 accepted")
	}
	s = DefaultSettings()
	s.Coverage = 1.5
	if _, err := NewProblem(SimilarityMining, c, s); err == nil {
		t.Error("coverage > 1 accepted")
	}
	// NaN fails every comparison, so it must not slip past the range check
	// into the feasibility bound.
	s.Coverage = math.NaN()
	if _, err := NewProblem(SimilarityMining, c, s); err == nil || err == ErrInfeasible {
		t.Errorf("coverage NaN: got %v, want a validation error", err)
	}
	s = DefaultSettings()
	s.K = 1
	if _, err := NewProblem(DiversityMining, c, s); err == nil {
		t.Error("DM with K=1 accepted")
	}
	// A profile nothing matches: no candidates.
	s = DefaultSettings()
	s.Profile = cube.KeyAll.With(cube.State, 40) // state index absent from fixture
	if _, err := NewProblem(SimilarityMining, c, s); err != ErrNoCandidates {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
	// Unreachable coverage.
	small := buildCube(t, miningTuples(400, 1), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 3})
	s = DefaultSettings()
	s.K = 1
	s.Coverage = 0.99
	if _, err := NewProblem(SimilarityMining, small, s); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestCompatible(t *testing.T) {
	maleCA := cube.KeyAll.With(cube.Gender, 0).With(cube.State, cube.StateIndex("CA"))
	profileMale := cube.KeyAll.With(cube.Gender, 0)
	profileFemale := cube.KeyAll.With(cube.Gender, 1)
	if !compatible(maleCA, profileMale) {
		t.Error("male group should fit male profile")
	}
	if compatible(maleCA, profileFemale) {
		t.Error("male group should not fit female profile")
	}
	if !compatible(maleCA, cube.KeyAll) {
		t.Error("empty profile must accept everything")
	}
	stateOnly := cube.KeyAll.With(cube.State, cube.StateIndex("NY"))
	if !compatible(stateOnly, profileFemale) {
		t.Error("group without gender condition fits any gender")
	}
}

func TestEvaluateCoverageAgainstBruteForce(t *testing.T) {
	tuples := miningTuples(500, 3)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 2})
	p := newProblem(t, SimilarityMining, c, DefaultSettings())

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(4)
		sel := map[int]bool{}
		for len(sel) < k {
			sel[rng.Intn(c.Len())] = true
		}
		var selIdx []int
		for gi := range sel {
			selIdx = append(selIdx, gi)
		}
		union := map[int32]bool{}
		for _, gi := range selIdx {
			for _, ti := range c.Groups[gi].Members {
				union[ti] = true
			}
		}
		want := float64(len(union)) / float64(len(tuples))
		if got := coverageOf(p, selIdx); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: coverage %f, brute force %f", trial, got, want)
		}
	}
}

func TestSMErrorHandComputed(t *testing.T) {
	// Two groups: one perfectly consistent (all 4s), one split (1s and 5s).
	tuples := []cube.Tuple{
		{Vals: [cube.NumAttrs]int16{0, 0, 0, 1}, Score: 4},
		{Vals: [cube.NumAttrs]int16{0, 0, 0, 1}, Score: 4},
		{Vals: [cube.NumAttrs]int16{1, 0, 0, 2}, Score: 1},
		{Vals: [cube.NumAttrs]int16{1, 0, 0, 2}, Score: 5},
	}
	c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 1, MaxAVPairs: 1})
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0
	p := newProblem(t, SimilarityMining, c, s)

	g1, ok1 := c.Group(cube.KeyAll.With(cube.State, 1))
	g2, ok2 := c.Group(cube.KeyAll.With(cube.State, 2))
	if !ok1 || !ok2 {
		t.Fatal("state groups missing")
	}
	idx := func(g *cube.Group) int {
		for i := range c.Groups {
			if c.Groups[i].Key == g.Key {
				return i
			}
		}
		return -1
	}
	// σ(state1) = 0, σ(state2) = 2 → weighted (2·0 + 2·2)/4 = 1.
	obj := p.Objective([]int{idx(g1), idx(g2)})
	if math.Abs(obj-1.0) > 1e-12 {
		t.Errorf("SM objective = %f, want 1.0", obj)
	}
	if o := p.Objective([]int{idx(g1)}); o != 0 {
		t.Errorf("consistent group objective = %f, want 0", o)
	}
	if !math.IsInf(p.Objective(nil), 1) {
		t.Error("empty selection must have infinite SM error")
	}
}

func TestDMObjectiveRewardsGap(t *testing.T) {
	tuples := polarizedTuples(600, 5)
	c := buildCube(t, tuples, cube.Config{RequireState: false, MinSupport: 10, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Coverage = 0
	s.K = 2
	p := newProblem(t, DiversityMining, c, s)

	maleU18 := cube.KeyAll.With(cube.Gender, 0).With(cube.Age, 0)
	femaleU18 := cube.KeyAll.With(cube.Gender, 1).With(cube.Age, 0)
	neutralA := cube.KeyAll.With(cube.Age, 1)
	neutralB := cube.KeyAll.With(cube.Age, 2)
	gi := func(k cube.Key) int {
		for i := range c.Groups {
			if c.Groups[i].Key == k {
				return i
			}
		}
		t.Fatalf("group %v missing", k)
		return -1
	}
	split := p.Objective([]int{gi(maleU18), gi(femaleU18)})
	boring := p.Objective([]int{gi(neutralA), gi(neutralB)})
	if split >= boring {
		t.Errorf("DM objective should prefer the polarized pair: split=%f boring=%f", split, boring)
	}
}

func TestFeasibleRejectsDuplicatesAndSize(t *testing.T) {
	c := buildCube(t, miningTuples(300, 7), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Coverage = 0
	p := newProblem(t, SimilarityMining, c, s)
	if p.Feasible([]int{0, 0}) {
		t.Error("duplicate selection accepted")
	}
	if p.Feasible([]int{}) {
		t.Error("empty selection accepted")
	}
	if p.Feasible([]int{0, 1, 2, 3}) {
		t.Error("selection larger than K accepted")
	}
	if !p.Feasible([]int{0}) {
		t.Error("single group with α=0 should be feasible")
	}
}

func TestRHEFeasibleAndDeterministic(t *testing.T) {
	tuples := miningTuples(800, 11)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Restarts = 8
	p := newProblem(t, SimilarityMining, c, s)

	sol := solve(t, p)
	if !sol.Feasible {
		t.Fatalf("RHE infeasible: %+v", sol)
	}
	if len(sol.Groups) > s.K {
		t.Fatalf("RHE returned %d groups, K=%d", len(sol.Groups), s.K)
	}
	if sol.Coverage < s.Coverage-1e-12 {
		t.Fatalf("RHE coverage %f < α %f", sol.Coverage, s.Coverage)
	}
	if sol.Evals <= 0 {
		t.Error("RHE reported no evaluations")
	}

	p2 := newProblem(t, SimilarityMining, c, s)
	sol2 := solve(t, p2)
	if len(sol.Groups) != len(sol2.Groups) || sol.Objective != sol2.Objective {
		t.Fatalf("RHE not deterministic: %+v vs %+v", sol, sol2)
	}
	for i := range sol.Groups {
		if sol.Groups[i] != sol2.Groups[i] {
			t.Fatalf("RHE groups differ: %v vs %v", sol.Groups, sol2.Groups)
		}
	}
}

func TestRHESolutionGroupsAreCandidates(t *testing.T) {
	tuples := miningTuples(500, 13)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Profile = cube.KeyAll.With(cube.Gender, 0) // male profile
	p := newProblem(t, SimilarityMining, c, s)
	sol := solve(t, p)
	if !sol.Feasible {
		t.Fatal("infeasible")
	}
	candSet := map[int]bool{}
	for _, gi := range p.Candidates() {
		candSet[gi] = true
	}
	for _, gi := range sol.Groups {
		if !candSet[gi] {
			t.Fatalf("solution group %d not a candidate", gi)
		}
		key := c.Groups[gi].Key
		if key.Has(cube.Gender) && key[cube.Gender] != 0 {
			t.Fatalf("profile violated by group %v", key)
		}
	}
}

func TestRHEMatchesExhaustiveOnSmallInstances(t *testing.T) {
	// Tiny candidate spaces: exhaustive optimum must never beat RHE by a
	// noticeable margin (RHE with enough restarts should find the optimum).
	ran := 0
	for seed := int64(1); seed <= 5; seed++ {
		tuples := miningTuples(220, seed)
		c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 25, MaxAVPairs: 1})
		if c.Len() < 3 || c.Len() > 18 {
			continue
		}
		s := DefaultSettings()
		s.K = 2
		s.Coverage = 0.25
		s.Restarts = 24
		p, err := NewProblem(SimilarityMining, c, s)
		if err != nil {
			continue
		}
		opt, err := p.SolveExhaustive()
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		rhe := solve(t, p)
		if !opt.Feasible {
			continue
		}
		ran++
		if !rhe.Feasible {
			t.Fatalf("seed %d: optimum feasible but RHE infeasible", seed)
		}
		if rhe.Objective < opt.Objective-1e-9 {
			t.Fatalf("seed %d: RHE %f beat the exhaustive optimum %f", seed, rhe.Objective, opt.Objective)
		}
		if rhe.Objective > opt.Objective+0.15 {
			t.Errorf("seed %d: RHE %f far from optimum %f", seed, rhe.Objective, opt.Objective)
		}
	}
	if ran == 0 {
		t.Fatal("no instance qualified for the exhaustive comparison; fixture drifted")
	}
}

func TestExhaustiveRefusesLargeInstances(t *testing.T) {
	tuples := miningTuples(3000, 17)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 2, MaxAVPairs: 3})
	s := DefaultSettings()
	s.K = 4
	p := newProblem(t, SimilarityMining, c, s)
	if c.Len() < 100 {
		t.Skipf("fixture too small (%d candidates)", c.Len())
	}
	if _, err := p.SolveExhaustive(); err == nil {
		t.Error("exhaustive search accepted a huge instance")
	}
}

func TestGreedyAndRandomFeasible(t *testing.T) {
	tuples := miningTuples(800, 19)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		s := DefaultSettings()
		p := newProblem(t, task, c, s)
		greedy := p.SolveGreedy()
		if !greedy.Feasible {
			t.Errorf("%v: greedy infeasible: %+v", task, greedy)
		}
		random := p.SolveRandom(10)
		if !random.Feasible {
			t.Errorf("%v: random infeasible: %+v", task, random)
		}
		rhe := solve(t, p)
		if !rhe.Feasible {
			t.Errorf("%v: RHE infeasible", task)
		}
		// RHE must not lose to the best-of-10 random control.
		if rhe.Objective > random.Objective+1e-9 {
			t.Errorf("%v: RHE %f worse than random %f", task, rhe.Objective, random.Objective)
		}
	}
}

func TestDMFindsPolarizedSiblingPair(t *testing.T) {
	tuples := polarizedTuples(900, 23)
	c := buildCube(t, tuples, cube.Config{RequireState: false, MinSupport: 10, MaxAVPairs: 2})
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.05
	s.Restarts = 24
	p := newProblem(t, DiversityMining, c, s)
	sol := solve(t, p)
	if !sol.Feasible || len(sol.Groups) < 2 {
		t.Fatalf("DM solution unusable: %+v", sol)
	}
	// The two selected groups must disagree strongly.
	means := make([]float64, len(sol.Groups))
	for i, gi := range sol.Groups {
		means[i] = c.Groups[gi].Mean()
	}
	maxGap := 0.0
	for i := range means {
		for j := i + 1; j < len(means); j++ {
			if gap := math.Abs(means[i] - means[j]); gap > maxGap {
				maxGap = gap
			}
		}
	}
	if maxGap < 1.5 {
		t.Errorf("DM best pair gap = %.2f, want ≥ 1.5 on the polarized fixture", maxGap)
	}
}

func TestSolutionBetterOrdering(t *testing.T) {
	feasLow := Solution{Feasible: true, Objective: 0.1}
	feasHigh := Solution{Feasible: true, Objective: 0.9}
	infeas := Solution{Feasible: false, Objective: -5}
	if !feasLow.Better(feasHigh) || feasHigh.Better(feasLow) {
		t.Error("objective ordering broken")
	}
	if !feasHigh.Better(infeas) {
		t.Error("feasible must beat infeasible")
	}
	if infeas.Better(feasLow) {
		t.Error("infeasible beat feasible")
	}
}

// coverageOf is the exact union coverage of a selection of group indices
// (into Cube.Groups) as a fraction of |R_I|.
func coverageOf(p *Problem, sel []int) float64 {
	return float64(p.coveredCount(sel)) / float64(max(1, p.total))
}

func TestCoverageOfProperty(t *testing.T) {
	tuples := miningTuples(300, 29)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 3, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Coverage = 0
	p := newProblem(t, SimilarityMining, c, s)
	f := func(picks []uint16) bool {
		if len(picks) == 0 {
			return coverageOf(p, nil) == 0
		}
		k := len(picks)%5 + 1
		if k > len(picks) {
			k = len(picks)
		}
		sel := make([]int, 0, k)
		for _, pk := range picks[:k] {
			sel = append(sel, int(pk)%c.Len())
		}
		cov := coverageOf(p, sel)
		if cov < 0 || cov > 1 {
			return false
		}
		// Coverage is monotone: adding a group cannot reduce it.
		bigger := append(clone(sel), 0)
		return coverageOf(p, bigger) >= cov
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTaskString(t *testing.T) {
	if SimilarityMining.String() != "SM" || DiversityMining.String() != "DM" {
		t.Error("task names")
	}
}

// TestByExtremeOrdering pins DM's extreme order to a full sort: the
// head NewProblem keeps must be the first min(len(cands),
// 2·rheSampleSize/3 + K) entries of the candidates sorted by deviation
// descending, then index ascending, on instances with many tied
// deviations and far more candidates than the head. A solve over the
// head must also equal a solve over the whole order. The reference
// engine shares sampleCandidates, so TestSolversMatchReferenceEngine
// cannot catch a wrong head.
func TestByExtremeOrdering(t *testing.T) {
	fixtures := []struct {
		name   string
		tuples []cube.Tuple
		cfg    cube.Config
	}{
		{"polarized", polarizedTuples(1500, 31), cube.Config{RequireState: false, MinSupport: 4, MaxAVPairs: 3}},
		{"cities", cityMiningTuples(3000, 33), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 3}},
	}
	for _, fx := range fixtures {
		c := buildCube(t, fx.tuples, fx.cfg)
		var overall cube.Agg
		for i := range fx.tuples {
			overall.Add(fx.tuples[i].Score)
		}
		dev := func(gi int) float64 { return math.Abs(c.Groups[gi].Mean() - overall.Mean()) }
		for _, k := range []int{2, 3, 6} {
			s := DefaultSettings()
			s.K, s.Coverage, s.Restarts = k, 0.05, 4
			p := newProblem(t, DiversityMining, c, s)
			full := p.Candidates() // index ascending; the stable sort keeps that on ties
			sort.SliceStable(full, func(a, b int) bool { return dev(full[a]) > dev(full[b]) })
			h := min(len(full), 2*rheSampleSize/3+k)
			if len(full) < 3*h {
				t.Fatalf("%s K %d: %d candidates, want well above the %d-entry head", fx.name, k, len(full), h)
			}
			ties := 0
			for i := 1; i < 2*h; i++ {
				if dev(full[i]) == dev(full[i-1]) {
					ties++
				}
			}
			if ties == 0 {
				t.Fatalf("%s K %d: no tied deviations near the head", fx.name, k)
			}
			if !slices.Equal(p.byExtreme, full[:h]) {
				t.Fatalf("%s K %d: head %v, want the full order's first %d %v", fx.name, k, p.byExtreme, h, full[:h])
			}
			head := solve(t, p)
			p.byExtreme = full
			if whole := solve(t, p); !reflect.DeepEqual(head, whole) {
				t.Fatalf("%s K %d: solve over the head %+v, over the full order %+v", fx.name, k, head, whole)
			}
		}
	}
	// selectHead alone, on runs of few distinct deviations long enough
	// to take the partition path, against every head length.
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 200; n += 1 + n/4 {
		ext := make([]extreme, n)
		for i := range ext {
			ext[i] = extreme{float64(rng.Intn(4)), rng.Intn(n)}
		}
		want := slices.Clone(ext)
		sort.SliceStable(want, func(a, b int) bool {
			return want[a].dev > want[b].dev || want[a].dev == want[b].dev && want[a].gi < want[b].gi
		})
		for h := 0; h <= n; h++ {
			got := slices.Clone(ext)
			selectHead(got, h)
			slices.SortFunc(got[:h], cmpExtreme)
			if !slices.Equal(got[:h], want[:h]) {
				t.Fatalf("n %d h %d: head %v, want %v", n, h, got[:h], want[:h])
			}
		}
	}
	// SM problems skip the extra ordering work.
	c := buildCube(t, polarizedTuples(700, 31), cube.Config{RequireState: false, MinSupport: 10, MaxAVPairs: 2})
	if pSM := newProblem(t, SimilarityMining, c, DefaultSettings()); pSM.byExtreme != nil {
		t.Error("SM problem built byExtreme needlessly")
	}
}

func TestRHEFindsRareExtremePair(t *testing.T) {
	// The polarized fixture's under-18 sibling pair is a small fraction of
	// the candidates; the DM-aware sampling must still find a selection at
	// least as good as that pair's objective.
	tuples := polarizedTuples(900, 37)
	c := buildCube(t, tuples, cube.Config{RequireState: false, MinSupport: 10, MaxAVPairs: 2})
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.05
	p := newProblem(t, DiversityMining, c, s)

	maleU18 := cube.KeyAll.With(cube.Gender, 0).With(cube.Age, 0)
	femaleU18 := cube.KeyAll.With(cube.Gender, 1).With(cube.Age, 0)
	gi := func(k cube.Key) int {
		for i := range c.Groups {
			if c.Groups[i].Key == k {
				return i
			}
		}
		t.Skipf("group %v pruned in this fixture", k)
		return -1
	}
	pairObj, _, feasible := p.Evaluate([]int{gi(maleU18), gi(femaleU18)})
	if !feasible {
		t.Skip("planted pair infeasible under the coverage constraint")
	}
	sol := solve(t, p)
	if !sol.Feasible {
		t.Fatal("RHE infeasible")
	}
	if sol.Objective > pairObj+1e-9 {
		t.Errorf("RHE objective %.4f worse than the known pair %.4f", sol.Objective, pairObj)
	}
}

func TestDMExhaustiveAgreement(t *testing.T) {
	tuples := polarizedTuples(400, 41)
	c := cube.Build(tuples, cube.Config{RequireState: false, MinSupport: 40, MaxAVPairs: 1})
	if c.Len() < 3 || c.Len() > 20 {
		t.Skipf("fixture yields %d candidates", c.Len())
	}
	s := DefaultSettings()
	s.K = 2
	s.Coverage = 0.10
	p, err := NewProblem(DiversityMining, c, s)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	opt, err := p.SolveExhaustive()
	if err != nil || !opt.Feasible {
		t.Fatalf("exhaustive: %v (%+v)", err, opt)
	}
	rhe := solve(t, p)
	if rhe.Objective < opt.Objective-1e-9 {
		t.Fatalf("RHE %.6f beat the optimum %.6f", rhe.Objective, opt.Objective)
	}
	if rhe.Objective > opt.Objective+0.05 {
		t.Errorf("RHE %.4f far from DM optimum %.4f", rhe.Objective, opt.Objective)
	}
}

func TestProfileFiltersCandidates(t *testing.T) {
	tuples := miningTuples(600, 43)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Profile = cube.KeyAll.With(cube.Gender, 1)
	p := newProblem(t, SimilarityMining, c, s)
	free := newProblem(t, SimilarityMining, c, DefaultSettings())
	if len(p.Candidates()) >= len(free.Candidates()) {
		t.Errorf("profile did not narrow candidates: %d vs %d",
			len(p.Candidates()), len(free.Candidates()))
	}
	for _, gi := range p.Candidates() {
		k := c.Groups[gi].Key
		if k.Has(cube.Gender) && k[cube.Gender] != 1 {
			t.Fatalf("candidate %v contradicts the profile", k)
		}
	}
}

func TestEvalsAccounting(t *testing.T) {
	tuples := miningTuples(400, 47)
	c := buildCube(t, tuples, cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 2})
	p := newProblem(t, SimilarityMining, c, DefaultSettings())
	rhe := solve(t, p)
	greedy := p.SolveGreedy()
	rnd := p.SolveRandom(10)
	if rhe.Evals <= rnd.Evals {
		t.Errorf("RHE evals %d should exceed random's %d", rhe.Evals, rnd.Evals)
	}
	if greedy.Evals <= 0 || rnd.Evals <= 0 {
		t.Error("baselines reported no work")
	}
}
