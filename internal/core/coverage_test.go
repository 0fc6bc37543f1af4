package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/rng"
)

// cityMiningTuples plants per-city structure inside a couple of states so
// the drill-down (RequireCity) configuration has cells to mine.
func cityMiningTuples(n int, seed int64) []cube.Tuple {
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]cube.Tuple, n)
	for i := range tuples {
		var t cube.Tuple
		t.Vals[cube.Gender] = int16(rng.Intn(2))
		t.Vals[cube.Age] = int16(rng.Intn(5))
		t.Vals[cube.Occupation] = int16(rng.Intn(8))
		t.Vals[cube.State] = int16(rng.Intn(3))
		t.Vals[cube.City] = int16(rng.Intn(8))
		t.Score = int8(1 + (int(t.Vals[cube.City])+rng.Intn(2))%5)
		t.Unix = 1_000_000 + int64(i)
		tuples[i] = t
	}
	return tuples
}

// TestCoverageEnginesAgree drives the bitset engine and the epoch-marking
// reference engine over random selections and demands identical integers,
// cross-checked against a brute-force set union.
func TestCoverageEnginesAgree(t *testing.T) {
	c := buildCube(t, miningTuples(900, 3), cube.Config{RequireState: true, MinSupport: 4, MaxAVPairs: 3})
	p := newProblem(t, SimilarityMining, c, DefaultSettings())
	ref := newProblem(t, SimilarityMining, c, DefaultSettings())
	ref.useReferenceCoverage()

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(5)
		sel := make([]int, 0, k)
		for len(sel) < k {
			sel = append(sel, rng.Intn(c.Len()))
		}
		want := map[int32]bool{}
		for _, gi := range sel {
			for _, ti := range c.Groups[gi].Members {
				want[ti] = true
			}
		}
		if got := p.coveredCount(sel); got != len(want) {
			t.Fatalf("bitset coveredCount(%v) = %d, brute force %d", sel, got, len(want))
		}
		if got := ref.coveredCount(sel); got != len(want) {
			t.Fatalf("reference coveredCount(%v) = %d, brute force %d", sel, got, len(want))
		}

		skip := rng.Intn(len(sel)+1) - 1 // -1..len-1
		p.markSelection(sel, skip)
		ref.markSelection(sel, skip)
		gi := rng.Intn(c.Len())
		if a, b := p.unmarkedCount(gi), ref.unmarkedCount(gi); a != b {
			t.Fatalf("unmarkedCount(%d) after mark(%v, %d): bitset %d, reference %d", gi, sel, skip, a, b)
		}
		if a, b := p.leastUniqueIndex(sel), ref.leastUniqueIndex(sel); a != b {
			t.Fatalf("leastUniqueIndex(%v): bitset %d, reference %d", sel, a, b)
		}
	}
}

// TestSolversMatchReferenceEngine is the end-to-end differential test: for
// fixed seeds, every solver must return a byte-identical Solution with the
// new kernels on (packed build + bitset coverage + incremental
// neighbourhood scan) and off (reference map build + epoch marking +
// from-scratch evaluation) — across SM and DM, the city drill-down
// configuration, and evolution-style time-window slices.
func TestSolversMatchReferenceEngine(t *testing.T) {
	type instance struct {
		name   string
		tuples []cube.Tuple
		cfg    cube.Config
		tweak  func(*Settings)
	}
	instances := []instance{
		{"sm-default", miningTuples(1200, 11), cube.Config{RequireState: true, MinSupport: 10, MaxAVPairs: 3, SkipApex: true}, nil},
		{"framework", polarizedTuples(900, 13), cube.Config{RequireState: false, MinSupport: 8, MaxAVPairs: 2, SkipApex: true},
			func(s *Settings) { s.K = 2; s.Coverage = 0.05 }},
		{"city-drill", cityMiningTuples(1000, 17), cube.Config{RequireCity: true, MinSupport: 5, MaxAVPairs: 3, SkipApex: true},
			func(s *Settings) { s.Coverage = 0.10 }},
	}
	// Evolution-style windows: consecutive slices of one log (tuples are
	// Unix-ordered by construction), each mined as its own instance.
	evo := miningTuples(1500, 19)
	for i, lo := 0, 0; i < 3; i++ {
		hi := (i + 1) * len(evo) / 3
		instances = append(instances, instance{
			name:   "evo-window-" + string(rune('0'+i)),
			tuples: evo[lo:hi],
			cfg:    cube.Config{RequireState: true, MinSupport: 6, MaxAVPairs: 3, SkipApex: true},
		})
		lo = hi
	}

	for _, inst := range instances {
		for _, task := range []Task{SimilarityMining, DiversityMining} {
			s := DefaultSettings()
			s.Restarts = 6
			if inst.tweak != nil {
				inst.tweak(&s)
			}
			packed := cube.Build(inst.tuples, inst.cfg)
			refCube := cube.BuildReference(inst.tuples, inst.cfg)

			p, err := NewProblem(task, packed, s)
			ref, rerr := NewProblem(task, refCube, s)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("%s/%v: constructor divergence: %v vs %v", inst.name, task, err, rerr)
			}
			if err != nil {
				continue
			}
			ref.useReferenceCoverage()

			got, want := solve(t, p), solve(t, ref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: RHE diverged:\nnew kernels %+v\nreference   %+v", inst.name, task, got, want)
			}
			if g, w := p.SolveGreedy(), ref.SolveGreedy(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s/%v: greedy diverged:\nnew kernels %+v\nreference   %+v", inst.name, task, g, w)
			}
			if g, w := p.SolveRandom(8), ref.SolveRandom(8); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s/%v: random diverged:\nnew kernels %+v\nreference   %+v", inst.name, task, g, w)
			}
		}
	}
}

// TestParallelRHEMatchesReference pins the full matrix: the worker-pool
// solver on the bitset engine equals the sequential reference run.
func TestParallelRHEMatchesReference(t *testing.T) {
	c := buildCube(t, miningTuples(1000, 23), cube.Config{RequireState: true, MinSupport: 8, MaxAVPairs: 3, SkipApex: true})
	s := DefaultSettings()
	s.Restarts = 8

	ref := newProblem(t, DiversityMining, cube.BuildReference(c.Tuples, c.Cfg), s)
	ref.useReferenceCoverage()
	want := solve(t, ref)

	for _, procs := range []int{1, 2, 4} {
		p := newProblem(t, DiversityMining, c, s)
		if got := solveAt(t, procs, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d diverged from reference:\n%+v\n%+v", procs, got, want)
		}
	}
}

// TestLargeInstancesMatchReferenceEngine runs the differential check at
// the size where the solver's exact pruning engages: a state-anchored
// cube of 12k tuples and over a thousand candidate groups at α = 0.2, so
// the support-bounded coverage repair stops scanning early and most
// neighbourhood trials are rejected on the objective before their
// coverage is computed. Every seed must return a Solution identical to
// the unpruned reference scans, evaluation count included. The unsorted
// case permutes the cube's groups after the build, so the repair scan's
// bound cannot lean on the support order cube.Build produces; the drill
// case mines city-anchored cells with no coverage constraint, as drills
// do.
func TestLargeInstancesMatchReferenceEngine(t *testing.T) {
	state := cube.Config{RequireState: true, MinSupport: 10, MaxAVPairs: 3, SkipApex: true}
	stateTuples := miningTuples(12_000, 29)
	unsorted := cube.Build(stateTuples, state)
	rand.New(rand.NewSource(31)).Shuffle(len(unsorted.Groups), func(i, j int) {
		unsorted.Groups[i], unsorted.Groups[j] = unsorted.Groups[j], unsorted.Groups[i]
	})
	drill := cube.Build(cityMiningTuples(12_000, 37), cube.Config{RequireCity: true, MinSupport: 5, MaxAVPairs: 3, SkipApex: true})

	instances := []struct {
		name     string
		c        *cube.Cube
		coverage float64
	}{
		{"state", cube.Build(stateTuples, state), 0.2},
		{"state-unsorted", unsorted, 0.2},
		{"drill", drill, 0},
	}
	if n := instances[0].c.Len(); n < 1000 {
		t.Fatalf("state cube has %d groups, want at least 1000", n)
	}
	for _, inst := range instances {
		for _, task := range []Task{SimilarityMining, DiversityMining} {
			for _, seed := range []int64{1, 2, 3} {
				s := DefaultSettings()
				s.Coverage = inst.coverage
				s.Restarts = 4
				s.Seed = seed
				p := newProblem(t, task, inst.c, s)
				ref := newProblem(t, task, inst.c, s)
				ref.useReferenceCoverage()
				if got, want := solve(t, p), solve(t, ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v/seed %d: RHE diverged:\npruned    %+v\nreference %+v", inst.name, task, seed, got, want)
				}
				if got, want := p.SolveRandom(4), ref.SolveRandom(4); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v/seed %d: random diverged:\npruned    %+v\nreference %+v", inst.name, task, seed, got, want)
				}
			}
		}
	}
}

// TestObjectiveMatchesDirectFormula pins the precomputed per-group n·σ and
// μ: the objective must equal, bit for bit, the formula evaluated
// straight from each group's aggregate in the same summation order.
func TestObjectiveMatchesDirectFormula(t *testing.T) {
	c := buildCube(t, polarizedTuples(900, 41), cube.Config{RequireState: false, MinSupport: 4, MaxAVPairs: 2, SkipApex: true})
	s := DefaultSettings()
	s.Coverage = 0
	sm := newProblem(t, SimilarityMining, c, s)
	dm := newProblem(t, DiversityMining, c, s)
	direct := func(sel []int) (smErr, gap float64) {
		var num, den float64
		for _, gi := range sel {
			g := &c.Groups[gi]
			n := float64(g.Support())
			num += n * g.Agg.Std()
			den += n
		}
		pairs := 0
		for i := range sel {
			for j := i + 1; j < len(sel); j++ {
				gi, gj := &c.Groups[sel[i]], &c.Groups[sel[j]]
				w := 1.0
				if _, ok := gi.Key.SiblingOf(gj.Key); ok {
					w = s.SiblingBoost
				}
				gap += w * math.Abs(gi.Mean()-gj.Mean())
				pairs++
			}
		}
		return num / den, gap / float64(pairs)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		sel := rng.Perm(c.Len())[:2+rng.Intn(4)]
		smErr, gap := direct(sel)
		if got := sm.Objective(sel); math.Float64bits(got) != math.Float64bits(smErr) {
			t.Fatalf("SM objective(%v) = %v, direct formula %v", sel, got, smErr)
		}
		if got, want := dm.Objective(sel), smErr-gap; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DM objective(%v) = %v, direct formula %v", sel, got, want)
		}
	}
}

// TestSwapObjectiveMatchesObjective pins the swap evaluator of
// bestSampledMove: with its pair-term table filled for a neighbourhood,
// for every position of a selection, and for the add position past its
// end, it must score each trial exactly as Objective does, bit for bit.
// Half the selections are grown from one group's siblings so that the
// DM sibling weight takes part.
func TestSwapObjectiveMatchesObjective(t *testing.T) {
	c := buildCube(t, polarizedTuples(900, 41), cube.Config{RequireState: false, MinSupport: 4, MaxAVPairs: 2, SkipApex: true})
	rng := rand.New(rand.NewSource(47))
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		for _, boost := range []float64{1, 2} {
			for k := 2; k <= 6; k++ {
				s := DefaultSettings()
				s.Coverage, s.K, s.SiblingBoost = 0, k, boost
				p := newProblem(t, task, c, s)
				siblingPairs, adds := 0, 0
				for round := 0; round < 12; round++ {
					sel := randomSelection(rng, p, p.minGroups()+rng.Intn(k-p.minGroups()+1), round%2 == 0)
					var sample []int // every other candidate, as sampleCandidates excludes the selection
					for _, gi := range p.cands {
						if !slices.Contains(sel, gi) {
							sample = append(sample, gi)
						}
					}
					p.swap.table(p, sel, sample)
					for pos := 0; pos <= len(sel); pos++ {
						trial := append(clone(sel), 0)[:max(len(sel), pos+1)]
						p.swap.reset(p, sel, pos)
						for si, cand := range sample {
							trial[pos] = cand
							for _, gi := range trial {
								if _, ok := c.Groups[gi].Key.SiblingOf(c.Groups[cand].Key); ok {
									siblingPairs++
								}
							}
							got, want := p.swap.objective(p, si), p.Objective(trial)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%v boost %v K %d: trial %v at %d of %v: evaluator %v, Objective %v",
									task, boost, k, trial, pos, sel, got, want)
							}
						}
						if pos == len(sel) {
							adds += len(sample)
						}
					}
				}
				if siblingPairs == 0 || adds == 0 {
					t.Fatalf("%v boost %v K %d: %d trials held a sibling pair, %d were adds", task, boost, k, siblingPairs, adds)
				}
			}
		}
	}
}

// TestRefusedNeighbourhoodIsNotRescored pins bestSampledMove's again
// flag: after a step that moved nothing, the next step around the same
// selection must pick the same move and count the same evaluations
// whether or not it skips the trials of its sample's heads and its drops.
// Each step draws from its own generator, so it can be replayed both
// ways. The reference engine checks whole solves; this checks each step.
func TestRefusedNeighbourhoodIsNotRescored(t *testing.T) {
	c := buildCube(t, cityMiningTuples(3000, 61), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 3})
	for _, task := range []Task{SimilarityMining, DiversityMining} {
		moved := 0 // steps after a refused one that moved
		for _, k := range []int{2, 3, 5} {
			s := DefaultSettings()
			s.K, s.Coverage = k, 0.1
			p := newProblem(t, task, c, s)
			again := 0
			for r := int64(0); r < 40; r++ {
				sel, ok := p.randomFeasibleInit(rng.Sub(3, r))
				if !ok {
					continue
				}
				obj, _, _ := p.Evaluate(sel)
				for iter, misses := int64(0), 0; iter < rheMaxIters && misses < rhePatience; iter++ {
					step := func(skip bool) ([]int, float64, int, bool) {
						next, o, evals, ok := p.bestSampledMove(rng.Sub(4, r*rheMaxIters+iter), sel, obj, skip)
						return clone(next), o, evals, ok
					}
					next, o, evals, ok := step(false)
					if misses > 0 {
						again++
						skipNext, skipObj, skipEvals, skipOK := step(true)
						if !slices.Equal(skipNext, next) || math.Float64bits(skipObj) != math.Float64bits(o) || skipEvals != evals || skipOK != ok {
							t.Fatalf("%v K %d restart %d step %d around %v: skipping the heads chose %v (%v, %d evals, moved %v), scoring them %v (%v, %d evals, moved %v)",
								task, k, r, iter, sel, skipNext, skipObj, skipEvals, skipOK, next, o, evals, ok)
						}
						if ok {
							moved++
						}
					}
					if !ok {
						misses++
						continue
					}
					misses, sel, obj = 0, next, o
				}
			}
			if again == 0 {
				t.Fatalf("%v K %d: no step followed a refused one", task, k)
			}
		}
		if moved == 0 {
			t.Fatalf("%v: no step after a refused one moved", task)
		}
	}
}

// randomSelection draws n distinct candidates of p. With siblings set it
// prefers siblings of the first drawn group while any remain.
func randomSelection(rng *rand.Rand, p *Problem, n int, siblings bool) []int {
	sel := []int{p.cands[rng.Intn(len(p.cands))]}
	in := func(gi int) bool { return slices.Contains(sel, gi) }
	if siblings {
		first := p.Cube.Groups[sel[0]].Key
		for _, gi := range rng.Perm(len(p.cands)) {
			gi = p.cands[gi]
			if _, ok := first.SiblingOf(p.Cube.Groups[gi].Key); ok && len(sel) < n && !in(gi) {
				sel = append(sel, gi)
			}
		}
	}
	for len(sel) < n {
		if gi := p.cands[rng.Intn(len(p.cands))]; !in(gi) {
			sel = append(sel, gi)
		}
	}
	return sel
}
