package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// rhePatience is how many fresh neighbourhood samples a restart draws
// after one shows no improving move, before declaring a local optimum.
// The neighbourhood is sampled, so a single empty sample is weak evidence
// of local optimality when the candidate set is much larger than the
// sample.
const rhePatience = 3

// SolveRHECtx runs Randomized Hill Exploration: repeated randomized
// restarts, each drawing a random coverage-repaired selection and
// hill-climbing over a sampled swap/add/drop neighbourhood until no
// sampled move improves the objective while staying feasible. The best
// local optimum across restarts wins.
//
// Each restart r draws from its own sub-seeded generator (rng.Sub(Seed, r)),
// so the result is a pure function of Settings.Seed regardless of how many
// worker goroutines (Settings.Workers; 0 means GOMAXPROCS) execute the
// restarts: the parallel and sequential paths return byte-identical
// Solutions.
//
// It stops between hill-climb iterations once ctx is done and returns
// ctx.Err(). The partial best is discarded — a cancelled mine has no
// useful answer to cache.
func (p *Problem) SolveRHECtx(ctx context.Context) (Solution, error) {
	workers := p.Settings.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.Settings.Restarts {
		workers = p.Settings.Restarts
	}

	if workers <= 1 {
		var fold rheFold
		for r := 0; r < p.Settings.Restarts; r++ {
			if ctx.Err() != nil {
				return Solution{}, ctx.Err()
			}
			fold.add(p.runRestart(ctx, r), r)
		}
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		return p.finish(fold), nil
	}

	// Work-stealing over restart indices: the restart's generator depends
	// only on its index, and each worker climbs on a private scratch
	// clone, so the schedule cannot influence the outcome. Each worker
	// folds its own running best (O(workers) memory, not O(restarts));
	// the index tie-break in rheFold makes the merged result identical
	// to the sequential first-wins fold.
	folds := make([]rheFold, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(fold *rheFold) {
			defer wg.Done()
			q := p.scratchClone()
			for ctx.Err() == nil {
				r := int(next.Add(1)) - 1
				if r >= p.Settings.Restarts {
					return
				}
				fold.add(q.runRestart(ctx, r), r)
			}
		}(&folds[w])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	var merged rheFold
	for w := range folds {
		merged.merge(folds[w])
	}
	return p.finish(merged), nil
}

// restartResult is one restart's local optimum. ok is false when the
// restart could not even draw a feasible initial selection.
type restartResult struct {
	sol   Solution
	evals int
	ok    bool
}

// rheFold accumulates restart results into the running best. It keeps the
// originating restart index so merging partial folds reproduces the
// sequential loop exactly: Better is a preorder (feasibility, then strict
// objective), and the sequential loop keeps the earlier restart on ties,
// so (Better, lowest-index) is the total order both paths minimize.
type rheFold struct {
	best    Solution
	bestIdx int // restart index of best; -1 while empty
	evals   int

	inited bool
}

func (f *rheFold) add(r restartResult, idx int) {
	if !f.inited {
		f.bestIdx, f.inited = -1, true
	}
	f.evals += r.evals
	if !r.ok {
		return
	}
	if f.bestIdx < 0 || betterAt(r.sol, idx, f.best, f.bestIdx) {
		f.best, f.bestIdx = r.sol, idx
	}
}

func (f *rheFold) merge(other rheFold) {
	if !f.inited {
		f.bestIdx, f.inited = -1, true
	}
	f.evals += other.evals
	if other.bestIdx < 0 {
		return
	}
	if f.bestIdx < 0 || betterAt(other.best, other.bestIdx, f.best, f.bestIdx) {
		f.best, f.bestIdx = other.best, other.bestIdx
	}
}

// betterAt orders (solution, restart index) pairs: Better first, earliest
// restart on ties.
func betterAt(a Solution, ai int, b Solution, bi int) bool {
	if a.Better(b) {
		return true
	}
	if b.Better(a) {
		return false
	}
	return ai < bi
}

// finish converts a completed fold into the returned Solution.
func (p *Problem) finish(f rheFold) Solution {
	best := f.best
	if f.bestIdx < 0 {
		best = Solution{Objective: math.Inf(1)}
	}
	best.Evals = f.evals
	p.sortForPresentation(best.Groups)
	return best
}

// runRestart executes restart r: sub-seeded random init, then sampled hill
// climbing. It uses p's scratch buffers, so concurrent callers must operate
// on distinct scratch clones.
func (p *Problem) runRestart(ctx context.Context, r int) restartResult {
	gen := rng.Sub(p.Settings.Seed, int64(r))
	sel, ok := p.randomFeasibleInit(gen)
	if !ok {
		return restartResult{}
	}
	obj, _, _ := p.Evaluate(sel)
	evals := 1
	// Re-sampling only helps when the sample cannot already cover the
	// whole candidate set.
	patience := rhePatience
	if p.Settings.SampleSize >= len(p.cands) {
		patience = 1
	}
	misses := 0
	for iter := 0; iter < p.Settings.MaxIters && misses < patience; iter++ {
		if ctx.Err() != nil {
			return restartResult{}
		}
		newSel, newObj, e, moved := p.bestSampledMove(gen, sel, obj)
		evals += e
		if !moved {
			misses++
			continue
		}
		misses = 0
		sel, obj = newSel, newObj
	}
	cand := Solution{Groups: clone(sel)}
	cand.Objective, cand.Coverage, cand.Feasible = p.Evaluate(cand.Groups)
	evals++
	return restartResult{sol: cand, evals: evals, ok: true}
}

// randomFeasibleInit draws K random candidates biased toward high support,
// then greedily repairs coverage by swapping the group with the smallest
// unique contribution for the unused candidate with the highest marginal
// coverage.
func (p *Problem) randomFeasibleInit(rng *rand.Rand) ([]int, bool) {
	k := p.Settings.K
	if k > len(p.cands) {
		k = len(p.cands)
	}
	if k < p.minGroups() {
		return nil, false
	}
	// Support-biased sampling: candidates are support-sorted, so a squared
	// uniform index skews toward the head.
	sel := make([]int, 0, k)
	used := map[int]bool{}
	for attempts := 0; len(sel) < k && attempts < 64*k; attempts++ {
		u := rng.Float64()
		idx := int(u * u * float64(len(p.cands)))
		if idx >= len(p.cands) {
			idx = len(p.cands) - 1
		}
		gi := p.cands[idx]
		if !used[gi] {
			used[gi] = true
			sel = append(sel, gi)
		}
	}
	if len(sel) < p.minGroups() {
		return nil, false
	}
	// Greedy coverage repair.
	for repair := 0; repair < 4*k; repair++ {
		if float64(p.coveredCount(sel)) >= p.required() {
			return sel, true
		}
		worst := p.leastUniqueIndex(sel)
		p.markSelection(sel, worst)
		bestCand, bestGain := -1, -1
		for i, gi := range p.cands {
			// A marginal gain never exceeds the group's support, and only
			// a strictly larger gain replaces the best: once no remaining
			// candidate's support beats bestGain, the scan's outcome is
			// decided. The reference engine scans everything.
			if !p.refCoverage && p.suffixMax[i] <= bestGain {
				break
			}
			if used[gi] {
				continue
			}
			if gain := p.unmarkedCount(gi); gain > bestGain {
				bestGain, bestCand = gain, gi
			}
		}
		if bestCand < 0 {
			break
		}
		delete(used, sel[worst])
		used[bestCand] = true
		sel[worst] = bestCand
	}
	return sel, float64(p.coveredCount(sel)) >= p.required()
}

// bestSampledMove examines a sampled neighbourhood — swapping each position
// with SampleSize candidates, dropping a position, adding a candidate — and
// returns the best feasible selection that improves on curObj.
//
// Each trial is tested cheapest first: size and duplicates, then the O(K)
// objective against the best so far, and only for an improving trial its
// coverage. Coverage is evaluated incrementally: for each position, the
// union bitset of the other selected groups is built once
// (markSelection), and a sampled replacement then costs a single AND-NOT
// popcount of the candidate's bitset against that base — skipped outright
// when even the candidate's full support cannot lift the trial to the
// required coverage. A trial wins only if it is both feasible and
// improving, so the order of the tests cannot change the chosen move;
// trials reuse one scratch selection, and the trial order, the evaluation
// count and every number compared are identical to the reference scan.
func (p *Problem) bestSampledMove(rng *rand.Rand, sel []int, curObj float64) (newSel []int, obj float64, evals int, moved bool) {
	if p.refCoverage {
		return p.bestSampledMoveRef(rng, sel, curObj)
	}
	bestObj := curObj
	var bestSel []int

	required := p.required()
	// consider scores one trial: covered is the coverage of the trial's
	// other groups, cand the group whose marginal coverage against the
	// marked base still has to be added (-1 when there is none). The
	// trial slice is scratch and cloned only on improvement.
	consider := func(trial []int, covered, cand int) {
		evals++
		if len(trial) < p.minGroups() || len(trial) > p.Settings.K || hasDup(trial) {
			return
		}
		o := p.Objective(trial)
		if !(o < bestObj-1e-12) {
			return
		}
		if cand >= 0 {
			if float64(covered+p.Cube.Groups[cand].Support()) < required {
				return
			}
			covered += p.unmarkedCount(cand)
		}
		if float64(covered) < required {
			return
		}
		bestObj, bestSel = o, clone(trial)
	}

	sample := p.sampleCandidates(rng, sel)
	trial := append(p.trialBuf[:0], sel...)
	for pos := range sel {
		p.markSelection(sel, pos) // base = union of sel minus pos
		others := p.baseCount()
		for _, cand := range sample {
			trial[pos] = cand
			consider(trial, others, cand)
		}
		trial[pos] = sel[pos]
		if len(sel) > p.minGroups() {
			drop := append(p.dropBuf[:0], sel[:pos]...)
			drop = append(drop, sel[pos+1:]...)
			consider(drop, others, -1)
			p.dropBuf = drop
		}
	}
	if len(sel) < p.Settings.K {
		p.markSelection(sel, -1) // base = union of the whole selection
		all := p.baseCount()
		grow := append(trial, 0)
		for _, cand := range sample {
			grow[len(grow)-1] = cand
			consider(grow, all, cand)
		}
		trial = grow[:len(sel)]
	}
	p.trialBuf = trial

	if bestSel == nil {
		return sel, curObj, evals, false
	}
	return bestSel, bestObj, evals, true
}

// bestSampledMoveRef is the reference neighbourhood scan: every trial is
// evaluated from scratch through Evaluate. Kept for the differential
// tests; bestSampledMove must select the identical move.
func (p *Problem) bestSampledMoveRef(rng *rand.Rand, sel []int, curObj float64) (newSel []int, obj float64, evals int, moved bool) {
	bestObj := curObj
	var bestSel []int

	try := func(trial []int) {
		o, _, feasible := p.Evaluate(trial)
		evals++
		if feasible && o < bestObj-1e-12 {
			bestObj, bestSel = o, trial
		}
	}

	sample := p.sampleCandidates(rng, sel)
	for pos := range sel {
		for _, cand := range sample {
			trial := clone(sel)
			trial[pos] = cand
			try(trial)
		}
		if len(sel) > p.minGroups() {
			trial := make([]int, 0, len(sel)-1)
			trial = append(trial, sel[:pos]...)
			try(append(trial, sel[pos+1:]...))
		}
	}
	if len(sel) < p.Settings.K {
		for _, cand := range sample {
			trial := make([]int, 0, len(sel)+1)
			trial = append(trial, sel...)
			try(append(trial, cand))
		}
	}

	if bestSel == nil {
		return sel, curObj, evals, false
	}
	return bestSel, bestObj, evals, true
}

// sampleCandidates draws up to SampleSize distinct candidates outside the
// current selection: the support-sorted head (always worth trying), for
// Diversity Mining additionally the extreme-mean head (small groups with
// far-out averages are exactly what the DM reward wants, and uniform
// sampling almost never surfaces them), and uniform random exploration for
// the rest. A group is excluded once its stamp carries this call's
// generation: the selection is stamped up front, every drawn group as it
// is taken.
func (p *Problem) sampleCandidates(rng *rand.Rand, sel []int) []int {
	p.stampGen++
	if p.stampGen == 0 { // wrapped: stale stamps could alias the new generation
		clear(p.stamp)
		p.stampGen = 1
	}
	gen := p.stampGen
	for _, gi := range sel {
		p.stamp[gi] = gen
	}
	n := p.Settings.SampleSize
	out := make([]int, 0, n)
	take := func(list []int, quota int) {
		for _, gi := range list {
			if len(out) >= quota {
				return
			}
			if p.stamp[gi] != gen {
				p.stamp[gi] = gen
				out = append(out, gi)
			}
		}
	}
	take(p.cands, n/3)
	if p.Task == DiversityMining {
		take(p.byExtreme, 2*n/3)
	}
	for attempts := 0; len(out) < n && attempts < 4*n; attempts++ {
		gi := p.cands[rng.Intn(len(p.cands))]
		if p.stamp[gi] != gen {
			p.stamp[gi] = gen
			out = append(out, gi)
		}
	}
	return out
}

func (p *Problem) sortForPresentation(sel []int) {
	sort.Slice(sel, func(a, b int) bool {
		ga, gb := &p.Cube.Groups[sel[a]], &p.Cube.Groups[sel[b]]
		if ga.Support() != gb.Support() {
			return ga.Support() > gb.Support()
		}
		return sel[a] < sel[b]
	})
}

func clone(xs []int) []int {
	out := make([]int, len(xs))
	copy(out, xs)
	return out
}
