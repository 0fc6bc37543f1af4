// Package core implements MapRat's rating-mining layer (§2.2): the
// Similarity Mining (SM) and Diversity Mining (DM) optimization problems
// over candidate reviewer groups, and the Randomized Hill Exploration (RHE)
// algorithm of the MRI paper [2] used to solve them, plus the exhaustive,
// greedy and random baselines the experiments compare against.
//
// Both problems select at most K describable groups that together cover at
// least an α fraction of the query's rating tuples. SM minimizes the
// size-weighted within-group standard deviation (groups that agree
// internally); DM additionally rewards far-apart group means, with sibling
// groups (identical descriptions except one attribute value) weighted
// higher because they read as a controversy ("male under 18 hate it,
// female under 18 love it"). Both are NP-hard — the coverage constraint
// embeds set cover — which is why the system uses randomized search.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/cube"
)

// Task selects the mining sub-problem.
type Task int

// The two sub-problems of §2.2.
const (
	SimilarityMining Task = iota
	DiversityMining
)

// String names the task the way the paper abbreviates it.
func (t Task) String() string {
	switch t {
	case SimilarityMining:
		return "SM"
	case DiversityMining:
		return "DM"
	}
	return fmt.Sprintf("Task(%d)", int(t))
}

// Settings are the optimization knobs exposed by the Figure-1 search form
// plus the solver's restart count and seed.
type Settings struct {
	// K is the maximum number of returned groups ("small enough, not to
	// overwhelm a user"; the demo shows the best three).
	K int
	// Coverage is α: the fraction of R_I the selected groups must jointly
	// cover (the form's "rating coverage" setting).
	Coverage float64
	// SiblingBoost is the DM pair weight for sibling groups (>1 prefers
	// the paper's same-demographic-except-one-attribute controversies).
	SiblingBoost float64
	// Profile optionally constrains candidates to groups the querying
	// user self-identifies with (§3.1): a candidate is kept only when its
	// description does not contradict any attribute the profile fixes.
	Profile cube.Key

	// Restarts is the number of randomized RHE restarts.
	Restarts int
	// Seed makes every solver deterministic.
	Seed int64
}

// DefaultSettings mirrors the demo defaults: the best 3 groups covering at
// least 20% of the ratings (three disjoint state-anchored groups can cover
// at most ~26% of a national audience, so 30% would be unsatisfiable).
func DefaultSettings() Settings {
	return Settings{
		K:            3,
		Coverage:     0.20,
		SiblingBoost: 2.0,
		Profile:      cube.KeyAll,
		Restarts:     16,
		Seed:         1,
	}
}

func (s *Settings) normalize() error {
	if s.K <= 0 {
		return fmt.Errorf("core: K = %d must be positive", s.K)
	}
	if !(s.Coverage >= 0 && s.Coverage <= 1) {
		return fmt.Errorf("core: coverage α = %f outside [0,1]", s.Coverage)
	}
	if s.Restarts <= 0 {
		s.Restarts = 1
	}
	if s.SiblingBoost <= 0 {
		s.SiblingBoost = 1
	}
	return nil
}

// ErrNoCandidates is returned when the cube has no groups compatible with
// the settings — typically a query with too few ratings for MinSupport.
var ErrNoCandidates = errors.New("core: no candidate groups")

// ErrInfeasible is returned when no selection of at most K candidates can
// reach the coverage threshold.
var ErrInfeasible = errors.New("core: coverage constraint unsatisfiable with K groups")

// Problem is one constructed optimization instance over a candidate cube.
// A Problem is not safe for concurrent use by multiple callers (it reuses
// scratch buffers); build one per goroutine. SolveRHECtx parallelizes
// internally by giving each of its workers a private scratch clone.
type Problem struct {
	Task     Task
	Cube     *cube.Cube
	Settings Settings

	cands []int // indices into Cube.Groups passing the profile filter
	// byExtreme is the head of cands ordered by |group mean − overall
	// mean| descending, then index ascending (DM only): the first
	// min(len(cands), extremeHeadLen(K)) entries of that order, all that
	// the DM neighbourhood reads of it (see sampleCandidates).
	byExtreme []int

	total int // |R_I|

	// Bounds and statistics fixed at construction. suffixMax[i] is the
	// largest support among cands[i:] (with one trailing 0), the repair
	// scan's exact stopping bound. stats holds n, n·σ and μ per group of
	// Cube.Groups, so the objective reads them from one compact table
	// instead of recomputing a square root per group per evaluation.
	suffixMax []int
	stats     []groupStats

	// stamp marks, per group of Cube.Groups, the generation of the last
	// sampleCandidates call that excluded it (selected or already drawn)
	// or of the last randomFeasibleInit that put it in use; stampGen is
	// the current generation.
	stamp    []uint32
	stampGen uint32

	// Restart scratch: the generator each restart re-seeds, the sampled
	// neighbourhood, and the per-position swap evaluator.
	gen       *rand.Rand
	sampleBuf [rheSampleSize]int
	swap      swapEval

	// Coverage engine state (see coverage.go). bits is the cube's cached
	// per-group member bitset table, shared read-only across every Problem
	// on the same cube; cover and base are this instance's scratch
	// bitsets; the trial buffers back the solver's neighbourhood scans.
	bits     [][]uint64
	cover    []uint64
	base     []uint64
	trialBuf []int
	dropBuf  []int

	// reference coverage engine (differential tests): epoch marking over
	// tuples
	refCoverage bool
	mark        []int32
	epoch       int32
}

// groupStats are the per-group figures the objective reads: support n,
// n·σ and μ.
type groupStats struct {
	n, nSigma, mean float64
}

// NewProblem builds an instance. It fails fast when no candidate survives
// the profile filter or when even the K highest-coverage candidates cannot
// reach the coverage threshold (a cheap upper-bound check; the exact
// question is the NP-hard part).
func NewProblem(task Task, c *cube.Cube, s Settings) (*Problem, error) {
	if err := s.normalize(); err != nil {
		return nil, err
	}
	words := cube.BitsetWords(len(c.Tuples))
	p := &Problem{
		Task:     task,
		Cube:     c,
		Settings: s,
		total:    len(c.Tuples),
		bits:     c.MemberBits(),
		cover:    make([]uint64, words),
		base:     make([]uint64, words),
	}
	p.cands = make([]int, 0, len(c.Groups))
	for i := range c.Groups {
		if compatible(c.Groups[i].Key, s.Profile) {
			p.cands = append(p.cands, i)
		}
	}
	if len(p.cands) == 0 {
		return nil, ErrNoCandidates
	}
	p.suffixMax = make([]int, len(p.cands)+1)
	for i := len(p.cands) - 1; i >= 0; i-- {
		p.suffixMax[i] = max(p.suffixMax[i+1], c.Groups[p.cands[i]].Support())
	}
	p.stats = make([]groupStats, len(c.Groups))
	for i := range c.Groups {
		g := &c.Groups[i]
		n := float64(g.Support())
		p.stats[i] = groupStats{n: n, nSigma: n * g.Agg.Std(), mean: g.Mean()}
	}
	p.stamp = make([]uint32, len(c.Groups))
	if task == DiversityMining && s.K < 2 {
		return nil, fmt.Errorf("core: DM needs K ≥ 2, got %d", s.K)
	}
	if task == DiversityMining {
		p.byExtreme = extremeHead(c, p.cands, min(len(p.cands), extremeHeadLen(s.K)))
	}
	// Optimistic feasibility bound: the K largest candidates, ignoring
	// overlap, must reach the threshold … otherwise nothing can.
	if float64(p.topSupportSum(s.K)) < p.required() {
		return nil, ErrInfeasible
	}
	return p, nil
}

// extremeHeadLen is how many entries of the extreme order
// sampleCandidates can read: it takes up to 2·rheSampleSize/3 entries in
// all, and it skips only the selected groups (at most K) and the ones it
// already took from the support head, which count toward that total.
func extremeHeadLen(k int) int { return 2*rheSampleSize/3 + k }

// extreme is a candidate's place in the extreme order: its group index
// and |group mean − overall mean|.
type extreme struct {
	dev float64
	gi  int
}

// cmpExtreme orders deviation descending, then index ascending: a total
// order, so the head it selects does not depend on the algorithm.
func cmpExtreme(a, b extreme) int {
	return cmp.Or(cmp.Compare(b.dev, a.dev), cmp.Compare(a.gi, b.gi))
}

// extremeHead returns the first h candidates of the extreme order. It
// selects them with a linear-time partition and sorts only them, so it
// costs O(len(cands) + h·log h) instead of a full sort; the head equals
// the full sort's first h entries (TestByExtremeOrdering).
func extremeHead(c *cube.Cube, cands []int, h int) []int {
	// The overall mean as cube.Agg computes it, without its other sums.
	var sum int64
	for i := range c.Tuples {
		sum += int64(c.Tuples[i].Score)
	}
	mean := cube.Agg{Count: len(c.Tuples), Sum: sum}.Mean()
	ext := make([]extreme, len(cands))
	for i, gi := range cands {
		ext[i] = extreme{math.Abs(c.Groups[gi].Mean() - mean), gi}
	}
	selectHead(ext, h)
	head := ext[:h]
	slices.SortFunc(head, cmpExtreme)
	out := make([]int, h)
	for i, e := range head {
		out[i] = e.gi
	}
	return out
}

// selectHead reorders ext so that its first h entries are its h least
// under cmpExtreme, in no particular order: quickselect with a
// median-of-three pivot, which sorts a short range outright and falls
// back to sorting the range left after 2·log2(len) rounds, so its worst
// case is O(n log n).
func selectHead(ext []extreme, h int) {
	if h >= len(ext) {
		return
	}
	lo, hi := 0, len(ext)
	for rounds := 2 * bits.Len(uint(len(ext))); hi-lo > 16 && rounds > 0; rounds-- {
		// Order ext[lo], ext[mid], ext[hi-1] and pivot on the middle one,
		// parked at hi-1 while the range is partitioned.
		mid := int(uint(lo+hi) >> 1)
		if cmpExtreme(ext[mid], ext[lo]) < 0 {
			ext[mid], ext[lo] = ext[lo], ext[mid]
		}
		if cmpExtreme(ext[hi-1], ext[mid]) < 0 {
			ext[hi-1], ext[mid] = ext[mid], ext[hi-1]
			if cmpExtreme(ext[mid], ext[lo]) < 0 {
				ext[mid], ext[lo] = ext[lo], ext[mid]
			}
		}
		ext[mid], ext[hi-1] = ext[hi-1], ext[mid]
		pivot, store := ext[hi-1], lo
		for i := lo; i < hi-1; i++ {
			if cmpExtreme(ext[i], pivot) < 0 {
				ext[i], ext[store] = ext[store], ext[i]
				store++
			}
		}
		ext[store], ext[hi-1] = ext[hi-1], ext[store]
		// ext[store] now holds rank store: all less before it, all
		// greater after it (the order is total).
		switch {
		case store < h:
			lo = store + 1
		case store > h:
			hi = store
		default:
			return
		}
	}
	if lo < h {
		slices.SortFunc(ext[lo:hi], cmpExtreme)
	}
}

// topSupportSum returns the summed support of the k largest candidates.
// cube.Build support-sorts its groups and profile filtering preserves
// that order, so this is usually the prefix sum; carrying each support
// down a descending top-k keeps it exact on a cube whose groups are in
// any other order, as the solver's pruning bounds are.
func (p *Problem) topSupportSum(k int) int {
	top := make([]int, k) // descending
	for _, gi := range p.cands {
		n := p.Cube.Groups[gi].Support()
		for j := range top {
			if n > top[j] {
				n, top[j] = top[j], n
			}
		}
	}
	sum := 0
	for _, n := range top {
		sum += n
	}
	return sum
}

// scratchClone returns a shallow copy sharing the immutable instance data
// (cube, candidate orders, member bitsets) but owning fresh coverage and
// trial scratch, so solver workers can evaluate selections concurrently.
func (p *Problem) scratchClone() *Problem {
	q := *p
	words := cube.BitsetWords(len(p.Cube.Tuples))
	q.cover = make([]uint64, words)
	q.base = make([]uint64, words)
	q.trialBuf, q.dropBuf = nil, nil
	q.stamp, q.stampGen = make([]uint32, len(p.Cube.Groups)), 0
	q.gen, q.swap = nil, swapEval{}
	if p.refCoverage {
		q.mark = make([]int32, len(p.Cube.Tuples))
		q.epoch = 0
	}
	return &q
}

// required returns the absolute tuple count the coverage constraint needs.
func (p *Problem) required() float64 {
	return p.Settings.Coverage * float64(p.total)
}

// compatible reports whether a group description could apply to a user
// with the given profile: every attribute both constrain must agree.
func compatible(group, profile cube.Key) bool {
	for a := 0; a < cube.NumAttrs; a++ {
		if profile[a] != cube.Wildcard && group[a] != cube.Wildcard && group[a] != profile[a] {
			return false
		}
	}
	return true
}

// Candidates returns the candidate group indices (into Cube.Groups) this
// problem optimizes over.
func (p *Problem) Candidates() []int {
	out := make([]int, len(p.cands))
	copy(out, p.cands)
	return out
}

// NumTuples returns |R_I|.
func (p *Problem) NumTuples() int { return p.total }

// Objective computes the task objective for a selection (lower is better
// for both tasks; DM internally negates the disagreement reward).
func (p *Problem) Objective(sel []int) float64 {
	switch p.Task {
	case SimilarityMining:
		return p.smError(sel)
	case DiversityMining:
		return p.smError(sel) - p.pairGap(sel)
	}
	return math.Inf(1)
}

// smError is the size-weighted within-group standard deviation.
func (p *Problem) smError(sel []int) float64 {
	if len(sel) == 0 {
		return math.Inf(1)
	}
	var num, den float64
	for _, gi := range sel {
		num += p.stats[gi].nSigma
		den += p.stats[gi].n
	}
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}

// pairGap rewards between-group disagreement: the mean of w(g,g')·|μ−μ'|
// over all pairs, where sibling pairs carry SiblingBoost. Dividing by the
// pair count (not Σw) keeps the boost effective even for a single pair —
// the paper's canonical DM output is one sibling controversy.
func (p *Problem) pairGap(sel []int) float64 {
	if len(sel) < 2 {
		return 0
	}
	var num float64
	pairs := 0
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			num += p.pairTerm(sel[i], sel[j])
			pairs++
		}
	}
	return num / float64(pairs)
}

// pairTerm is one pair's pairGap term, w(g,g')·|μ−μ'|, for groups a and b
// of Cube.Groups. It is symmetric bit for bit: SiblingOf is symmetric and
// |x−y| equals |y−x| in IEEE arithmetic, so the swap evaluator may store
// a term under either order. The conversion rounds the product on its
// own, so no compiler may fuse it into the caller's sum: the swap
// evaluator stores terms and sums them later, and must get the same
// floats as pairGap's running sum.
func (p *Problem) pairTerm(a, b int) float64 {
	w := 1.0
	if _, ok := p.Cube.Groups[a].Key.SiblingOf(p.Cube.Groups[b].Key); ok {
		w = p.Settings.SiblingBoost
	}
	return float64(w * math.Abs(p.stats[a].mean-p.stats[b].mean))
}

// swapEval scores the swap and add trials of one sampled neighbourhood:
// the selection with position pos replaced by a sampled candidate, or,
// at pos == len(sel), extended by one. table runs once per neighbourhood,
// given the sampled candidates to be scored, and, for DM, fills the pair
// term of every (selected group, candidate) pair, which every position's
// trials then share; reset reads
// the fixed groups' figures once per position; objective costs each
// candidate only its own n and n·σ plus table reads instead of a full
// Objective. Objective sums left to right, and float addition does not
// associate, so the evaluator replays that order exactly, term by term;
// only the smError sums over the positions before pos are taken once.
// The result equals Objective of the trial bit for bit
// (TestSwapObjectiveMatchesObjective).
type swapEval struct {
	pos    int
	sample []int
	width  int // len(sel), the pair-term table's row width
	// smError: the n·σ and n sums over the positions before pos, and the
	// terms after it in order.
	numPre, denPre float64
	numSuf, denSuf []float64
	// pairGap (DM only): pt[s*len(sel)+i] is the pair term of selected
	// position i and sample entry s; terms holds every pair term of the
	// trial in pairGap's order, those involving pos copied from pt per
	// candidate, at slots[i] for the pair of positions i and pos.
	pt    []float64
	terms []float64
	slots []int
}

// table prepares the evaluator for the neighbourhood of sel drawn as
// sample: for DM it fills the pair-term table.
func (e *swapEval) table(p *Problem, sel, sample []int) {
	e.sample, e.width = sample, len(sel)
	if p.Task != DiversityMining {
		return
	}
	n := len(sel) * len(sample)
	e.pt = slices.Grow(e.pt[:0], n)[:n]
	for s, cand := range sample {
		row := e.pt[s*e.width : (s+1)*e.width]
		for i, gi := range sel {
			row[i] = p.pairTerm(gi, cand)
		}
	}
}

// reset prepares the evaluator for the trials of sel's position pos: the
// swaps of pos < len(sel), or the adds of pos == len(sel).
func (e *swapEval) reset(p *Problem, sel []int, pos int) {
	e.pos = pos
	e.numPre, e.denPre = 0, 0
	e.numSuf, e.denSuf = e.numSuf[:0], e.denSuf[:0]
	for i, gi := range sel {
		st := &p.stats[gi]
		switch {
		case i < pos:
			e.numPre += st.nSigma
			e.denPre += st.n
		case i > pos:
			e.numSuf = append(e.numSuf, st.nSigma)
			e.denSuf = append(e.denSuf, st.n)
		}
	}
	if p.Task != DiversityMining {
		return
	}
	k := max(len(sel), pos+1) // the trial's size
	e.slots = slices.Grow(e.slots[:0], k)[:k]
	e.terms = e.terms[:0]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			t := 0.0
			switch pos {
			case i:
				e.slots[j] = len(e.terms)
			case j:
				e.slots[i] = len(e.terms)
			default:
				t = p.pairTerm(sel[i], sel[j])
			}
			e.terms = append(e.terms, t)
		}
	}
}

// objective returns Objective of the trial reset prepared with sample
// entry s at position pos.
func (e *swapEval) objective(p *Problem, s int) float64 {
	st := &p.stats[e.sample[s]]
	num, den := e.numPre+st.nSigma, e.denPre+st.n
	for i, t := range e.numSuf {
		num += t
		den += e.denSuf[i]
	}
	sm := math.Inf(1)
	if den != 0 {
		sm = num / den
	}
	if p.Task != DiversityMining {
		return sm
	}
	row := e.pt[s*e.width : (s+1)*e.width]
	for i, slot := range e.slots {
		if i != e.pos {
			e.terms[slot] = row[i]
		}
	}
	var gap float64
	for _, t := range e.terms {
		gap += t
	}
	return sm - gap/float64(len(e.terms))
}

// minGroups is the smallest admissible selection size for the task.
func (p *Problem) minGroups() int {
	if p.Task == DiversityMining {
		return 2
	}
	return 1
}

// Feasible reports whether a selection satisfies all constraints.
func (p *Problem) Feasible(sel []int) bool {
	if len(sel) < p.minGroups() || len(sel) > p.Settings.K {
		return false
	}
	seen := map[int]bool{}
	for _, gi := range sel {
		if seen[gi] {
			return false
		}
		seen[gi] = true
	}
	return float64(p.coveredCount(sel)) >= p.required()
}

// Evaluate returns the objective, exact coverage fraction and feasibility
// of a selection in one pass.
func (p *Problem) Evaluate(sel []int) (obj, coverage float64, feasible bool) {
	covered := p.coveredCount(sel)
	coverage = float64(covered) / float64(max(1, p.total))
	obj = p.Objective(sel)
	feasible = len(sel) >= p.minGroups() && len(sel) <= p.Settings.K &&
		float64(covered) >= p.required() && !hasDup(sel)
	return obj, coverage, feasible
}

func hasDup(sel []int) bool {
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if sel[i] == sel[j] {
				return true
			}
		}
	}
	return false
}

// Solution is a solver output: the chosen groups with their score.
type Solution struct {
	// Groups holds indices into Cube.Groups, sorted by support descending
	// for presentation stability.
	Groups []int
	// Objective is the task objective (lower is better for both tasks).
	Objective float64
	// Coverage is the exact fraction of R_I the groups jointly cover.
	Coverage float64
	// Feasible reports whether all constraints hold. Solvers only return
	// infeasible solutions when the instance itself is infeasible.
	Feasible bool
	// Evals counts objective evaluations spent (the experiments' work
	// metric, independent of wall clock).
	Evals int
}

// Better reports whether s beats other under (feasibility, objective).
func (s Solution) Better(other Solution) bool {
	if s.Feasible != other.Feasible {
		return s.Feasible
	}
	return s.Objective < other.Objective
}
