package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/query"
	"repro/pkg/client"
)

// opKind is one operation class of a session.
type opKind uint8

const (
	opExplain opKind = iota
	opGroup
	opRefine
	opDrill
	opAppend
	numKinds
)

var kindNames = [numKinds]string{"explain", "group", "refine", "drill", "append"}

func (k opKind) String() string { return kindNames[k] }

// Workload names, as passed to --workload.
const (
	exploreSession = "explore-session"
	coldMine       = "cold-mine"
	liveAppend     = "live-append"
)

// Sizing of the op sequences. Runs are bounded by op count, never by wall
// time: --seconds scales the count by a fixed per-workload rate, calibrated
// on a 2-core x86-64 box so that one run measures roughly that long.
const (
	catalogSize      = 40  // explore-session / live-append queries
	zipfS            = 1.0 // skew of the catalog picks
	drillEvery       = 4   // one explore-session/live-append session in four drills
	coldDrillEvery   = 2   // cold-mine drills more often: it has ten times fewer sessions
	refineLimit      = 8   // refinements requested per click
	appendEvery      = 8   // live-append: one batch per this many reads
	appendBatchSize  = 16  // ratings per batch
	drillCoverage    = 0.0 // drill coverage constraint: best city groups, no α
	sessionsPerSec   = 660 // explore-session sessions per --seconds
	appendSessPerSec = 130 // live-append sessions per --seconds
	coldSessPerSec   = 60  // cold-mine sessions per --seconds
)

// hotRanks are the Zipf ranks whose items the live-append batches target:
// a mix of hot and lukewarm queries, so some plans are sealed by every
// batch while the rest survive it.
var hotRanks = []int{0, 3, 8, 15}

// entry is one query a session reads, with everything its operations need.
type entry struct {
	Q        string
	From, To int   // calendar-year window; 0 = all time
	Seed     int64 // mining seed every read of the entry carries
	Key      string
	DrillKey string // "" = the entry is never drilled
}

// op is one operation of the sequence: a read of an entry or an append.
type op struct {
	Kind  opKind
	Entry int32
	Batch int32
}

// readKey identifies a response that is a pure function of its inputs:
// (operation, entry, epoch) fixes query, seed, key and data version.
type readKey struct {
	Kind  opKind
	Entry int32
	Epoch uint64
}

// workload is a fixed, seeded op sequence plus the inputs it needs.
type workload struct {
	Name    string
	Seed    int64
	Entries []entry
	Warm    []op // setup's warm-up pass
	Ops     []op // the measured sequence
	Batches [][]client.RatingInput
	// expect holds the reference engine's digest of every epoch-1 read.
	expect map[readKey]uint64
}

func (w *workload) appends() bool { return len(w.Batches) > 0 }

// params builds the request an operation sends. epoch 0 reads the latest
// data version.
func (e *entry) params(kind opKind, epoch uint64) client.Params {
	seed := e.Seed
	p := client.Params{Q: e.Q, Seed: &seed}
	if e.From != 0 {
		from, to := e.From, e.To
		p.From, p.To = &from, &to
	}
	if epoch != 0 {
		ep := epoch
		p.Epoch = &ep
	}
	switch kind {
	case opGroup, opRefine:
		p.Key = e.Key
		limit := refineLimit
		p.Limit = &limit
	case opDrill:
		p.Key = e.DrillKey
		cov := drillCoverage
		p.Coverage = &cov
	}
	return p
}

// candidate is a (query, window) pair the catalogs draw from.
type candidate struct {
	q        string
	kind     int // index into queryKinds
	from, to int
	tuples   int
}

var queryKinds = []string{"movie", "actor", "director", "genre"}

// buildWorkload derives the named workload from the dataset and the seed.
// A reference engine (result cache off) resolves every catalog query,
// picks the groups sessions click and drill, and records the digest of
// every epoch-1 response; it is closed before the function returns.
func buildWorkload(ctx context.Context, ds *maprat.Dataset, name string, seed int64, seconds int) (*workload, error) {
	ref, err := openReference(ds)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	rng := rand.New(rand.NewSource(seed))
	w := &workload{Name: name, Seed: seed, expect: map[readKey]uint64{}}
	switch name {
	case exploreSession, liveAppend:
		rate := sessionsPerSec
		if name == liveAppend {
			rate = appendSessPerSec
		}
		if err := w.buildCatalog(ctx, ref, rng); err != nil {
			return nil, err
		}
		for i := range w.Entries {
			w.Warm = append(w.Warm, op{Kind: opExplain, Entry: int32(i)})
		}
		w.zipfSessions(rng, seconds*rate)
		if name == liveAppend {
			if err := w.addAppends(ref, rng, ds); err != nil {
				return nil, err
			}
		}
	case coldMine:
		if err := w.buildCold(ctx, ref, rng, seconds*coldSessPerSec); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, exploreSession, coldMine, liveAppend)
	}
	return w, nil
}

// pool lists every candidate query with |R_I| in [lo, hi] over the given
// kinds; windowed adds every calendar-year window of the data. The pool is
// sorted by size, so equal-count strata of it have a fixed size profile.
func pool(ref *reference, kinds []int, windowed bool, lo, hi int) ([]candidate, error) {
	ds := ref.eng.Dataset()
	names := make([]map[string]bool, len(queryKinds))
	for i := range names {
		names[i] = map[string]bool{}
	}
	for _, it := range ds.Items {
		names[0][it.Title] = true
		for _, a := range it.Actors {
			names[1][a] = true
		}
		for _, d := range it.Directors {
			names[2][d] = true
		}
		for _, g := range it.Genres {
			names[3][g] = true
		}
	}
	// Ratings per item per calendar year, as prefix sums over years.
	minT, maxT := ref.eng.TimeRange()
	y0 := time.Unix(minT, 0).UTC().Year()
	years := time.Unix(maxT, 0).UTC().Year() - y0 + 1
	prefix := map[int][]int{}
	for _, it := range ds.Items {
		prefix[it.ID] = make([]int, years+1)
	}
	for _, r := range ds.Ratings {
		prefix[r.ItemID][time.Unix(r.Unix, 0).UTC().Year()-y0+1]++
	}
	for _, p := range prefix {
		for y := 1; y <= years; y++ {
			p[y] += p[y-1]
		}
	}
	var out []candidate
	for _, k := range kinds {
		sorted := make([]string, 0, len(names[k]))
		for n := range names[k] {
			if !strings.ContainsRune(n, '"') {
				sorted = append(sorted, n)
			}
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			qs := fmt.Sprintf("%s:%q", queryKinds[k], n)
			q, err := query.Parse(qs)
			if err != nil {
				continue
			}
			ids, err := query.Resolve(ref.eng.Store(), q)
			if err != nil || len(ids) == 0 {
				continue
			}
			count := func(a, b int) int { // ratings in years [a, b] (offsets)
				t := 0
				for _, id := range ids {
					t += prefix[id][b+1] - prefix[id][a]
				}
				return t
			}
			add := func(a, b, from, to int) {
				if t := count(a, b); t >= lo && t <= hi {
					out = append(out, candidate{q: qs, kind: k, from: from, to: to, tuples: t})
				}
			}
			if !windowed {
				add(0, years-1, 0, 0)
				continue
			}
			for a := 0; a < years; a++ {
				for b := a; b < years; b++ {
					add(a, b, y0+a, y0+b)
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].tuples < out[j].tuples })
	if len(out) == 0 {
		return nil, fmt.Errorf("no candidate queries with %d..%d ratings", lo, hi)
	}
	return out, nil
}

// strata splits a sorted pool into n equal-count ranges. Drawing one
// candidate per stratum gives every seed the same size profile, so the
// seed changes which queries run, not how much work they are.
func strata(p []candidate, n int) [][]candidate {
	out := make([][]candidate, n)
	for i := range out {
		lo, hi := i*len(p)/n, (i+1)*len(p)/n
		out[i] = p[lo:hi]
	}
	return out
}

// pick tries a stratum's candidates in a seeded order until prepare
// accepts one.
func pick(rng *rand.Rand, st []candidate, taken map[string]bool, prepare func(candidate) (bool, error)) error {
	for _, i := range rng.Perm(len(st)) {
		c := st[i]
		id := fmt.Sprintf("%s@%d-%d", c.q, c.from, c.to)
		if taken[id] {
			continue
		}
		ok, err := prepare(c)
		if err != nil {
			return err
		}
		if ok {
			taken[id] = true
			return nil
		}
	}
	return fmt.Errorf("no usable candidate among %d (sizes %d..%d)", len(st), st[0].tuples, st[len(st)-1].tuples)
}

// buildCatalog draws the explore-session catalog: one all-time movie,
// actor or director query per size stratum, |R_I| ≈ 500–30k at full
// scale. A fixed (seed-independent) permutation maps strata to Zipf
// ranks, so the hot queries have the same sizes under every seed.
func (w *workload) buildCatalog(ctx context.Context, ref *reference, rng *rand.Rand) error {
	n := ref.numRatings()
	p, err := pool(ref, []int{0, 1, 2}, false, n/2000, n*3/100)
	if err != nil {
		return err
	}
	if len(p) < catalogSize {
		return fmt.Errorf("only %d catalog candidates, need %d", len(p), catalogSize)
	}
	st := strata(p, catalogSize)
	rankToStratum := rand.New(rand.NewSource(1)).Perm(catalogSize)
	taken := map[string]bool{}
	for rank := 0; rank < catalogSize; rank++ {
		err := pick(rng, st[rankToStratum[rank]], taken, func(c candidate) (bool, error) {
			e := entry{Q: c.q, Seed: rng.Int63n(1 << 30)}
			return ref.prepare(ctx, w, &e, true, true)
		})
		if err != nil {
			return fmt.Errorf("catalog rank %d: %w", rank, err)
		}
	}
	return nil
}

// zipfSessions appends n sessions over the catalog: explain → group →
// refine, plus a drill on one session in drillEvery.
func (w *workload) zipfSessions(rng *rand.Rand, n int) {
	cum := make([]float64, len(w.Entries))
	total := 0.0
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), zipfS)
		cum[r] = total
	}
	for s := 0; s < n; s++ {
		u := rng.Float64() * total
		e := int32(sort.SearchFloat64s(cum, u))
		if int(e) == len(cum) {
			e--
		}
		w.Ops = append(w.Ops, op{Kind: opExplain, Entry: e}, op{Kind: opGroup, Entry: e}, op{Kind: opRefine, Entry: e})
		if s%drillEvery == drillEvery-1 {
			w.Ops = append(w.Ops, op{Kind: opDrill, Entry: e})
		}
	}
}

// addAppends interleaves one append batch after every appendEvery reads.
// Each batch rates items of the hotRanks catalog entries only, with
// timestamps after the end of the base log, so the plans of those
// queries are sealed and every other plan survives the epoch bump.
func (w *workload) addAppends(ref *reference, rng *rand.Rand, ds *maprat.Dataset) error {
	var hot []int
	seen := map[int]bool{}
	for _, r := range hotRanks {
		q, err := query.Parse(w.Entries[r].Q)
		if err != nil {
			return err
		}
		ids, err := query.Resolve(ref.eng.Store(), q)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				hot = append(hot, id)
			}
		}
	}
	sort.Ints(hot)
	_, maxT := ref.eng.TimeRange()
	reads := w.Ops
	w.Ops = make([]op, 0, len(reads)+len(reads)/appendEvery)
	for i, o := range reads {
		w.Ops = append(w.Ops, o)
		if (i+1)%appendEvery != 0 {
			continue
		}
		b := make([]client.RatingInput, appendBatchSize)
		for j := range b {
			b[j] = client.RatingInput{
				UserID: ds.Users[rng.Intn(len(ds.Users))].ID,
				ItemID: hot[rng.Intn(len(hot))],
				Score:  1 + rng.Intn(5),
				Unix:   maxT + int64(len(w.Batches)*appendBatchSize+j+1)*60,
			}
		}
		w.Ops = append(w.Ops, op{Kind: opAppend, Batch: int32(len(w.Batches))})
		w.Batches = append(w.Batches, b)
	}
	return nil
}

// buildCold draws n first-look sessions: every explain is a unique
// (query, year window, seed), a quarter of them per query kind (genre
// included), one per size stratum of that kind's pool. Each explain is
// followed by a group click on its fresh plan, and one session in
// coldDrillEvery drills. Warm-up sessions use further unique pairs.
func (w *workload) buildCold(ctx context.Context, ref *reference, rng *rand.Rand, n int) error {
	total := ref.numRatings()
	per := make([]int, len(queryKinds))
	for i := range per {
		per[i] = n / len(queryKinds)
	}
	per[0] += n - n/len(queryKinds)*len(queryKinds)
	type slot struct {
		st   []candidate
		warm bool
	}
	var slots []slot
	all, err := pool(ref, []int{0, 1, 2, 3}, true, total/2000, total*15/100)
	if err != nil {
		return err
	}
	for k := range queryKinds {
		var p []candidate // still sorted by size
		for _, c := range all {
			if c.kind == k {
				p = append(p, c)
			}
		}
		if len(p) < per[k]+1 {
			return fmt.Errorf("only %d %s candidates, need %d", len(p), queryKinds[k], per[k]+1)
		}
		st := strata(p, per[k])
		for _, s := range st {
			slots = append(slots, slot{st: s})
		}
		// One warm-up session per kind, drawn from its middle stratum.
		slots = append(slots, slot{st: st[per[k]/2], warm: true})
	}
	// Session order is seeded; warm-up slots go first so they are drawn
	// before (and never collide with) the measured ones.
	order := rng.Perm(len(slots))
	sort.SliceStable(order, func(a, b int) bool { return slots[order[a]].warm && !slots[order[b]].warm })
	taken := map[string]bool{}
	sessions := 0
	for _, si := range order {
		s := slots[si]
		drill := !s.warm && sessions%coldDrillEvery == coldDrillEvery-1
		err := pick(rng, s.st, taken, func(c candidate) (bool, error) {
			e := entry{Q: c.q, From: c.from, To: c.to, Seed: rng.Int63n(1 << 30)}
			return ref.prepare(ctx, w, &e, false, drill)
		})
		if err != nil {
			return fmt.Errorf("cold-mine session %d: %w", sessions, err)
		}
		e := int32(len(w.Entries) - 1)
		seq := &w.Ops
		if s.warm {
			seq = &w.Warm
		} else {
			sessions++
		}
		*seq = append(*seq, op{Kind: opExplain, Entry: e}, op{Kind: opGroup, Entry: e})
		if drill {
			*seq = append(*seq, op{Kind: opDrill, Entry: e})
		}
	}
	return nil
}
