// Package store is MapRat's in-memory rating store: the "aggressive data
// pre-processing, result pre-computation and caching" layer of §2.3. It
// joins every rating with its reviewer's demographics once at open time,
// maintains inverted indexes from item attributes (title, genre, actor,
// director) to items and from items to rating tuples sorted by time, keeps
// per-epoch state aggregates for browse-mode statistics (built lazily on
// first use), and offers an LRU result cache for repeated queries.
package store

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/cube"
	"repro/internal/model"
)

// TimeWindow restricts ratings to [From, To] (Unix seconds, inclusive).
// The zero TimeWindow means "all time". A non-zero bound is always active;
// a bound that is exactly 0 (the Unix epoch) is treated as unbounded
// unless the matching HasFrom/HasTo flag marks it explicit — historically
// an epoch bound was silently ignored. Prefer the Between/Since/Until
// constructors, which set the flags and so behave correctly for every
// timestamp, the epoch included.
type TimeWindow struct {
	From, To int64
	// HasFrom / HasTo mark the corresponding bound as explicitly set, so
	// a bound at Unix time 0 is honoured rather than read as "unbounded".
	HasFrom, HasTo bool
}

// Between returns the window [from, to], honouring bounds of 0.
func Between(from, to int64) TimeWindow {
	return TimeWindow{From: from, To: to, HasFrom: true, HasTo: true}
}

// Since returns the window [from, ∞).
func Since(from int64) TimeWindow { return TimeWindow{From: from, HasFrom: true} }

// Until returns the window (-∞, to].
func Until(to int64) TimeWindow { return TimeWindow{To: to, HasTo: true} }

// BoundedFrom reports whether the lower bound is active.
func (w TimeWindow) BoundedFrom() bool { return w.HasFrom || w.From != 0 }

// BoundedTo reports whether the upper bound is active.
func (w TimeWindow) BoundedTo() bool { return w.HasTo || w.To != 0 }

// Contains reports whether ts falls inside the window.
func (w TimeWindow) Contains(ts int64) bool {
	if w.BoundedFrom() && ts < w.From {
		return false
	}
	if w.BoundedTo() && ts > w.To {
		return false
	}
	return true
}

// IsAll reports whether the window is unbounded on both sides.
func (w TimeWindow) IsAll() bool { return !w.BoundedFrom() && !w.BoundedTo() }

// String renders the window for cache keys and logs; an inactive side
// renders as *.
func (w TimeWindow) String() string {
	if w.IsAll() {
		return "[all]"
	}
	from, to := "*", "*"
	if w.BoundedFrom() {
		from = fmt.Sprintf("%d", w.From)
	}
	if w.BoundedTo() {
		to = fmt.Sprintf("%d", w.To)
	}
	return fmt.Sprintf("[%s,%s]", from, to)
}

// Options configures Open.
type Options struct {
	// CacheSize bounds the LRU result cache; 0 disables caching.
	CacheSize int
	// PlanCacheTuples bounds the materialized query-plan cache — the tier
	// that shares resolved item IDs, the gathered R_I tuples and the built
	// candidate cube across Explain/Explore/Refine/DrillMine — by the
	// total tuple count held across cached plans. 0 disables the tier.
	PlanCacheTuples int
}

// DefaultOptions enables a small result cache and a
// plan-materialization budget of 2M tuples (roughly two whole-log plans
// at MovieLens-1M scale).
func DefaultOptions() Options {
	return Options{
		CacheSize:       256,
		PlanCacheTuples: 2 << 20,
	}
}

// Store is the opened, indexed dataset plus the live-ingestion state that
// grows it: the base log is epoch 1, and every accepted append batch
// advances the epoch by one. All log-reading accessors take the store's
// RW lock so reads stay consistent against a concurrent Append; the *At
// accessors additionally pin a historical epoch by filtering to the
// epoch's tuple watermark.
type Store struct {
	ds     *model.Dataset
	tuples []cube.Tuple // all ratings joined with reviewer demographics

	itemTuples map[int][]int32 // item ID -> tuple indices, sorted by time

	byGenre    map[string][]int // lower-cased genre -> item IDs
	byActor    map[string][]int
	byDirector map[string][]int
	byTitle    map[string][]int // lower-cased full title -> item IDs
	titleTerm  map[string][]int // lower-cased title word -> item IDs

	minUnix, maxUnix int64

	// mu guards the mutable log state (tuples, itemTuples, min/max, epoch,
	// bounds). Readers take RLock; Append takes Lock.
	// Everything above that Append never touches (the item-attribute
	// indexes, ds) stays lock-free: the catalog is immutable under append.
	mu sync.RWMutex

	// epoch is the current data version: 1 for the base log, +1 per
	// accepted batch. bounds[e-1] freezes the log's extent at the end of
	// epoch e, so any past epoch can be served exactly.
	epoch  uint64
	bounds []epochMark

	cache *LRU       // nil unless Options.CacheSize > 0
	plans *PlanCache // nil unless Options.PlanCacheTuples > 0
}

// epochMark freezes the log's extent at the end of one epoch: the tuple
// watermark (results at that epoch only see tuples[:tuples]), the time
// range, and the batch's per-state aggregate delta feeding the browse
// view. Marks are immutable once appended.
type epochMark struct {
	tuples           int
	minUnix, maxUnix int64
	// states is this epoch's per-state aggregate delta, indexed by state
	// descriptor value (len = cube.Cardinality(cube.State)). The base
	// epoch's entry is the whole-log aggregate, built lazily on first
	// browse (see stateAggsLocked).
	states []cube.Agg
}

// openParallelMin is the rating count below which Join runs
// sequentially; goroutine fan-out over a small log costs more than the
// join.
const openParallelMin = 1 << 15

// Prejoined carries the open-time artifacts Join derives and a snapshot
// stores: the demographics-joined tuple log in rating-log order, the
// per-item time-sorted index into it, and the rating time range.
type Prejoined struct {
	Tuples     []cube.Tuple
	ItemTuples map[int][]int32
	MinUnix    int64
	MaxUnix    int64
}

// Open indexes a dataset over its joined rating log and seals the log as
// epoch 1. pj is either Join(ds), which checks every rating with
// JoinRating, or a snapshot's decoded log, whose ratings snapshot.Open
// checks with Rating.Validate and whose every field it derives from the
// tuples. Open checks that pj holds one tuple per rating, builds the
// item-attribute indexes and the optional caching tiers, and takes
// ownership of pj. A snapshot's pj may alias read-only mapped pages: its
// slices carry no spare capacity, so the store's appends copy them
// rather than write into them. Open never mutates ds.
//
// The browse aggregates are deferred to the first StateAggsAt call, so
// opening a store — in particular from a memory-mapped snapshot — never
// pays for an aggregate the workload might not touch.
func Open(ds *model.Dataset, pj Prejoined, opts Options) (*Store, error) {
	if ds == nil {
		return nil, fmt.Errorf("store: nil dataset")
	}
	if len(pj.Tuples) != len(ds.Ratings) {
		return nil, fmt.Errorf("store: joined log has %d tuples for %d ratings", len(pj.Tuples), len(ds.Ratings))
	}
	s := &Store{
		ds:         ds,
		tuples:     pj.Tuples,
		itemTuples: pj.ItemTuples,
		byGenre:    make(map[string][]int),
		byActor:    make(map[string][]int),
		byDirector: make(map[string][]int),
		byTitle:    make(map[string][]int),
		titleTerm:  make(map[string][]int),
		minUnix:    pj.MinUnix,
		maxUnix:    pj.MaxUnix,
		epoch:      1,
	}
	if s.itemTuples == nil {
		s.itemTuples = make(map[int][]int32)
	}
	s.buildItemIndexes()
	if opts.CacheSize > 0 {
		s.cache = NewLRU(opts.CacheSize)
	}
	if opts.PlanCacheTuples > 0 {
		s.plans = NewPlanCache(opts.PlanCacheTuples)
	}
	// The base mark's states delta (the whole-log per-state aggregate) is
	// built lazily by stateAggsLocked so open never pays for it.
	s.bounds = []epochMark{{tuples: len(s.tuples), minUnix: s.minUnix, maxUnix: s.maxUnix}}
	return s, nil
}

// JoinRating is the one validating join every rating passes on its way
// into a store: r must pass Rating.Validate and reference a user and an
// item of ds, and is then joined with its reviewer's demographics. Join
// runs it over a dataset's whole log, and the live-append path over each
// batch, so a rating refused on one path is refused on every path.
func JoinRating(ds *model.Dataset, r model.Rating) (cube.Tuple, error) {
	if err := r.Validate(); err != nil {
		return cube.Tuple{}, err
	}
	u := ds.UserByID(r.UserID)
	if u == nil {
		return cube.Tuple{}, fmt.Errorf("unknown user %d", r.UserID)
	}
	if ds.ItemByID(r.ItemID) == nil {
		return cube.Tuple{}, fmt.Errorf("unknown item %d", r.ItemID)
	}
	return cube.JoinRating(r, u), nil
}

// Join checks every rating of ds with JoinRating and materializes the
// demographics-joined tuple log, the per-item index sorted by (Unix, log
// index), and the rating time range, sharding the work over rating
// partitions across GOMAXPROCS goroutines. The result is identical to a
// sequential join: shards are contiguous index ranges merged in order,
// and the per-item sort carries a total-order tie-break. maprat.Open and
// the snapshot writer both call it, so a store opened from a snapshot
// holds exactly the log a text open derives, and no invalid rating
// reaches either.
func Join(ds *model.Dataset) (Prejoined, error) {
	tuples := make([]cube.Tuple, len(ds.Ratings))
	pj := Prejoined{Tuples: tuples, ItemTuples: make(map[int][]int32)}

	workers := runtime.GOMAXPROCS(0)
	if len(ds.Ratings) < openParallelMin {
		workers = 1
	}

	type shard struct {
		itemTuples       map[int][]int32
		minUnix, maxUnix int64
		seen             bool // shard processed at least one rating
		err              error
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(ds.Ratings) / workers
		hi := (w + 1) * len(ds.Ratings) / workers
		wg.Add(1)
		go func(sh *shard, lo, hi int) { //maprat:allow(ctxflow) startup join shard: bounded CPU work joined by wg.Wait before Join returns
			defer wg.Done()
			sh.itemTuples = make(map[int][]int32)
			for i := lo; i < hi; i++ {
				r := ds.Ratings[i]
				t, err := JoinRating(ds, r)
				if err != nil {
					// First error of the shard == lowest rating index,
					// matching the sequential scan's report.
					sh.err = fmt.Errorf("store: rating %d: %w", i, err)
					return
				}
				tuples[i] = t
				if !sh.seen || r.Unix < sh.minUnix {
					sh.minUnix = r.Unix
				}
				if !sh.seen || r.Unix > sh.maxUnix {
					sh.maxUnix = r.Unix
				}
				sh.seen = true
				sh.itemTuples[r.ItemID] = append(sh.itemTuples[r.ItemID], int32(i))
			}
		}(&shards[w], lo, hi)
	}
	wg.Wait()

	// Merge in shard order: index lists stay ascending, and the first
	// failing shard carries the lowest-index error. The explicit seen
	// flag (not a 0 sentinel) keeps ratings at the Unix epoch in the
	// range, identical to the sequential scan.
	merged := false
	for w := range shards {
		sh := &shards[w]
		if sh.err != nil {
			return Prejoined{}, sh.err
		}
		if !sh.seen {
			continue
		}
		if !merged || sh.minUnix < pj.MinUnix {
			pj.MinUnix = sh.minUnix
		}
		if !merged || sh.maxUnix > pj.MaxUnix {
			pj.MaxUnix = sh.maxUnix
		}
		merged = true
		for id, idxs := range sh.itemTuples {
			pj.ItemTuples[id] = append(pj.ItemTuples[id], idxs...)
		}
	}

	// Time-sort each item's index list; items are independent, so spread
	// them over the same worker count.
	ids := make([]int, 0, len(pj.ItemTuples))
	for id := range pj.ItemTuples {
		ids = append(ids, id)
	}
	sortShard := func(ids []int) {
		for _, id := range ids {
			idxs := pj.ItemTuples[id]
			sort.Slice(idxs, func(a, b int) bool {
				ta, tb := tuples[idxs[a]].Unix, tuples[idxs[b]].Unix
				if ta != tb {
					return ta < tb
				}
				return idxs[a] < idxs[b]
			})
		}
	}
	if workers == 1 {
		sortShard(ids)
	} else {
		var sw sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(ids) / workers
			hi := (w + 1) * len(ids) / workers
			sw.Add(1)
			go func(part []int) { //maprat:allow(ctxflow) startup sort shard: bounded CPU work joined by sw.Wait before Join returns
				defer sw.Done()
				sortShard(part)
			}(ids[lo:hi])
		}
		sw.Wait()
	}
	return pj, nil
}

// buildItemIndexes fills the item-attribute inverted indexes.
func (s *Store) buildItemIndexes() {
	for i := range s.ds.Items {
		it := &s.ds.Items[i]
		s.byTitle[norm(it.Title)] = append(s.byTitle[norm(it.Title)], it.ID)
		for _, term := range tokenize(it.Title) {
			s.titleTerm[term] = appendUnique(s.titleTerm[term], it.ID)
		}
		for _, g := range it.Genres {
			s.byGenre[norm(g)] = append(s.byGenre[norm(g)], it.ID)
		}
		for _, a := range it.Actors {
			s.byActor[norm(a)] = append(s.byActor[norm(a)], it.ID)
		}
		for _, d := range it.Directors {
			s.byDirector[norm(d)] = append(s.byDirector[norm(d)], it.ID)
		}
	}
}

func norm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// tokenize lower-cases a title and splits it into alphanumeric words, so
// punctuation ("Rings:" vs "rings") never blocks a term match.
func tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
}

func appendUnique(xs []int, v int) []int {
	if n := len(xs); n > 0 && xs[n-1] == v {
		return xs
	}
	return append(xs, v)
}

// Dataset returns the underlying dataset.
func (s *Store) Dataset() *model.Dataset { return s.ds }

// NumTuples returns the size of the joined rating log at the latest epoch.
func (s *Store) NumTuples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tuples)
}

// TimeRange returns the [min,max] rating timestamps in the log.
func (s *Store) TimeRange() (int64, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.minUnix, s.maxUnix
}

// TimeRangeAt returns the [min,max] rating timestamps as of the given
// epoch; 0 means latest.
func (s *Store) TimeRangeAt(epoch uint64) (int64, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.markLocked(epoch)
	return m.minUnix, m.maxUnix
}

// CurrentEpoch returns the store's data version: 1 for the base log, +1
// per accepted append batch.
func (s *Store) CurrentEpoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// markLocked resolves an epoch to its frozen extent. Callers hold mu.
// Epoch 0 and any epoch at or beyond the current one resolve to the
// latest mark; epoch validation (rejecting future epochs) is the mining
// layer's job.
func (s *Store) markLocked(epoch uint64) *epochMark {
	if epoch == 0 || epoch >= s.epoch {
		return &s.bounds[len(s.bounds)-1]
	}
	return &s.bounds[epoch-1]
}

// watermarkLocked returns the tuple count visible at an epoch.
func (s *Store) watermarkLocked(epoch uint64) int {
	if epoch == 0 || epoch >= s.epoch {
		return len(s.tuples)
	}
	return s.bounds[epoch-1].tuples
}

// Cache returns the store's result cache (nil when disabled).
func (s *Store) Cache() *LRU { return s.cache }

// Plans returns the store's materialized query-plan cache (nil when
// disabled).
func (s *Store) Plans() *PlanCache { return s.plans }

// ItemsByGenre returns the IDs of items tagged with the genre
// (case-insensitive), in catalog order.
func (s *Store) ItemsByGenre(genre string) []int { return cloneIDs(s.byGenre[norm(genre)]) }

// ItemsByActor returns the IDs of items featuring the actor.
func (s *Store) ItemsByActor(actor string) []int { return cloneIDs(s.byActor[norm(actor)]) }

// ItemsByDirector returns the IDs of items by the director.
func (s *Store) ItemsByDirector(director string) []int {
	return cloneIDs(s.byDirector[norm(director)])
}

// ItemsByTitle returns the IDs of items whose full title matches
// (case-insensitive).
func (s *Store) ItemsByTitle(title string) []int { return cloneIDs(s.byTitle[norm(title)]) }

// ItemsByTitleTerms returns the IDs of items whose title contains every
// word of the query (the Figure-1 search box behaviour).
func (s *Store) ItemsByTitleTerms(query string) []int {
	terms := tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	// Intersect posting lists, rarest first.
	lists := make([][]int, len(terms))
	for i, t := range terms {
		lists[i] = s.titleTerm[t]
		if len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(a, b int) bool { return len(lists[a]) < len(lists[b]) })
	out := cloneIDs(lists[0])
	for _, l := range lists[1:] {
		out = intersectSorted(out, l)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

func cloneIDs(ids []int) []int {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int, len(ids))
	copy(out, ids)
	return out
}

func intersectSorted(a, b []int) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// TuplesForItems gathers R_I at the latest epoch: every rating tuple of
// the given items inside the window. The result is a fresh slice;
// mutation is safe.
func (s *Store) TuplesForItems(itemIDs []int, w TimeWindow) []cube.Tuple {
	return s.TuplesForItemsAt(itemIDs, w, 0)
}

// TuplesForItemsAt gathers R_I as of an epoch: every rating tuple of the
// given items inside the window whose log position is below the epoch's
// tuple watermark. Epoch 0 (or the current epoch) is the latest view and
// pays no filtering. The result is a fresh slice; mutation is safe.
//
// The window sub-ranges are resolved in a first pass so the result is
// allocated exactly once — a whole-genre query gathers hundreds of
// thousands of tuples, and growing by append would copy the slice ~20
// times on the cold path. For a pinned epoch the count pass additionally
// walks the sub-range to count surviving indices: per-item lists are
// time-sorted, not log-ordered, so the watermark cut is a filter rather
// than a prefix.
func (s *Store) TuplesForItemsAt(itemIDs []int, w TimeWindow, epoch uint64) []cube.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mark := s.watermarkLocked(epoch)
	latest := mark == len(s.tuples)
	bounds := make([][2]int, len(itemIDs))
	total := 0
	for i, id := range itemIDs {
		idxs := s.itemTuples[id]
		lo, hi := windowBounds(s.tuples, idxs, w)
		bounds[i] = [2]int{lo, hi}
		if latest {
			total += hi - lo
			continue
		}
		for _, ti := range idxs[lo:hi] {
			if int(ti) < mark {
				total++
			}
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]cube.Tuple, 0, total)
	for i, id := range itemIDs {
		idxs := s.itemTuples[id]
		for _, ti := range idxs[bounds[i][0]:bounds[i][1]] {
			if !latest && int(ti) >= mark {
				continue
			}
			out = append(out, s.tuples[ti])
		}
	}
	return out
}

// windowBounds binary-searches the time-sorted tuple index list for the
// window's sub-range.
func windowBounds(tuples []cube.Tuple, idxs []int32, w TimeWindow) (int, int) {
	lo := 0
	if w.BoundedFrom() {
		lo = sort.Search(len(idxs), func(i int) bool { return tuples[idxs[i]].Unix >= w.From })
	}
	hi := len(idxs)
	if w.BoundedTo() {
		hi = sort.Search(len(idxs), func(i int) bool { return tuples[idxs[i]].Unix > w.To })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// StateAggsAt returns the per-state rating aggregates as of an epoch
// (index = state descriptor value). Epoch 0 means latest. The result is
// a fresh slice.
//
// At the base epoch these are exactly the aggregates of the state-only
// groups of a whole-log cube; at later epochs they fold in each batch's
// delta, so pinned browse reads are exact at every epoch.
func (s *Store) StateAggsAt(epoch uint64) []cube.Agg {
	s.ensureBaseStates()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]cube.Agg, cube.Cardinality(cube.State))
	copy(out, s.bounds[0].states)
	last := s.epoch
	if epoch != 0 && epoch < last {
		last = epoch
	}
	for e := uint64(2); e <= last; e++ {
		for i, d := range s.bounds[e-1].states {
			out[i].Merge(d)
		}
	}
	return out
}

// ensureBaseStates lazily builds the base epoch's whole-log per-state
// aggregate with double-checked locking.
func (s *Store) ensureBaseStates() {
	s.mu.RLock()
	built := s.bounds[0].states != nil
	s.mu.RUnlock()
	if built {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bounds[0].states != nil {
		return
	}
	states := make([]cube.Agg, cube.Cardinality(cube.State))
	for i := range s.bounds[0].tuples {
		t := &s.tuples[i]
		if st := t.Vals[cube.State]; st != cube.Wildcard {
			states[st].Add(t.Score)
		}
	}
	s.bounds[0].states = states
}
