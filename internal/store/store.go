// Package store is MapRat's in-memory rating store: the "aggressive data
// pre-processing, result pre-computation and caching" layer of §2.3. It
// checks every rating and resolves its reviewer once at open time, keeps
// the dataset's rating log as the base of its own (shared, never copied)
// with appended ratings in a segment after it, maintains inverted indexes
// from item attributes (title, genre, actor, director) to items and from
// items to their ratings sorted by time, joins a rating with its
// reviewer's demographics only when a gather returns its tuple, keeps
// per-epoch state aggregates for browse-mode statistics (built lazily on
// first use), and offers an LRU result cache for repeated queries.
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unsafe"

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
// advances the epoch by one. The store holds no joined copy of the
// rating log (see ratingLog): a gather rebuilds each tuple from its
// rating and its reviewer's vector. All log-reading accessors take the
// store's RW lock so reads stay consistent against a concurrent Append;
// the *At accessors additionally pin a historical epoch by filtering to
// the epoch's watermark.
type Store struct {
	ds   *model.Dataset
	join *Joiner // the catalog's per-reviewer join table, pj.Joiner
	log  ratingLog

	items map[int]itemRun // item ID -> its ratings, sorted by (Unix, log position)

	byGenre    map[string][]int // lower-cased genre -> item IDs
	byActor    map[string][]int
	byDirector map[string][]int
	byTitle    map[string][]int // lower-cased full title -> item IDs
	titleTerm  map[string][]int // lower-cased title word -> item IDs

	minUnix, maxUnix int64

	// mu guards the mutable log state (log, items, min/max, epoch,
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

// ratingLog is the store's rating log: the dataset's own ratings, then
// the accepted appends. Log position p names base[p] below len(base) and
// appended[p-len(base)] above it. base is ds.Ratings capped at its
// length, shared with every other reader of the dataset and never
// written; an append grows only appended, so the base is never copied
// either. vals is the Joiner's per-reviewer table, which turns a rating
// into its tuple.
type ratingLog struct {
	base, appended []model.Rating
	vals           [][cube.NumAttrs]int16
}

// len returns the log's length.
func (l *ratingLog) len() int { return len(l.base) + len(l.appended) }

// ratingAt returns the rating at log position p, the one accessor that
// knows the log's two segments.
func (l *ratingLog) ratingAt(p int32) *model.Rating {
	if int(p) < len(l.base) {
		return &l.base[p]
	}
	return &l.appended[int(p)-len(l.base)]
}

// gather writes into dst the tuple of each entry of one item's run —
// log positions pos, reviewer positions users (positions in ds.Users) —
// in run order; dst holds one slot per entry. Each tuple is
// cube.JoinRating of its rating and its reviewer's vector, built in two
// passes: the first copies each rating's Unix and Score, which share the
// first 16 bytes of its 24, so its random reads of the log overlap with
// one another; the second sets each reviewer's vector, reading only
// cached memory. (At MovieLens-1M scale on a 2-vCPU Xeon VM, one loop
// doing both took about 1.5× as long as copying stored tuples did.)
func (l *ratingLog) gather(dst []cube.Tuple, pos, users []int32) {
	// base and vals stay in registers, where l's fields would be
	// reloaded for every entry; reading the base inline rather than
	// through ratingAt made a full-scale gather about 10% faster.
	base, vals := l.base, l.vals
	dst, users = dst[:len(pos)], users[:len(pos)]
	for k, p := range pos {
		var r *model.Rating
		if int(p) < len(base) {
			r = &base[p]
		} else {
			r = l.ratingAt(p)
		}
		t := &dst[k]
		t.Score, t.Unix = r.Score, r.Unix
	}
	for k, u := range users {
		dst[k].Vals = vals[u]
	}
}

// windowBounds binary-searches an item's time-sorted log positions for
// the window's sub-range.
func (l *ratingLog) windowBounds(pos []int32, w TimeWindow) (int, int) {
	lo := 0
	if w.BoundedFrom() {
		lo = sort.Search(len(pos), func(i int) bool { return l.ratingAt(pos[i]).Unix >= w.From })
	}
	hi := len(pos)
	if w.BoundedTo() {
		hi = sort.Search(len(pos), func(i int) bool { return l.ratingAt(pos[i]).Unix > w.To })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// itemRun is one item's ratings in (Unix, log position) order: pos holds
// their log positions and users, in step, the position in ds.Users of
// each one's reviewer, which the gather joins it with.
type itemRun struct {
	pos, users []int32
}

// epochMark freezes the log's extent at the end of one epoch: the
// watermark (results at that epoch only see log positions below
// tuples), the time range, and the batch's per-state aggregate delta
// feeding the browse view. Marks are immutable once appended.
type epochMark struct {
	tuples           int
	minUnix, maxUnix int64
	// states is this epoch's per-state aggregate delta, indexed by state
	// descriptor value (len = cube.Cardinality(cube.State)). The base
	// epoch's entry is the whole-log aggregate, built lazily on first
	// browse (see stateAggsLocked).
	states []cube.Agg
}

// Open indexes a dataset over its rating log and seals the log as epoch
// 1. pj is either Join(ds), which checks every rating with a Joiner, or
// a snapshot's decoded index, whose ratings snapshot.Open derived from
// the stored tuples and checked against a Joiner over the snapshot's
// catalog. Either way pj.Joiner is the Joiner over ds that did the
// checking, and the store keeps it for gathers and appends. Open checks
// that, and that pj indexes every rating once, with a reviewer position
// beside each entry, in one run per item, builds the item-attribute
// indexes and the optional caching tiers, and takes ownership of pj. A
// snapshot's pj may alias read-only mapped pages: its runs carry no
// spare capacity, so the store's appends copy them rather than write
// into them. Open never mutates ds: the store reads ds.Ratings as the
// base of its log and keeps appended ratings apart.
//
// The browse aggregates are deferred to the first StateAggsAt call, so
// opening a store — in particular from a memory-mapped snapshot — never
// pays for an aggregate the workload might not touch.
func Open(ds *model.Dataset, pj Prejoined, opts Options) (*Store, error) {
	if ds == nil {
		return nil, fmt.Errorf("store: nil dataset")
	}
	if pj.Joiner == nil || pj.Joiner.ds != ds {
		return nil, fmt.Errorf("store: item index carries no Joiner over this dataset")
	}
	n := len(ds.Ratings)
	if len(pj.ItemOffsets) != len(ds.Items)+1 || len(pj.ItemIndex) != n || len(pj.ItemUsers) != n {
		return nil, fmt.Errorf("store: item index has %d offsets, %d entries and %d reviewer positions for %d items and %d ratings",
			len(pj.ItemOffsets), len(pj.ItemIndex), len(pj.ItemUsers), len(ds.Items), n)
	}
	s := &Store{
		ds:         ds,
		join:       pj.Joiner,
		log:        ratingLog{base: ds.Ratings[:n:n], vals: pj.Joiner.vals},
		items:      make(map[int]itemRun, len(ds.Items)),
		byGenre:    make(map[string][]int),
		byActor:    make(map[string][]int),
		byDirector: make(map[string][]int),
		byTitle:    make(map[string][]int),
		titleTerm:  make(map[string][]int),
		minUnix:    pj.MinUnix,
		maxUnix:    pj.MaxUnix,
		epoch:      1,
	}
	for i := range ds.Items {
		if pos, users := pj.ItemRun(i); len(pos) > 0 {
			s.items[ds.Items[i].ID] = itemRun{pos: pos, users: users}
		}
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
	s.bounds = []epochMark{{tuples: n, minUnix: s.minUnix, maxUnix: s.maxUnix}}
	return s, nil
}

// Joined is one rating checked against a store's catalog, with its
// reviewer's position in it: what Append takes. Only JoinRating makes
// one.
type Joined struct {
	r    model.Rating
	user int32
}

// JoinRating checks one rating against the store's catalog with the
// Joiner the store was opened with, the rule Join applies to a whole
// log. The append path runs it over every rating of a batch.
func (s *Store) JoinRating(r model.Rating) (Joined, error) {
	u, _, err := s.join.join(r)
	return Joined{r: r, user: u}, err
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

// NumTuples returns the size of the rating log at the latest epoch.
func (s *Store) NumTuples() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.log.len()
}

// MemStats is the byte count of the store's largest owners of memory,
// each its length times its element size.
type MemStats struct {
	// BaseLogBytes is the base rating log: the dataset's own ratings,
	// shared with it, on the heap whichever way the dataset was opened.
	BaseLogBytes int64 `json:"base_log_bytes"`
	// AppendedBytes is the log's appended segment.
	AppendedBytes int64 `json:"appended_bytes"`
	// ItemIndexBytes and ItemUsersBytes are the open-time arenas of
	// Prejoined.ItemIndex and Prejoined.ItemUsers, one entry per base
	// rating each. An append copies only the runs it touches.
	ItemIndexBytes int64 `json:"item_index_bytes"`
	ItemUsersBytes int64 `json:"item_users_bytes"`
}

// MemStats returns the byte counts of the store's rating log and index
// arenas at the latest epoch.
func (s *Store) MemStats() MemStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rating, entry := int64(unsafe.Sizeof(model.Rating{})), int64(unsafe.Sizeof(int32(0)))
	n := int64(len(s.log.base))
	return MemStats{
		BaseLogBytes:   n * rating,
		AppendedBytes:  int64(len(s.log.appended)) * rating,
		ItemIndexBytes: n * entry,
		ItemUsersBytes: n * entry,
	}
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

// watermarkLocked returns the log length visible at an epoch.
func (s *Store) watermarkLocked(epoch uint64) int {
	if epoch == 0 || epoch >= s.epoch {
		return s.log.len()
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
// watermark, in item order and, within an item, in (Unix, log position)
// order. Epoch 0 (or the current epoch) is the latest view and pays no
// filtering. Each tuple is joined here, from its rating and its
// reviewer's vector (ratingLog.gather); the reviewer positions lie
// beside the index, so the gather reads them sequentially. The result is
// a fresh slice; mutation is safe.
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
	latest := mark == s.log.len()
	bounds, total := s.windowCountsLocked(itemIDs, w, mark)
	if total == 0 {
		return nil
	}
	out := make([]cube.Tuple, total)
	n := 0
	var keptPos, keptUsers []int32 // a pinned read's entries below the watermark, per item
	for i, id := range itemIDs {
		run := s.items[id]
		lo, hi := bounds[i][0], bounds[i][1]
		pos, users := run.pos[lo:hi], run.users[lo:hi]
		if !latest {
			keptPos, keptUsers = keptPos[:0], keptUsers[:0]
			for k, p := range pos {
				if int(p) < mark {
					keptPos = append(keptPos, p)
					keptUsers = append(keptUsers, users[k])
				}
			}
			pos, users = keptPos, keptUsers
		}
		s.log.gather(out[n:n+len(pos)], pos, users)
		n += len(pos)
	}
	return out
}

// windowCountsLocked resolves each item's window sub-range of its run
// and counts the entries in them below the watermark mark: the first
// pass of a gather. Callers hold mu.
func (s *Store) windowCountsLocked(itemIDs []int, w TimeWindow, mark int) (bounds [][2]int, total int) {
	latest := mark == s.log.len()
	bounds = make([][2]int, len(itemIDs))
	for i, id := range itemIDs {
		run := s.items[id]
		lo, hi := s.log.windowBounds(run.pos, w)
		bounds[i] = [2]int{lo, hi}
		if latest {
			total += hi - lo
			continue
		}
		for _, p := range run.pos[lo:hi] {
			if int(p) < mark {
				total++
			}
		}
	}
	return bounds, total
}

// SuccessorTuplesAt gathers R_I as of epoch, as TuplesForItemsAt does,
// given the seed a plan of the same items and window, built at the
// earlier epoch seed.Epoch, left. Within each item's window it takes the
// score and timestamp of every entry below the seed epoch's watermark
// from the seed, in order, joining each with its reviewer's attribute
// values, and reads from the log only the entries at or above it; added
// lists the indices of those in the result, ascending. So tuples equals
// TuplesForItemsAt(itemIDs, w, epoch), and removing the tuples at added
// leaves the superseded plan's tuples. The result is a fresh slice;
// mutation is safe.
//
// This is the successor build's gather: an append's batch lands at the
// end of the log, so the entries below the old watermark are exactly the
// ones the seed holds, and a run's time order keeps them in the seed's
// order. It panics if the seed is not that gather's, which only a
// caller's bug can cause.
func (s *Store) SuccessorTuplesAt(itemIDs []int, w TimeWindow, epoch uint64, seed *Seed) (tuples []cube.Tuple, added []int32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mark, prevMark := s.watermarkLocked(epoch), s.watermarkLocked(seed.Epoch)
	prev := len(seed.Unix)
	bounds, total := s.windowCountsLocked(itemIDs, w, mark)
	if total < prev {
		panic(fmt.Sprintf("store: successor gather of %d tuples from a seed of %d", total, prev))
	}
	if total == 0 {
		return nil, nil
	}
	tuples = make([]cube.Tuple, total)
	added = make([]int32, 0, total-prev)
	n, j := 0, 0
	vals := s.log.vals
	for i, id := range itemIDs {
		run := s.items[id]
		lo, hi := bounds[i][0], bounds[i][1]
		for k, p := range run.pos[lo:hi] {
			if int(p) >= mark {
				continue
			}
			t := &tuples[n]
			if int(p) < prevMark {
				t.Score, t.Unix = seed.Score[j], seed.Unix[j]
				j++
			} else {
				r := s.log.ratingAt(p)
				t.Score, t.Unix = r.Score, r.Unix
				added = append(added, int32(n))
			}
			t.Vals = vals[run.users[lo+k]]
			n++
		}
	}
	if j != prev {
		panic(fmt.Sprintf("store: successor gather took %d of a seed's %d tuples", j, prev))
	}
	return tuples, added
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
// aggregate with double-checked locking. It walks the item runs, whose
// entries carry each rating's reviewer, skipping appended positions; an
// Agg sums integers, so walking in item order rather than log order
// does not change the result.
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
	for i := range s.ds.Items {
		run := s.items[s.ds.Items[i].ID]
		for k, p := range run.pos {
			if int(p) >= s.bounds[0].tuples {
				continue
			}
			if st := s.log.vals[run.users[k]][cube.State]; st != cube.Wildcard {
				states[st].Add(int8(s.log.ratingAt(p).Score))
			}
		}
	}
	s.bounds[0].states = states
}
