package store

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cube"
)

// Plan is one materialized query plan: everything the mining pipelines
// derive from a query before solving — the resolved item IDs, the gathered
// R_I tuple slice, the candidate cube built over it, and the overall
// aggregate the paper argues is insufficient on its own. Materializing the
// plan once makes every follow-up interaction on the same query (group
// click, drill-deeper, city mine, evolution window) skip the resolve →
// gather → cube-build pipeline entirely.
//
// Plans are shared across concurrent requests and MUST be treated as
// immutable by every consumer: the solver keeps its scratch per Problem,
// and the exploration layer only reads tuples and member lists. The
// sanctioned exceptions are internally synchronized: the cube's lazily
// built caches (coverage bitsets, sibling table), which populate once
// under sync.Once on first use and are immutable afterwards, and the
// plan's result memo (Memo, SetMemo).
type Plan struct {
	ItemIDs []int
	Tuples  []cube.Tuple
	Cube    *cube.Cube
	Overall cube.Agg

	// memo holds results mined from this plan version; nil unless a
	// PlanCache holds the plan (see PlanCache.put).
	memo *planMemo
}

// PlanMemoCap bounds the results one plan's memo holds. A plan serves
// one query, and a session clicks, refines and drills a handful of its
// groups, so the cap is rarely reached; once it is, further results are
// computed but not stored.
const PlanMemoCap = 32

// planMemo is a plan version's result memo. A plan is immutable over its
// epoch range, so its memo never needs invalidating: it is dropped with
// the plan when the tier evicts it.
type planMemo struct {
	mu      sync.Mutex
	entries map[string]any
	bytes   int64
	stats   *memoStats // the holding cache's counters
}

type memoStats struct{ hits, misses atomic.Uint64 }

// Memo returns the result stored under key. A plan the tier does not
// hold has no memo: every lookup misses and none is counted.
func (p *Plan) Memo(key string) (any, bool) {
	m := p.memo
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	v, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		m.stats.hits.Add(1)
	} else {
		m.stats.misses.Add(1)
	}
	return v, ok
}

// SetMemo stores v, approximately size bytes, under key. It is a no-op
// on a plan the tier does not hold and once the memo holds PlanMemoCap
// entries. Stored values are shared by every later Memo hit, so callers
// store a value no one else references and clone it on the way out.
func (p *Plan) SetMemo(key string, v any, size int64) {
	m := p.memo
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok || len(m.entries) >= PlanMemoCap {
		return
	}
	m.entries[key] = v
	m.bytes += size + int64(len(key))
}

// Cost is the plan's tuple count — the unit the cache budget is
// denominated in. Tuples dominate a plan's memory (the cube's member
// lists are proportional to them), so budgeting by tuples bounds memory
// without per-entry byte bookkeeping on the hot path.
func (p *Plan) Cost() int { return len(p.Tuples) }

// SizeBytes approximates the plan's resident memory, memoized results
// included. The cube's tuple slice is the plan's tuple slice, so it is
// counted once, via the cube.
func (p *Plan) SizeBytes() int64 {
	b := int64(len(p.ItemIDs)) * 8
	if m := p.memo; m != nil {
		m.mu.Lock()
		b += m.bytes
		m.mu.Unlock()
	}
	if p.Cube != nil {
		return b + p.Cube.SizeBytes()
	}
	return b + int64(len(p.Tuples))*cube.TupleBytes
}

// PlanStats is a monitoring snapshot of the materialization tier.
type PlanStats struct {
	// Hits counts fetches served without running their own build — from
	// the cache or by joining another caller's in-flight build (the
	// latter also counted in Shared). Misses counts fetches whose own
	// build ran or failed, so Hits+Misses equals the number of fetches.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Shared uint64 `json:"shared"`
	// Builds counts successful builder executions — the number of times
	// the full resolve → gather → cube pipeline actually ran and yielded
	// a plan (Misses minus failed builds).
	Builds    uint64 `json:"builds"`
	Evictions uint64 `json:"evictions"`
	// Invalidated counts live entries sealed by an append whose batch
	// intersected their resolved item set; Surviving counts live entries
	// an append left warm. Together they prove invalidation is surgical:
	// Surviving grows while untouched plans keep taking hits.
	Invalidated uint64 `json:"invalidated"`
	Surviving   uint64 `json:"surviving"`
	Entries     int    `json:"entries"`
	// Tuples is the current budget usage against MaxTuples.
	Tuples    int   `json:"tuples"`
	MaxTuples int   `json:"max_tuples"`
	Bytes     int64 `json:"bytes"`
	// MemoHits and MemoMisses count lookups in the result memos of held
	// plans (Plan.Memo): the hit ratio of the group, refine and drill
	// results memoized per plan version.
	MemoHits   uint64 `json:"memo_hits"`
	MemoMisses uint64 `json:"memo_misses"`
}

// PlanCache is the materialization tier of §2.3's "aggressive data
// pre-processing, result pre-computation and caching": a memory-bounded,
// singleflight-fronted LRU of materialized query plans, keyed by the
// caller's canonical (query, window, cube config) fingerprint and sized
// by total tuple count rather than entry count — one whole-log query must
// not cost the same budget as a one-movie query.
//
// Under live ingestion the tier is versioned by epoch: every entry
// carries the epoch range it is valid for, and an append seals — rather
// than drops — exactly the live entries whose resolved item set
// intersects the batch. A sealed entry keeps serving epoch-pinned reads
// for its range until the LRU evicts it; entries the batch did not touch
// stay live and warm across the epoch bump. The cache key stays
// epoch-free: versions of one key chain under it.
type PlanCache struct {
	mu        sync.Mutex
	maxTuples int
	ll        *list.List // front = most recently used
	versions  map[string][]*list.Element
	tuples    int
	epoch     uint64 // current store epoch; entries built at >= epoch are live

	hits, misses, shared, builds, evictions, invalidated, surviving uint64

	// flight collapses concurrent builds of the same (key, epoch): a
	// burst of interactions on one query resolves and builds its cube
	// once.
	flight Flight

	// memo counts lookups in the memos of the plans this cache holds.
	memo memoStats
}

type planEntry struct {
	key  string
	plan *Plan
	// [lo, hi] is the entry's valid epoch range; hi == 0 means live
	// (valid from lo through the current epoch, until an intersecting
	// append seals it).
	lo, hi uint64
}

// validAt reports whether the entry serves reads pinned at epoch e.
func (e *planEntry) validAt(epoch uint64) bool {
	return e.lo <= epoch && (e.hi == 0 || epoch <= e.hi)
}

// NewPlanCache builds a cache bounded to maxTuples total tuples across
// cached plans (maxTuples must be positive).
func NewPlanCache(maxTuples int) *PlanCache {
	if maxTuples <= 0 {
		maxTuples = 1
	}
	return &PlanCache{
		maxTuples: maxTuples,
		ll:        list.New(),
		versions:  make(map[string][]*list.Element),
		epoch:     1,
	}
}

// GetOrBuild fetches the plan for key at the cache's current epoch. See
// GetOrBuildAt.
func (pc *PlanCache) GetOrBuild(ctx context.Context, key string, build func() (*Plan, error)) (plan *Plan, hit bool, err error) {
	pc.mu.Lock()
	epoch := pc.epoch
	pc.mu.Unlock()
	return pc.GetOrBuildAt(ctx, key, epoch, build)
}

// GetOrBuildAt returns the materialized plan for key as of epoch,
// building it with build on a miss. A version whose range covers the
// epoch serves the fetch — in particular a live entry built before the
// epoch, which is exactly the "untouched plan stays warm" case.
// Concurrent callers with the same key and epoch share a single build
// through the singleflight layer; hit reports whether the plan came from
// the cache (or another caller's build) rather than this caller's own
// build. Build errors are returned and never cached.
func (pc *PlanCache) GetOrBuildAt(ctx context.Context, key string, epoch uint64, build func() (*Plan, error)) (plan *Plan, hit bool, err error) {
	// Each logical fetch counts exactly once: as a hit when served from
	// the cache, a leader's re-check, or another caller's in-flight build
	// (the latter also counted in Shared), and as a miss only when this
	// caller's own build ran (or failed).
	if p, ok := pc.lookupAt(key, epoch); ok {
		return p, true, nil
	}
	flightKey := key + "@" + strconv.FormatUint(epoch, 10)
	v, sharedFlight, err := pc.flight.Do(ctx, flightKey, func() (any, error) {
		// Re-check under flight leadership: a previous leader may have
		// finished between this caller's lookup and its leadership.
		if p, ok := pc.lookupAt(key, epoch); ok {
			return p, nil
		}
		p, err := build()
		pc.mu.Lock()
		pc.misses++
		if err == nil {
			pc.builds++
		}
		pc.mu.Unlock()
		if err != nil {
			return nil, err
		}
		pc.put(key, p, epoch)
		return p, nil
	})
	if err != nil {
		return nil, false, err
	}
	if sharedFlight {
		pc.mu.Lock()
		pc.shared++
		pc.hits++
		pc.mu.Unlock()
	}
	return v.(*Plan), sharedFlight, nil
}

// lookupAt returns the cached plan version valid at epoch, counting and
// marking a hit most recently used. Misses are not counted here —
// GetOrBuildAt charges them to the caller whose build actually ran.
func (pc *PlanCache) lookupAt(key string, epoch uint64) (*Plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, el := range pc.versions[key] {
		e := el.Value.(*planEntry)
		if e.validAt(epoch) {
			pc.ll.MoveToFront(el)
			pc.hits++
			return e.plan, true
		}
	}
	return nil, false
}

// VersionAt returns the first epoch lo of the cached version of key
// valid at epoch, marking that version most recently used; ok is false
// when no cached version covers the epoch. A version's plan is identical
// at every epoch of its range, so lo names the plan that any read in the
// range sees — the engine keys mined results by it. VersionAt never
// builds and counts neither a hit nor a miss: the counters keep meaning
// plan fetches.
func (pc *PlanCache) VersionAt(key string, epoch uint64) (lo uint64, ok bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, el := range pc.versions[key] {
		e := el.Value.(*planEntry)
		if e.validAt(epoch) {
			pc.ll.MoveToFront(el)
			return e.lo, true
		}
	}
	return 0, false
}

// put stores a plan built as of buildEpoch, evicting least-recently-used
// versions until the tuple budget holds. The entry is stored live when
// the build's epoch is still current, and sealed to the single epoch
// [buildEpoch, buildEpoch] when an append advanced the cache while the
// build ran — the builder saw the old watermark, so its plan must not
// serve later epochs. A plan that alone exceeds the budget is served
// uncached rather than wiping the whole tier for one query.
func (pc *PlanCache) put(key string, p *Plan, buildEpoch uint64) {
	cost := p.Cost()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if cost > pc.maxTuples {
		return
	}
	// The plan is not yet visible to any other caller, so arming its
	// memo here needs no synchronization with readers.
	p.memo = &planMemo{entries: make(map[string]any), stats: &pc.memo}
	hi := uint64(0)
	if buildEpoch < pc.epoch {
		hi = buildEpoch
	}
	entry := &planEntry{key: key, plan: p, lo: buildEpoch, hi: hi}
	for _, el := range pc.versions[key] {
		e := el.Value.(*planEntry)
		if e.lo == buildEpoch && e.hi == hi {
			// A concurrent fetch of the same version raced us here;
			// replace its plan in place.
			pc.tuples -= e.plan.Cost()
			e.plan = p
			pc.ll.MoveToFront(el)
			pc.tuples += cost
			pc.evictLocked()
			return
		}
	}
	pc.versions[key] = append(pc.versions[key], pc.ll.PushFront(entry))
	pc.tuples += cost
	pc.evictLocked()
}

// evictLocked drops least-recently-used versions until the tuple budget
// holds. Callers hold mu.
func (pc *PlanCache) evictLocked() {
	for pc.tuples > pc.maxTuples {
		oldest := pc.ll.Back()
		if oldest == nil {
			break
		}
		pc.removeLocked(oldest)
		pc.evictions++
	}
}

// removeLocked unlinks one version from the LRU list and its key's
// version chain. Callers hold mu.
func (pc *PlanCache) removeLocked(el *list.Element) {
	e := el.Value.(*planEntry)
	pc.ll.Remove(el)
	pc.tuples -= e.plan.Cost()
	chain := pc.versions[e.key]
	for i, cand := range chain {
		if cand == el {
			chain = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	if len(chain) == 0 {
		delete(pc.versions, e.key)
	} else {
		pc.versions[e.key] = chain
	}
}

// Advance moves the cache to newEpoch after an append whose batch
// touched the given sorted item IDs. Exactly the live entries whose
// resolved item set intersects the batch are sealed at newEpoch-1 (they
// keep serving epoch-pinned reads for their range); every other live
// entry stays live — its item set is disjoint from the batch, so the
// plan is byte-identical at the new epoch. The Invalidated/Surviving
// counters record the split.
func (pc *PlanCache) Advance(newEpoch uint64, itemIDs []int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if newEpoch <= pc.epoch {
		return
	}
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		if e.hi != 0 || e.lo >= newEpoch {
			continue
		}
		if intersectsSorted(e.plan.ItemIDs, itemIDs) {
			e.hi = newEpoch - 1
			pc.invalidated++
		} else {
			pc.surviving++
		}
	}
	pc.epoch = newEpoch
}

// intersectsSorted reports whether two ascending ID slices share an
// element.
func intersectsSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Len returns the number of cached plan versions.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.ll.Len()
}

// Stats returns a snapshot of the tier's counters and current usage.
// Bytes is recomputed from the live entries rather than carried from
// insert time: a cached plan's cube grows lazily built structures after
// caching (the solver's coverage bitsets, the sibling table), and the
// snapshot should account for them.
func (pc *PlanCache) Stats() PlanStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var bytes int64
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		bytes += el.Value.(*planEntry).plan.SizeBytes()
	}
	return PlanStats{
		Hits:        pc.hits,
		Misses:      pc.misses,
		Shared:      pc.shared,
		Builds:      pc.builds,
		Evictions:   pc.evictions,
		Invalidated: pc.invalidated,
		Surviving:   pc.surviving,
		Entries:     pc.ll.Len(),
		Tuples:      pc.tuples,
		MaxTuples:   pc.maxTuples,
		Bytes:       bytes,
		MemoHits:    pc.memo.hits.Load(),
		MemoMisses:  pc.memo.misses.Load(),
	}
}

// Reset clears the cache and its counters; the epoch clock is preserved
// so versioning stays aligned with the store.
func (pc *PlanCache) Reset() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.ll.Init()
	pc.versions = make(map[string][]*list.Element)
	pc.tuples = 0
	pc.hits, pc.misses, pc.shared, pc.builds, pc.evictions = 0, 0, 0, 0, 0
	pc.invalidated, pc.surviving = 0, 0
	pc.memo.hits.Store(0)
	pc.memo.misses.Store(0)
}
