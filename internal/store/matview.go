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
// built coverage bitsets, which populate once under sync.Once on first use
// and are immutable afterwards, and the plan's result memo (Memo, SetMemo).
type Plan struct {
	ItemIDs []int
	Tuples  []cube.Tuple
	Cube    *cube.Cube
	Overall cube.Agg

	// memo holds results mined from this plan; nil unless a PlanCache
	// holds the plan (see PlanCache.put).
	memo *planMemo
}

// PlanMemoCap bounds the results one plan's memo holds. A plan serves
// one query, and a session clicks, refines and drills a handful of its
// groups, so the cap is rarely reached; once it is, further results are
// computed but not stored.
const PlanMemoCap = 32

// planMemo is a cached plan's result memo. A cached plan is immutable
// for as long as the tier holds it, so its memo never needs
// invalidating: it goes with the plan when an append supersedes the
// plan or the LRU evicts it.
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
// denominated in. The budget bounds how many gathered tuples the tier
// holds, and with them the cube's member lists, which are proportional
// to the tuples. It does not bound the rest of a plan's memory: the
// cube's groups, the coverage bitsets the solver builds lazily after
// caching, and the result memo are not charged (SizeBytes counts them).
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
	Builds uint64 `json:"builds"`
	// Extended counts the builds handed a seed, what a superseded plan
	// of the same key left (see Seed); a subset of Builds.
	Extended  uint64 `json:"extended"`
	Evictions uint64 `json:"evictions"`
	// Invalidated counts plans an append superseded because its batch
	// intersected their resolved item set; Surviving counts plans an
	// append left warm. Together they prove invalidation is surgical:
	// Surviving grows while untouched plans keep taking hits.
	Invalidated uint64 `json:"invalidated"`
	Surviving   uint64 `json:"surviving"`
	// Entries counts the plans held and Seeds the seeds superseded plans
	// left for their successors.
	Entries int `json:"entries"`
	Seeds   int `json:"seeds"`
	// Tuples is the current budget usage against MaxTuples, seeds
	// included.
	Tuples    int   `json:"tuples"`
	MaxTuples int   `json:"max_tuples"`
	Bytes     int64 `json:"bytes"`
	// MemoHits and MemoMisses count lookups in the result memos of held
	// plans (Plan.Memo): the hit ratio of the group, refine and drill
	// results memoized per cached plan.
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
// Under live ingestion the tier holds at most one entry per key: a plan,
// valid from the epoch it was built at through the current epoch, or
// the seed a superseded plan left. An append supersedes exactly the
// plans whose resolved item set intersects the batch, each becoming a
// seed its key's next latest-epoch build starts from; plans the batch
// did not touch stay warm across the epoch bump. Reads pinned to an
// epoch no plan covers build their plan and leave the tier as it was.
// The cache key stays epoch-free.
type PlanCache struct {
	mu        sync.Mutex
	maxTuples int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	tuples    int
	epoch     uint64 // current store epoch; only builds at it are cached

	hits, misses, shared, builds, extended, evictions, invalidated, surviving uint64

	// flight collapses concurrent builds of the same (key, epoch): a
	// burst of interactions on one query resolves and builds its cube
	// once.
	flight Flight

	// memo counts lookups in the memos of the plans this cache holds.
	memo memoStats
}

// Seed is what a plan an append superseded leaves for its key's next
// build: its tuples' scores and timestamps, and its cube's groups and
// config, as of the plan's build epoch. The successor build takes the
// tuples below that epoch's watermark from the seed
// (Store.SuccessorTuplesAt) and patches the seed's groups with the
// newer tuples (cube.Extend). A seed is never served, and it is
// immutable: the superseded plan may still be serving reads that began
// before the append.
type Seed struct {
	Epoch uint64
	// Score and Unix are the plan's tuples' scores and timestamps, in
	// order. A tuple's attribute values are its reviewer's, which the
	// store's item runs name, so the seed keeps 9 of a tuple's 24 bytes
	// and a successor gather still reads no superseded rating from the
	// log.
	Score []int8
	Unix  []int64
	// Cube is the plan cube's groups and config in compact form; nil
	// for a plan without a cube.
	Cube *cube.Seed
}

// newSeed is the seed a plan built at epoch leaves. It copies what it
// keeps, so none of the plan's memory outlives the plan.
func newSeed(epoch uint64, p *Plan) *Seed {
	sd := &Seed{Epoch: epoch, Score: make([]int8, len(p.Tuples)), Unix: make([]int64, len(p.Tuples))}
	for i := range p.Tuples {
		sd.Score[i], sd.Unix[i] = p.Tuples[i].Score, p.Tuples[i].Unix
	}
	if p.Cube != nil {
		sd.Cube = p.Cube.Seed()
	}
	return sd
}

// sizeBytes approximates the seed's resident memory.
func (sd *Seed) sizeBytes() int64 {
	b := int64(len(sd.Unix)) * 9
	if sd.Cube != nil {
		b += sd.Cube.SizeBytes()
	}
	return b
}

// planEntry is one key's entry: a cached plan, valid from its build
// epoch lo through the current epoch, or, once an append has superseded
// that plan, the seed it left (plan nil). cost is the tuple count
// charged against the budget, the same for a plan and the seed it
// leaves: the budget counts tuples, and a seed holds each tuple's score
// and timestamp and its cube's member lists.
type planEntry struct {
	key  string
	plan *Plan
	seed *Seed
	lo   uint64
	cost int
}

// NewPlanCache builds a cache bounded to maxTuples total tuples across
// cached plans and seeds (maxTuples must be positive).
func NewPlanCache(maxTuples int) *PlanCache {
	if maxTuples <= 0 {
		maxTuples = 1
	}
	return &PlanCache{
		maxTuples: maxTuples,
		ll:        list.New(),
		entries:   make(map[string]*list.Element),
		epoch:     1,
	}
}

// GetOrBuildAt returns the materialized plan for key as of epoch,
// building it with build on a miss. The key's plan serves the fetch
// when it was built at or before the epoch — in particular a plan built
// before an append that did not touch it, which is exactly the
// "untouched plan stays warm" case. A build at the current epoch is
// handed the key's seed, if a superseded plan left one; every other
// build gets nil. Concurrent callers with the same key and epoch share
// a single build through the singleflight layer. Build errors are
// returned and never cached.
func (pc *PlanCache) GetOrBuildAt(ctx context.Context, key string, epoch uint64, build func(seed *Seed) (*Plan, error)) (*Plan, error) {
	// Each logical fetch counts exactly once: as a hit when served from
	// the cache, a leader's re-check, or another caller's in-flight build
	// (the latter also counted in Shared), and as a miss only when this
	// caller's own build ran (or failed).
	if p, ok := pc.lookupAt(key, epoch); ok {
		return p, nil
	}
	flightKey := key + "@" + strconv.FormatUint(epoch, 10)
	v, sharedFlight, err := pc.flight.Do(ctx, flightKey, func() (any, error) {
		// Re-check under flight leadership: a previous leader may have
		// finished between this caller's lookup and its leadership.
		if p, ok := pc.lookupAt(key, epoch); ok {
			return p, nil
		}
		seed := pc.seedAt(key, epoch)
		p, err := build(seed)
		pc.mu.Lock()
		pc.misses++
		if err == nil {
			pc.builds++
			if seed != nil {
				pc.extended++
			}
		}
		pc.mu.Unlock()
		if err != nil {
			return nil, err
		}
		pc.put(key, p, epoch)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	if sharedFlight {
		pc.mu.Lock()
		pc.shared++
		pc.hits++
		pc.mu.Unlock()
	}
	return v.(*Plan), nil
}

// entryAtLocked returns the key's plan entry when it is valid at epoch,
// marking it most recently used. A seed is valid at no epoch. Callers
// hold mu.
func (pc *PlanCache) entryAtLocked(key string, epoch uint64) (*planEntry, bool) {
	el, ok := pc.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.plan == nil || e.lo > epoch {
		return nil, false
	}
	pc.ll.MoveToFront(el)
	return e, true
}

// lookupAt returns the cached plan valid at epoch, counting a hit.
// Misses are not counted here — GetOrBuildAt charges them to the caller
// whose build actually ran.
func (pc *PlanCache) lookupAt(key string, epoch uint64) (*Plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entryAtLocked(key, epoch)
	if !ok {
		return nil, false
	}
	pc.hits++
	return e.plan, true
}

// seedAt returns the key's seed for a build at epoch, or nil: only a
// build at the current epoch, the one build put may cache, starts from
// a seed. The seed stays in the tier until the build's successor
// replaces it, so a build that an append overtakes (served, but not
// cached) leaves it for the next read.
func (pc *PlanCache) seedAt(key string, epoch uint64) *Seed {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok || epoch != pc.epoch {
		return nil
	}
	return el.Value.(*planEntry).seed
}

// VersionAt returns the build epoch lo of the key's plan when it is
// valid at epoch, marking it most recently used; ok is false when no
// plan covers the epoch, and always for a seed. A plan is identical at
// every epoch from lo through the current one, so lo names the plan
// that any read in that range sees — the engine keys mined results by
// it. VersionAt never builds and counts neither a hit nor a miss: the
// counters keep meaning plan fetches.
func (pc *PlanCache) VersionAt(key string, epoch uint64) (lo uint64, ok bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entryAtLocked(key, epoch)
	if !ok {
		return 0, false
	}
	return e.lo, true
}

// put caches a plan built as of buildEpoch, replacing the seed its key
// may hold and evicting least-recently-used entries until the tuple
// budget holds. Only a build at the current epoch is cached: a build an
// append overtook saw the old watermark, and a read pinned to a
// superseded epoch built an old view, so neither may serve later epochs
// and both are served uncached, leaving the key's seed in place. So is
// a plan that alone exceeds the budget, rather than wiping the whole
// tier for one query. A build at the current epoch finds no plan for
// its key: its flight's re-check would have served a plan built at or
// before the epoch, and one built later would mean the epoch had moved
// on.
func (pc *PlanCache) put(key string, p *Plan, buildEpoch uint64) {
	cost := p.Cost()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if cost > pc.maxTuples || buildEpoch != pc.epoch {
		return
	}
	if el, ok := pc.entries[key]; ok {
		pc.removeLocked(el)
	}
	// The plan is not yet visible to any other caller, so arming its
	// memo here needs no synchronization with readers.
	p.memo = &planMemo{entries: make(map[string]any), stats: &pc.memo}
	pc.entries[key] = pc.ll.PushFront(&planEntry{key: key, plan: p, lo: buildEpoch, cost: cost})
	pc.tuples += cost
	for pc.tuples > pc.maxTuples {
		pc.removeLocked(pc.ll.Back())
		pc.evictions++
	}
}

// removeLocked unlinks one entry from the LRU list and the key index.
// Callers hold mu.
func (pc *PlanCache) removeLocked(el *list.Element) {
	e := pc.ll.Remove(el).(*planEntry)
	pc.tuples -= e.cost
	delete(pc.entries, e.key)
}

// Advance moves the cache to newEpoch after an append whose batch
// touched the given sorted item IDs. Exactly the plans whose resolved
// item set intersects the batch are superseded: each one's entry keeps
// only the plan's seed, in its place in the LRU order and at the same
// cost, and the plan itself, memo and coverage bitsets included, goes.
// Every other plan stays: its item set is
// disjoint from the batch, so the plan is byte-identical at the new
// epoch. Seeds stay as they are; a seed names its own epoch, so it is
// as good a start for a later build as it was for the next. The
// Invalidated/Surviving counters record the split.
func (pc *PlanCache) Advance(newEpoch uint64, itemIDs []int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if newEpoch <= pc.epoch {
		return
	}
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*planEntry)
		switch {
		case e.plan == nil:
		case intersectsSorted(e.plan.ItemIDs, itemIDs):
			e.seed = newSeed(e.lo, e.plan)
			e.plan = nil
			pc.invalidated++
		default:
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

// Stats returns a snapshot of the tier's counters and current usage.
// Bytes is recomputed from the live entries rather than carried from
// insert time: a cached plan's cube grows the solver's coverage bitsets
// after caching, and the snapshot should account for them.
func (pc *PlanCache) Stats() PlanStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var bytes int64
	seeds := 0
	for el := pc.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*planEntry); e.plan != nil {
			bytes += e.plan.SizeBytes()
		} else {
			bytes += e.seed.sizeBytes()
			seeds++
		}
	}
	return PlanStats{
		Hits:        pc.hits,
		Misses:      pc.misses,
		Shared:      pc.shared,
		Builds:      pc.builds,
		Extended:    pc.extended,
		Evictions:   pc.evictions,
		Invalidated: pc.invalidated,
		Surviving:   pc.surviving,
		Entries:     pc.ll.Len() - seeds,
		Seeds:       seeds,
		Tuples:      pc.tuples,
		MaxTuples:   pc.maxTuples,
		Bytes:       bytes,
		MemoHits:    pc.memo.hits.Load(),
		MemoMisses:  pc.memo.misses.Load(),
	}
}
