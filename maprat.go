// Package maprat is a reproduction of MapRat (Thirumuruganathan et al.,
// PVLDB 5(12), 2012): meaningful explanation, interactive exploration and
// geo-visualization of collaborative ratings.
//
// Given one or more items selected by a query over item attributes, the
// engine mines the associated ratings for two kinds of meaningful
// interpretations — Similarity Mining (groups of reviewers that agree) and
// Diversity Mining (groups that consistently disagree) — using the
// Randomized Hill Exploration algorithm over data-cube reviewer groups,
// and renders each interpretation as a choropleth map anchored on the
// groups' state geo-conditions.
//
// Typical use:
//
//	ds, _ := dataset.Generate(dataset.DefaultGenConfig())
//	eng, _ := maprat.Open(ds, nil)
//	q, _ := eng.ParseQuery(`movie:"Toy Story"`)
//	ex, _ := eng.ExplainContext(ctx, maprat.ExplainRequest{Query: q})
//	fmt.Println(maprat.RenderExploration(ex).ASCII(false))
package maprat

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/dataset"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/viz"
)

// Re-exported substrate types, so engine users need only this package.
type (
	// Dataset is the collaborative rating site ⟨I, U, R⟩.
	Dataset = model.Dataset
	// GenConfig parameterizes the synthetic MovieLens-1M-shaped generator.
	GenConfig = dataset.GenConfig
	// Query is a parsed item query.
	Query = query.Query
	// TimeWindow restricts ratings to an interval (zero = all time).
	TimeWindow = store.TimeWindow
	// Key is a canonical group descriptor over reviewer attributes.
	Key = cube.Key
	// Agg is a group rating aggregate (count / mean / stddev).
	Agg = cube.Agg
	// Settings are the mining knobs (K, coverage α, RHE parameters).
	Settings = core.Settings
	// Task selects a mining sub-problem.
	Task = core.Task
	// GroupStats is the Figure-3 exploration payload.
	GroupStats = explore.GroupStats
)

// The two mining sub-problems.
const (
	SimilarityMining = core.SimilarityMining
	DiversityMining  = core.DiversityMining
)

// Generate builds a synthetic dataset (see internal/dataset for the
// planted structure that substitutes for the real MovieLens+IMDB data).
func Generate(cfg GenConfig) (*Dataset, error) { return dataset.Generate(cfg) }

// DefaultGenConfig is the full MovieLens 1M scale (~1M ratings).
func DefaultGenConfig() GenConfig { return dataset.DefaultGenConfig() }

// SmallGenConfig is a 1/12-scale configuration for tests and examples.
func SmallGenConfig() GenConfig { return dataset.SmallGenConfig() }

// LoadDir loads a MovieLens-1M-format directory (users.dat, movies.dat,
// ratings.dat, optional cast.dat).
func LoadDir(dir string) (*Dataset, error) { return dataset.LoadDir(dir) }

// WriteDir writes a dataset in MovieLens 1M format.
func WriteDir(dir string, ds *Dataset) error { return dataset.WriteDir(dir, ds) }

// DirProvenance hashes the source files of a MovieLens-format directory,
// for stamping into a snapshot packed from it.
func DirProvenance(dir string) (uint64, error) { return dataset.DirProvenance(dir) }

// DefaultSettings mirrors the demo defaults (3 groups, 20% coverage).
func DefaultSettings() Settings { return core.DefaultSettings() }

// Options configures Open.
type Options struct {
	// Store controls indexing, precomputation and the result cache.
	Store store.Options
	// Cube is the candidate-group construction config used per query.
	Cube cube.Config
}

// DefaultOptions enables precomputation, caching and geo-anchored groups.
func DefaultOptions() Options {
	return Options{Store: store.DefaultOptions(), Cube: cube.DefaultConfig()}
}

// Engine is an opened MapRat instance over one dataset. It caches at two
// levels: explanations in the store's result LRU behind a singleflight,
// and group, refine and drill results in the memo of the plan version
// they were computed from (both on exactly when Options.Store.CacheSize
// is positive). An Engine is safe for concurrent use: the store is
// read-only after Open, the result cache, the singleflight layer and
// each plan's memo are internally synchronized, and each mining request
// solves on its own problem instance. Cubes shared through the plan tier
// populate their derived caches (coverage bitsets, sibling table) lazily
// under sync.Once, so concurrent first use is safe and every later solve
// or exploration on the same plan gets them for free.
type Engine struct {
	st      *store.Store
	cubeCfg cube.Config

	// flight deduplicates concurrent identical Explain calls in front of
	// the LRU: a burst of the same query mines once.
	flight store.Flight
	// mines counts full mining-pipeline executions (cache misses that also
	// lost the singleflight race are not counted — they never mined).
	mines atomic.Uint64

	fpOnce sync.Once
	fp     uint64

	// ingest is the live-append state (WAL, writer admission, counters);
	// nil until EnableIngest arms the write path.
	ingest *ingestState

	// closer releases the open path's resources — the snapshot mapping
	// for a snapshot-opened engine, nil otherwise.
	closer interface{ Close() error }
}

// Open indexes a dataset and returns the engine. A nil opts uses
// DefaultOptions.
func Open(ds *Dataset, opts *Options) (*Engine, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	st, err := store.Open(ds, o.Store)
	if err != nil {
		return nil, err
	}
	return &Engine{st: st, cubeCfg: o.Cube}, nil
}

// SnapshotMeta is the builder identity stamped into a snapshot header
// (source label, provenance hash).
type SnapshotMeta = snapshot.Meta

// WriteSnapshot writes ds as a .msnap columnar snapshot — the versioned
// binary format OpenSnapshot memory-maps for near-instant start.
func WriteSnapshot(path string, ds *Dataset, meta SnapshotMeta) error {
	return snapshot.WriteFile(path, ds, meta)
}

// OpenSnapshot opens an engine over a .msnap snapshot. The file is
// memory-mapped where the platform allows it and the pre-joined rating
// tuple log is served straight from the mapped pages, so opening skips
// both text parsing and the store's join. The snapshot's stored
// fingerprint seeds Engine.Fingerprint, making ETags from a
// snapshot-opened server byte-identical to a text-opened one over the
// same data. Call Close on the returned engine to release the mapping.
func OpenSnapshot(path string, opts *Options) (*Engine, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	snap, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	lo, hi := snap.TimeRange()
	st, err := store.OpenPrejoined(snap.Dataset(), o.Store, store.Prejoined{
		Tuples:     snap.Tuples(),
		ItemTuples: snap.ItemTuples(),
		MinUnix:    lo,
		MaxUnix:    hi,
	})
	if err != nil {
		_ = snap.Close()
		return nil, err
	}
	e := &Engine{st: st, cubeCfg: o.Cube, closer: snap}
	// The header's fingerprint is the value model.Fingerprint would
	// recompute over the reconstructed data; trusting it saves the
	// strided scan and keeps the identity authoritative in one place.
	e.fpOnce.Do(func() { e.fp = snap.Fingerprint() })
	return e, nil
}

// Close releases resources held by the engine's open path — the mapped
// snapshot file for a snapshot-opened engine and the ingest WAL when the
// write path was enabled. The engine (including any slices handed out by
// its store) must not be used afterwards. Engines opened over in-memory
// datasets close to a no-op. Close is idempotent.
func (e *Engine) Close() error {
	var err error
	if ig := e.ingest; ig != nil {
		e.ingest = nil
		err = ig.wal.Close()
	}
	c := e.closer
	e.closer = nil
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Store exposes the underlying store for advanced callers (benchmarks,
// the web front-end's browse endpoints).
func (e *Engine) Store() *store.Store { return e.st }

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *Dataset { return e.st.Dataset() }

// TimeRange returns the dataset's [min, max] rating timestamps.
func (e *Engine) TimeRange() (int64, int64) { return e.st.TimeRange() }

// ParseQuery parses the Figure-1 query syntax, e.g.
// `actor:"Tom Hanks" AND genre:Thriller`.
func (e *Engine) ParseQuery(s string) (Query, error) { return query.Parse(s) }

// ExplainRequest selects what to mine.
type ExplainRequest struct {
	Query Query
	// Settings defaults to DefaultSettings when zero-valued (detected via
	// K == 0).
	Settings Settings
	// Tasks defaults to both sub-problems.
	Tasks []Task
	// CubeConfig overrides the engine's candidate-group construction for
	// this request. The demo default anchors every group on a state; the
	// intro's Twilight analysis (male-under-18 vs female-under-18) is the
	// un-anchored framework mode — pass a config with RequireState=false
	// to reproduce it.
	CubeConfig *cube.Config
	// DisableCache bypasses the store's result cache AND the plan
	// materialization tier: the full resolve → gather → cube → mine
	// pipeline runs from scratch, paying the packed cube build and a
	// fresh coverage-bitset build (BenchmarkColdExplain measures this
	// path).
	DisableCache bool
	// DisableRelax fails immediately on an unsatisfiable coverage
	// constraint instead of relaxing α stepwise (the web demo relaxes so
	// every query renders something).
	DisableRelax bool
}

// GroupResult is one explanation group.
type GroupResult struct {
	Key    Key
	Phrase string // "female under-18 K-12 student reviewers from New York"
	Icons  string // "♀ · under 18 · K-12 student"
	State  string // two-letter geo-condition ("" if none)
	Agg    Agg
	// Share is the fraction of the query's ratings this group covers.
	Share float64
}

// TaskResult is the outcome of one mining sub-problem.
type TaskResult struct {
	Task      Task
	Groups    []GroupResult
	Objective float64
	Coverage  float64
	Feasible  bool
	Evals     int
	// RelaxedCoverage is the α actually used after automatic relaxation
	// (equal to the requested α when no relaxation was needed).
	RelaxedCoverage float64
}

// clone returns a deep copy: the copy's Groups slice is freshly
// allocated.
func (tr *TaskResult) clone() *TaskResult {
	out := *tr
	out.Groups = slices.Clone(tr.Groups)
	return &out
}

func (tr *TaskResult) sizeBytes() int64 {
	return int64(unsafe.Sizeof(*tr)) + groupResultsBytes(tr.Groups)
}

// Explanation is the full result of ExplainContext: everything Figure 2
// renders.
type Explanation struct {
	Query      Query
	ItemIDs    []int
	NumRatings int
	Overall    Agg // the single aggregate the paper argues is insufficient
	Results    []TaskResult
	FromCache  bool
	Elapsed    time.Duration
}

// Result returns the TaskResult for a task, or nil.
func (ex *Explanation) Result(t Task) *TaskResult {
	for i := range ex.Results {
		if ex.Results[i].Task == t {
			return &ex.Results[i]
		}
	}
	return nil
}

// Clone returns a deep copy: the copy's ItemIDs, Results and per-task
// Groups slices are freshly allocated, so mutating them never touches the
// original. Every cache hit and singleflight share hands out a clone —
// a shallow copy would alias the cached slices and let one caller poison
// the cache for everyone.
func (ex *Explanation) Clone() *Explanation {
	out := *ex
	out.Query.Preds = append([]query.Pred(nil), ex.Query.Preds...)
	out.ItemIDs = append([]int(nil), ex.ItemIDs...)
	out.Results = make([]TaskResult, len(ex.Results))
	for i := range ex.Results {
		out.Results[i] = *ex.Results[i].clone()
	}
	return &out
}

// Errors reported by the mining pipelines. All three mark requests that
// asked for something that does not exist — the HTTP layer maps them to
// 404, unlike internal mining failures.
var (
	ErrNoItems   = errors.New("maprat: query matched no items")
	ErrNoRatings = errors.New("maprat: query matched items but no ratings in the window")
	// ErrNoGroup reports a group key that does not materialize in the
	// query's candidate cube (a stale or mistyped key).
	ErrNoGroup = errors.New("maprat: group not present for query")
)

func groupNotFound(key Key, q Query) error {
	return fmt.Errorf("%w: %v (query %s)", ErrNoGroup, key, q)
}

// ExplainContext runs the full §2.3 pipeline: resolve the query to items,
// gather R_I, construct the candidate groups, and solve each requested
// mining sub-problem with RHE. Mining stops between hill-climb iterations
// once ctx is done (returning ctx.Err()), and concurrent callers with the
// same request share one mining run through the singleflight layer in
// front of the result cache.
func (e *Engine) ExplainContext(ctx context.Context, req ExplainRequest) (*Explanation, error) {
	start := time.Now()
	if req.Settings.K == 0 {
		req.Settings = DefaultSettings()
	}
	if len(req.Tasks) == 0 {
		req.Tasks = []Task{SimilarityMining, DiversityMining}
	}
	// The resolved epoch is an internal coordinate — cache keys, plan
	// versions and tuple gathers all use it — but the returned
	// Explanation echoes the epoch the caller asked for (0 for an
	// unpinned read), so its Query round-trips to the request as written.
	reqEpoch := req.Query.Epoch
	q, err := e.pinQuery(req.Query)
	if err != nil {
		return nil, err
	}
	req.Query = q

	base := e.baseCubeConfig(req.CubeConfig)
	planKey := PlanKey(req.Query, base)
	if req.DisableCache || e.st.Cache() == nil {
		ex, err := e.explainUncached(ctx, req, base, planKey, start)
		if err != nil {
			return nil, err
		}
		ex.Query.Epoch = reqEpoch
		return ex, nil
	}

	cacheKey := e.cacheKey(req, planKey)
	if v, ok := e.st.Cache().Get(cacheKey); ok {
		hit := v.(*Explanation).Clone()
		hit.FromCache = true
		hit.Elapsed = time.Since(start)
		hit.Query.Epoch = reqEpoch
		return hit, nil
	}
	recheckHit := false
	v, shared, err := e.flight.Do(ctx, cacheKey, func() (any, error) {
		// Re-check under flight leadership: a previous leader may have
		// stored its result and left the flight between this caller's
		// cache miss and its leadership. The key is re-derived because
		// that leader's mining may have cached the plan it is keyed by.
		if v, ok := e.st.Cache().Get(e.cacheKey(req, planKey)); ok {
			recheckHit = true
			return v, nil
		}
		ex, err := e.explainUncached(ctx, req, base, planKey, start)
		if err != nil {
			return nil, err
		}
		// Re-key after mining: the plan is cached now, so the result
		// lands under its version and survives disjoint appends.
		e.st.Cache().Put(e.cacheKey(req, planKey), ex)
		return ex, nil
	})
	if err != nil {
		return nil, err
	}
	// The leader's value is the cached Explanation itself and a follower's
	// aliases it; clone either way so no caller can mutate the cache.
	ex := v.(*Explanation).Clone()
	// A follower's result came from another request's mining run, and a
	// re-check hit from the cache — from the caller's perspective both
	// are cache hits.
	ex.FromCache = shared || recheckHit
	ex.Elapsed = time.Since(start)
	ex.Query.Epoch = reqEpoch
	return ex, nil
}

// explainUncached executes the mining pipeline, bypassing the result
// cache and its singleflight. The pre-mining stages still come from the
// plan materialization tier, fetched under planKey, unless the request
// disables caching.
func (e *Engine) explainUncached(ctx context.Context, req ExplainRequest, base cube.Config, planKey string, start time.Time) (*Explanation, error) {
	var p *store.Plan
	var err error
	if req.DisableCache {
		p, err = e.buildPlan(req.Query, base)
	} else {
		p, err = e.planForKey(ctx, req.Query, base, planKey)
	}
	if err != nil {
		return nil, err
	}
	ex, err := MinePlan(ctx, p, req)
	if err != nil {
		return nil, err
	}
	ex.Elapsed = time.Since(start)
	e.mines.Add(1)
	return ex, nil
}

// MinePlan runs the mining stage of Explain over an already-materialized
// plan: one RHE solve per requested sub-problem, with the same defaults
// and coverage relaxation Explain applies. Exported so a caller that
// materializes a plan itself (the perfbench traced replay times resolve,
// gather and cube build separately) mines through the same function as
// the engine and gets byte-identical results. The returned
// Explanation's Elapsed is zero; the caller stamps it.
func MinePlan(ctx context.Context, p *store.Plan, req ExplainRequest) (*Explanation, error) {
	if req.Settings.K == 0 {
		req.Settings = DefaultSettings()
	}
	if len(req.Tasks) == 0 {
		req.Tasks = []Task{SimilarityMining, DiversityMining}
	}
	ex := &Explanation{
		Query: req.Query,
		// Copy out of the shared plan; ex may be cached and cloned on the
		// way out, but the construction-time copy keeps the uncached path
		// safe to mutate too.
		ItemIDs:    append([]int(nil), p.ItemIDs...),
		NumRatings: len(p.Tuples),
		Overall:    p.Overall,
	}
	for _, task := range req.Tasks {
		tr, err := solveTask(ctx, task, p.Cube, req)
		if err != nil {
			if errors.Is(err, ctx.Err()) {
				return nil, err
			}
			return nil, fmt.Errorf("%v: %w", task, err)
		}
		ex.Results = append(ex.Results, tr)
	}
	return ex, nil
}

// baseCubeConfig resolves the pre-adaptation cube config for a request:
// the per-request override when present, the engine default otherwise.
func (e *Engine) baseCubeConfig(override *cube.Config) cube.Config {
	if override != nil {
		return *override
	}
	return e.cubeCfg
}

// GroupCubeConfig picks the base cube config a group key needs: a key
// without a state condition came from a framework-mode (un-anchored)
// mining run, so the cube must be rebuilt accordingly or the key cannot
// materialize. Exported so callers that build plans themselves derive
// exactly the config the engine would for the same key.
func GroupCubeConfig(base cube.Config, key Key) cube.Config {
	if !key.Has(cube.State) {
		base.RequireState = false
	}
	return base
}

func (e *Engine) groupCubeConfig(key Key) cube.Config {
	return GroupCubeConfig(e.cubeCfg, key)
}

// PlanKey canonicalizes the (query, window, cube config) triple the
// materialization tier is keyed by; the window rides inside
// Query.String(). The config is the pre-adaptation base: MinSupport
// adaptation is a pure function of the gathered tuple count, which is
// itself determined by the key, so keying on the base config is sound.
// Exported so external plan caches key identically to the engine's.
func PlanKey(q Query, cfg cube.Config) string {
	return fmt.Sprintf("plan|%s|cube=%+v", q.String(), cfg)
}

// buildPlan runs the §2.3 pre-mining pipeline from scratch: resolve the
// query to items, gather R_I as of the query's (resolved) epoch, build
// the candidate cube over it. Item resolution is epoch-independent — the
// catalog is immutable under append; only the rating gather is pinned.
func (e *Engine) buildPlan(q Query, base cube.Config) (*store.Plan, error) {
	ids, err := query.Resolve(e.st, q)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, ErrNoItems
	}
	tuples := e.st.TuplesForItemsAt(ids, q.Window, q.Epoch)
	if len(tuples) == 0 {
		return nil, ErrNoRatings
	}
	p := &store.Plan{
		ItemIDs: ids,
		Tuples:  tuples,
		Cube:    cube.Build(tuples, AdaptCubeConfig(base, len(tuples))),
	}
	for i := range tuples {
		p.Overall.Add(tuples[i].Score)
	}
	return p, nil
}

// planFor fetches the materialized plan for (q, base) from the store's
// materialization tier, building and caching it on first use. All five
// pipelines — ExplainContext, ExploreFullContext, RefineGroupContext,
// DrillMineContext and each EvolutionContext window — fetch through
// here, so a group click after an Explain performs zero query resolution
// and zero cube builds. With the tier disabled the plan is built fresh.
func (e *Engine) planFor(ctx context.Context, q Query, base cube.Config) (*store.Plan, error) {
	return e.planForKey(ctx, q, base, PlanKey(q, base))
}

// planForKey is planFor with the plan key already computed.
func (e *Engine) planForKey(ctx context.Context, q Query, base cube.Config, key string) (*store.Plan, error) {
	if q.Epoch == 0 {
		q.Epoch = e.st.CurrentEpoch()
	}
	pc := e.st.Plans()
	if pc == nil {
		return e.buildPlan(q, base)
	}
	// The key is epoch-free (Query.String() excludes Epoch); the tier
	// versions entries by epoch range underneath it, so an append seals
	// only the plans whose item sets the batch touched.
	p, _, err := pc.GetOrBuildAt(ctx, key, q.Epoch, func() (*store.Plan, error) {
		return e.buildPlan(q, base)
	})
	return p, err
}

// PlanStats returns a snapshot of the materialization tier's counters
// (zero-valued when the tier is disabled) — the monitoring hook behind
// the server's /statsz endpoint.
func (e *Engine) PlanStats() store.PlanStats {
	if pc := e.st.Plans(); pc != nil {
		return pc.Stats()
	}
	return store.PlanStats{}
}

// MineCount returns how many full mining-pipeline executions the engine
// has completed (failed resolves and cancelled mines are not counted) — a
// monitoring hook for observing cache and singleflight effectiveness.
func (e *Engine) MineCount() uint64 { return e.mines.Load() }

// Fingerprint returns a stable 64-bit hash identifying the opened
// dataset AT ITS CURRENT EPOCH: the base-log fingerprint (entity counts,
// rating time range, a strided sample of the log) mixed with the current
// epoch when appends have grown the data. Two engines opened over the
// same data agree on it; any edit to the log (new ratings, different
// scores, reordered load) almost surely changes it, and every accepted
// append batch rolls it. Seeded mining is a pure function of (dataset,
// epoch, request), so the HTTP layer folds the fingerprint into its
// ETags: a tag stays valid exactly as long as the data underneath it
// does — an append immediately invalidates previously issued 304s.
func (e *Engine) Fingerprint() uint64 {
	return e.FingerprintAt(e.st.CurrentEpoch())
}

// FingerprintAt is the fingerprint of one epoch's view of the data. The
// base epoch's value is the plain dataset fingerprint — identical
// whether the engine was opened from text or from a snapshot, and
// identical to the value before ingestion existed; later epochs mix the
// epoch in, so every epoch's ETags are distinct and a pinned read's tag
// stays stable across later appends.
func (e *Engine) FingerprintAt(epoch uint64) uint64 {
	e.fpOnce.Do(func() {
		lo, hi := e.st.TimeRange()
		e.fp = model.Fingerprint(e.st.Dataset(), lo, hi)
	})
	if epoch <= 1 {
		return e.fp
	}
	return mixFP(e.fp, epoch)
}

// mixFP folds an epoch into the base fingerprint (a splitmix64-style
// finalizer, so adjacent epochs land far apart).
func mixFP(fp, epoch uint64) uint64 {
	x := fp ^ (epoch * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// AdaptCubeConfig scales a cube config's MinSupport down for small tuple
// sets so sparse queries still produce candidates — the adaptation every
// mining pipeline applies between gathering R_I and building its cube.
// The scaled value is |R_I|/50, floored at 3 or at the caller's own
// MinSupport if that is lower; it never rises. Exported so benchmarks and
// experiments constructing cubes outside Explain build exactly the
// configuration the engine would.
func AdaptCubeConfig(cfg cube.Config, numTuples int) cube.Config {
	if adaptive := numTuples / 50; adaptive < cfg.MinSupport {
		cfg.MinSupport = max(adaptive, min(3, cfg.MinSupport))
	}
	return cfg
}

// solveTask runs one sub-problem, relaxing the coverage constraint
// stepwise when the instance is infeasible (unless disabled).
func solveTask(ctx context.Context, task Task, c *cube.Cube, req ExplainRequest) (TaskResult, error) {
	s := req.Settings
	alphas := []float64{s.Coverage}
	if !req.DisableRelax {
		for a := s.Coverage; a > 0.02; a /= 2 {
			alphas = append(alphas, a/2)
		}
		alphas = append(alphas, 0)
	}
	var lastErr error
	for _, alpha := range alphas {
		s.Coverage = alpha
		p, err := core.NewProblem(task, c, s)
		if err != nil {
			lastErr = err
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			return TaskResult{}, err
		}
		sol, err := p.SolveRHECtx(ctx)
		if err != nil {
			return TaskResult{}, err
		}
		if !sol.Feasible {
			lastErr = core.ErrInfeasible
			continue
		}
		tr := TaskResult{
			Task:            task,
			Objective:       sol.Objective,
			Coverage:        sol.Coverage,
			Feasible:        sol.Feasible,
			Evals:           sol.Evals,
			RelaxedCoverage: alpha,
		}
		for _, gi := range sol.Groups {
			tr.Groups = append(tr.Groups, groupResult(&c.Groups[gi], len(c.Tuples)))
		}
		return tr, nil
	}
	return TaskResult{}, lastErr
}

func groupResult(g *cube.Group, total int) GroupResult {
	state := ""
	if g.Key.Has(cube.State) {
		state = cube.StateCode(g.Key[cube.State])
	}
	share := 0.0
	if total > 0 {
		share = float64(len(g.Members)) / float64(total)
	}
	return GroupResult{
		Key:    g.Key,
		Phrase: g.Key.Phrase(),
		Icons:  viz.Icons(g.Key),
		State:  state,
		Agg:    g.Agg,
		Share:  share,
	}
}

// cacheKey derives the result-cache key of an epoch-resolved request
// from its plan key. Every result-affecting setting participates, floats
// in their shortest exact form (%v), so settings that differ in any digit
// never share an entry; Workers is left out on purpose — it is
// result-neutral by construction.
//
// The epoch enters as v=, the version of the plan the result is mined
// from: the first epoch of the plan tier's version covering the request's
// epoch, or the epoch itself when the tier holds none (disabled, plan
// over budget, evicted). A plan is a pure function of (plan key, epoch),
// and an append seals every plan its batch intersects before publishing
// the new epoch, so every epoch of a version sees the same plan and the
// result mined for v=lo answers all of them. An append therefore
// invalidates a result exactly when it seals the result's plan; keys
// never need invalidating, and entries for old versions stay valid for
// their pinned reads.
func (e *Engine) cacheKey(req ExplainRequest, planKey string) string {
	version := req.Query.Epoch
	if pc := e.st.Plans(); pc != nil {
		if lo, ok := pc.VersionAt(planKey, version); ok {
			version = lo
		}
	}
	return fmt.Sprintf("explain|%s|v=%d|%s|tasks=%v|relax=%v",
		planKey, version, settingsKey(req.Settings), req.Tasks, !req.DisableRelax)
}

// settingsKey formats every result-affecting Settings field for a cache
// or memo key, floats in their shortest exact form (%v) so settings that
// differ in any digit never share an entry. Workers is left out: it
// never changes a result.
func settingsKey(s Settings) string {
	return fmt.Sprintf("k=%d|a=%v|l=%v|sb=%v|p=%v|seed=%d|r=%d|mi=%d|ss=%d",
		s.K, s.Coverage, s.Lambda, s.SiblingBoost, s.Profile, s.Seed,
		s.Restarts, s.MaxIters, s.SampleSize)
}

// memoized serves one result from the memo of the plan it is computed
// from: a hit returns a clone of the stored value; a miss computes the
// result, stores a clone and returns the original. The plan is the
// version the result depends on, so the key carries only the op and its
// arguments, and an append that seals the plan retires its memo with it.
// Memoization is on exactly when the result cache is (CacheSize > 0), and
// only on plans the tier holds (Plan.SetMemo ignores others). Errors are
// never stored. Two concurrent identical misses may both compute; results
// are deterministic, so either stored value is the answer.
func memoized[T any](e *Engine, p *store.Plan, key string, clone func(T) T, size func(T) int64, compute func() (T, error)) (T, error) {
	if e.st.Cache() == nil {
		return compute()
	}
	if v, ok := p.Memo(key); ok {
		return clone(v.(T)), nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	p.SetMemo(key, clone(v), size(v))
	return v, nil
}

// Approximate resident sizes of the memoized result types, for the plan
// tier's byte accounting.
const (
	groupResultBytes = int64(unsafe.Sizeof(GroupResult{}))
	refinementBytes  = int64(unsafe.Sizeof(Refinement{}))
	cityStatBytes    = int64(unsafe.Sizeof(explore.CityStat{}))
	timeBucketBytes  = int64(unsafe.Sizeof(explore.TimeBucket{}))
)

func groupResultsBytes(gs []GroupResult) int64 {
	b := int64(len(gs)) * groupResultBytes
	for i := range gs {
		b += int64(len(gs[i].Phrase) + len(gs[i].Icons) + len(gs[i].State))
	}
	return b
}

func refinementsBytes(rs []Refinement) int64 {
	b := int64(len(rs)) * refinementBytes
	for i := range rs {
		g := &rs[i].Group
		b += int64(len(g.Phrase) + len(g.Icons) + len(g.State) + len(rs[i].Added))
	}
	return b
}

// GroupExploration bundles everything the per-group exploration renders —
// the Figure-3 statistics, the sibling groups to compare against, and the
// most deviant drill-deeper refinements — all computed from the same
// materialized plan, so one group click performs at most one plan fetch.
type GroupExploration struct {
	Stats   GroupStats
	Related []GroupResult
	// Refinements is nil when the exploration was requested without them
	// (refineLimit < 0) or when the group has no drill-deeper children in
	// the cube.
	Refinements []Refinement
}

// clone returns a deep copy: mutating the copy's slices never touches
// the original.
func (ge *GroupExploration) clone() *GroupExploration {
	out := *ge
	out.Stats.Cities = slices.Clone(ge.Stats.Cities)
	out.Stats.Timeline = slices.Clone(ge.Stats.Timeline)
	out.Related = slices.Clone(ge.Related)
	out.Refinements = slices.Clone(ge.Refinements)
	return &out
}

func (ge *GroupExploration) sizeBytes() int64 {
	b := int64(unsafe.Sizeof(*ge)) + int64(len(ge.Stats.Phrase))
	b += int64(len(ge.Stats.Cities)) * cityStatBytes
	for i := range ge.Stats.Cities {
		b += int64(len(ge.Stats.Cities[i].City))
	}
	b += int64(len(ge.Stats.Timeline)) * timeBucketBytes
	return b + groupResultsBytes(ge.Related) + refinementsBytes(ge.Refinements)
}

// ExploreFullContext computes the Figure-3 exploration for one
// explanation group — full statistics (histogram, city drill-down,
// timeline), the sibling groups to compare against, and the drill-deeper
// refinements — from one plan fetch, with cancellation between the
// pipeline's stages. The resolve → gather → cube stages come from the
// materialization tier, so exploring a group right after its
// ExplainContext does no pipeline work at all, and the result is
// memoized on the plan version, so a repeated click is a lookup and a
// clone. refineLimit caps the refinement list (0 = all); a negative
// refineLimit skips the refinement stage entirely. Both the HTML
// front-end and the /api/v1 handlers consume this one call.
func (e *Engine) ExploreFullContext(ctx context.Context, q Query, key Key, buckets, refineLimit int) (*GroupExploration, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := e.pinQuery(q)
	if err != nil {
		return nil, err
	}
	p, err := e.planFor(ctx, q, e.groupCubeConfig(key))
	if err != nil {
		return nil, err
	}
	return memoized(e, p,
		fmt.Sprintf("group|%v|b=%d|l=%d", key, buckets, refineLimit),
		(*GroupExploration).clone, (*GroupExploration).sizeBytes,
		func() (*GroupExploration, error) { return ExplorePlan(ctx, p, q, key, buckets, refineLimit) })
}

// ExplorePlan computes the per-group exploration from an
// already-materialized plan — the plan-parameterized core of
// ExploreFullContext, exported for callers that build plans themselves.
func ExplorePlan(ctx context.Context, p *store.Plan, q Query, key Key, buckets, refineLimit int) (*GroupExploration, error) {
	g, ok := p.Cube.Group(key)
	if !ok {
		return nil, groupNotFound(key, q)
	}
	ge := &GroupExploration{Stats: explore.Stats(p.Tuples, g, buckets)}
	for _, rg := range explore.Related(p.Cube, g) {
		ge.Related = append(ge.Related, groupResult(rg, len(p.Tuples)))
	}
	if refineLimit < 0 {
		return ge, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ge.Refinements = refinementsFor(p, g, refineLimit)
	return ge, nil
}

// refinementsFor converts a group's drill-deeper children into
// Refinement results, capped at limit (0 = all) — the one construction
// both ExploreFullContext and RefineGroupContext serve.
func refinementsFor(p *store.Plan, g *cube.Group, limit int) []Refinement {
	var out []Refinement
	for _, ref := range explore.Refinements(p.Cube, g) {
		out = append(out, Refinement{
			Group: groupResult(ref.Group, len(p.Tuples)),
			Added: ref.Added.String(),
			Delta: ref.Delta,
		})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Refinement pairs a drill-deeper group (the parent's description plus
// one more attribute-value pair) with its behavioural deviation.
type Refinement struct {
	Group GroupResult
	// Added names the attribute the refinement constrains beyond the
	// parent ("gender", "age", "occupation", "state").
	Added string
	// Delta is the refinement's mean minus the parent's mean.
	Delta float64
}

// RefineGroupContext returns the most deviant drill-deeper refinements of
// a group for the query, capped at limit (0 = all) — the paper's "drill
// deeper" exploration beyond city statistics. It is served from the
// materialization tier and memoized on the plan version like
// ExploreFullContext, with cancellation between the pipeline's stages.
func (e *Engine) RefineGroupContext(ctx context.Context, q Query, key Key, limit int) ([]Refinement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := e.pinQuery(q)
	if err != nil {
		return nil, err
	}
	p, err := e.planFor(ctx, q, e.groupCubeConfig(key))
	if err != nil {
		return nil, err
	}
	return memoized(e, p,
		fmt.Sprintf("refine|%v|l=%d", key, limit),
		slices.Clone[[]Refinement], refinementsBytes,
		func() ([]Refinement, error) { return RefinePlan(p, q, key, limit) })
}

// RefinePlan computes a group's drill-deeper refinements from an
// already-materialized plan — the plan-parameterized core of
// RefineGroupContext, exported for callers that build plans themselves.
func RefinePlan(p *store.Plan, q Query, key Key, limit int) ([]Refinement, error) {
	g, ok := p.Cube.Group(key)
	if !ok {
		return nil, groupNotFound(key, q)
	}
	return refinementsFor(p, g, limit), nil
}

// DrillMineContext runs the paper's drill-down one level further than
// statistics: given a geo-anchored explanation group, it mines the best
// city-anchored sub-groups *inside* that group ("if the original geo
// condition was over a state, the drill down provides city level" views).
// The returned TaskResult's groups all carry a city condition.
// Cancellation is threaded through the sub-problem's RHE run. The
// coverage constraint is not relaxed: when no selection meets it, the
// error wraps core.ErrInfeasible, as an unrelaxed explain's does. The
// parent cube comes from the materialization tier. The city-anchored
// sub-cube and its RHE solve run on the first drill of a (parent, task,
// settings) on a plan version; the result is memoized on that version,
// so repeated drills are a lookup and a clone.
func (e *Engine) DrillMineContext(ctx context.Context, q Query, parent Key, task Task, s Settings) (*TaskResult, error) {
	if s.K == 0 {
		s = DefaultSettings()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q, err := e.pinQuery(q)
	if err != nil {
		return nil, err
	}
	p, err := e.planFor(ctx, q, e.groupCubeConfig(parent))
	if err != nil {
		return nil, err
	}
	return memoized(e, p,
		fmt.Sprintf("drill|%v|t=%v|%s", parent, task, settingsKey(s)),
		(*TaskResult).clone, (*TaskResult).sizeBytes,
		func() (*TaskResult, error) { return DrillPlan(ctx, p, q, parent, task, s) })
}

// DrillPlan mines the city-anchored sub-groups inside a parent group from
// an already-materialized plan — the plan-parameterized core of
// DrillMineContext, exported for callers that build plans themselves. Settings
// must already be defaulted (s.K > 0).
func DrillPlan(ctx context.Context, p *store.Plan, q Query, parent Key, task Task, s Settings) (*TaskResult, error) {
	if s.K == 0 {
		s = DefaultSettings()
	}
	pg, ok := p.Cube.Group(parent)
	if !ok {
		return nil, groupNotFound(parent, q)
	}

	// The sub-problem operates on the parent's tuples only; candidates are
	// city-anchored cells of that slice.
	sub := make([]cube.Tuple, 0, len(pg.Members))
	for _, ti := range pg.Members {
		sub = append(sub, p.Tuples[ti])
	}
	cfg := cube.Config{
		RequireCity: true,
		MinSupport:  max(3, len(sub)/50),
		MaxAVPairs:  parent.NumConstrained() + 2,
		SkipApex:    true,
	}
	c := cube.Build(sub, cfg)
	prob, err := core.NewProblem(task, c, s)
	if err != nil {
		return nil, fmt.Errorf("maprat: drill mining: %w", err)
	}
	sol, err := prob.SolveRHECtx(ctx)
	if err != nil {
		return nil, err
	}
	if !sol.Feasible {
		return nil, fmt.Errorf("maprat: drill mining: %w", core.ErrInfeasible)
	}
	tr := &TaskResult{
		Task:            task,
		Objective:       sol.Objective,
		Coverage:        sol.Coverage,
		Feasible:        sol.Feasible,
		Evals:           sol.Evals,
		RelaxedCoverage: s.Coverage,
	}
	for _, gi := range sol.Groups {
		tr.Groups = append(tr.Groups, groupResult(&c.Groups[gi], len(sub)))
	}
	return tr, nil
}

// StateOverview is one row of the browse-mode choropleth: a state's
// overall rating behaviour across the whole log (served from the store's
// per-epoch state aggregates, so it is O(states · epochs) and exact at
// every epoch).
type StateOverview struct {
	State string
	Agg   Agg
}

// BrowseStatesAt returns every state's whole-log aggregate as of an
// epoch (0 = latest), sorted by rating count descending. The rows are
// exactly the state-only groups a whole-log cube would surface at that
// epoch: same aggregates, same minimum-support cut. A future epoch is
// ErrFutureEpoch.
func (e *Engine) BrowseStatesAt(epoch uint64) ([]StateOverview, error) {
	ep, err := e.resolveEpoch(epoch)
	if err != nil {
		return nil, err
	}
	aggs, minSupport := e.st.StateAggsAt(ep)
	var out []StateOverview
	for i, a := range aggs {
		if a.Count == 0 || a.Count < minSupport {
			continue
		}
		out = append(out, StateOverview{State: cube.StateCode(int16(i)), Agg: a})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Agg.Count != out[b].Agg.Count {
			return out[a].Agg.Count > out[b].Agg.Count
		}
		return out[a].State < out[b].State
	})
	return out, nil
}

// EvolutionPoint is one time-slider position: the explanation mined from
// one window of the rating log.
type EvolutionPoint struct {
	Window      TimeWindow
	Explanation *Explanation
	// Err records windows that could not be mined (e.g. no ratings);
	// the slider renders them as gaps rather than failing the whole
	// sweep.
	Err error
}

// EvolutionContext mines the same query across consecutive yearly
// windows — the §3.1 time slider ("observe reviewer groups ... and how
// they change over time"). The sweep stops at the first window whose
// mining run is cut short by ctx. The window sweep is
// anchored at the query's (resolved) epoch: at the latest epoch a batch
// of fresh ratings extends the time range, so the sweep gains a live
// window covering the newest data, while a pinned epoch replays exactly
// the windows that epoch had.
func (e *Engine) EvolutionContext(ctx context.Context, req ExplainRequest) ([]EvolutionPoint, error) {
	// Resolve the epoch once and forward the resolved value to every
	// window's Explain: if an append lands mid-sweep, re-resolving a
	// latest (0) epoch per point would mine later windows at a newer
	// epoch than the one the sweep's bounds came from — one response
	// must be internally consistent at a single epoch. The per-point
	// Explanations still echo the epoch the caller asked for, matching
	// ExplainContext's contract.
	origEpoch := req.Query.Epoch
	q, err := e.pinQuery(req.Query)
	if err != nil {
		return nil, err
	}
	lo, hi := e.st.TimeRangeAt(q.Epoch)
	w := req.Query.Window
	if w.BoundedFrom() {
		lo = w.From
	}
	if w.BoundedTo() {
		hi = w.To
	}
	windows := explore.YearWindows(lo, hi)
	if len(windows) == 0 {
		return nil, fmt.Errorf("maprat: empty time range")
	}
	out := make([]EvolutionPoint, 0, len(windows))
	for _, win := range windows {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		r := req
		r.Query = q
		r.Query.Window = win
		ex, err := e.ExplainContext(ctx, r)
		if ex != nil {
			ex.Query.Epoch = origEpoch
		}
		out = append(out, EvolutionPoint{Window: win, Explanation: ex, Err: err})
	}
	return out, nil
}

// RenderExploration converts an explanation into the paper's set of
// choropleth maps (one per sub-problem), ready for SVG or terminal
// rendering. Front-ends holding the v1 explain document instead draw the
// same maps with api.ExplainMaps.
func RenderExploration(ex *Explanation) *viz.Exploration {
	out := &viz.Exploration{Query: ex.Query.String()}
	for _, tr := range ex.Results {
		m := viz.Map{Title: taskTitle(tr.Task, ex)}
		for _, g := range tr.Groups {
			m.Shades = append(m.Shades, viz.Shade{
				State:   g.State,
				Mean:    g.Agg.Mean(),
				Support: g.Agg.Count,
				Label:   g.Phrase,
				Icons:   g.Icons,
			})
		}
		out.Maps = append(out.Maps, m)
	}
	return out
}

func taskTitle(t Task, ex *Explanation) string {
	name := "Similarity Mining (reviewers who agree)"
	if t == DiversityMining {
		name = "Diversity Mining (reviewers who disagree)"
	}
	return fmt.Sprintf("%s — %s (%d ratings, overall μ=%.2f)",
		name, ex.Query.String(), ex.NumRatings, ex.Overall.Mean())
}
