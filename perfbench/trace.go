package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/store"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op; Parent links a span to the one that caused it (0 = root).
// Replay spans are cache-free re-executions of an engine call's stages,
// run after the call: their time is attributed against the engine span's
// duration, not placed inside its interval.
type span struct {
	ID     int32   `json:"id"`
	Parent int32   `json:"parent"`
	Op     int32   `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_us"` // since the traced pass began
	End    float64 `json:"end_us"`
	Replay bool    `json:"replay,omitempty"`
}

func (s *span) ms() float64 { return (s.End - s.Start) / 1e3 }

// call is one engine call the wrapper observed: its inputs, its result,
// its interval, and the public counters read around it.
type call struct {
	kind          opKind
	probe0        time.Time // counter read before the call began
	start, end    time.Time
	probe1        time.Time // counter read after the call ended
	epoch         uint64
	before, after counters
	apply0        float64 // IngestStats.ApplyTotalMS around an append
	apply1        float64
	req           maprat.ExplainRequest
	q             maprat.Query
	key           maprat.Key
	buckets, lim  int
	task          maprat.Task
	settings      maprat.Settings
	ratings       []model.Rating
	res           any
	err           error
}

// tracedMiner is the engine as the traced run mounts it. It embeds the
// engine, so every optional interface the api layer asserts (appends,
// ingest stats, pinned browse) still resolves, and records each call of
// the five request paths it serves.
type tracedMiner struct {
	*maprat.Engine
	tr *tracer
}

func (m *tracedMiner) ExplainContext(ctx context.Context, req maprat.ExplainRequest) (*maprat.Explanation, error) {
	c := m.tr.begin(opExplain)
	ex, err := m.Engine.ExplainContext(ctx, req)
	if c != nil {
		c.req = req
		m.tr.end(c, ex, err)
	}
	return ex, err
}

func (m *tracedMiner) ExploreFullContext(ctx context.Context, q maprat.Query, key maprat.Key, buckets, refineLimit int) (*maprat.GroupExploration, error) {
	c := m.tr.begin(opGroup)
	ge, err := m.Engine.ExploreFullContext(ctx, q, key, buckets, refineLimit)
	if c != nil {
		c.q, c.key, c.buckets, c.lim = q, key, buckets, refineLimit
		m.tr.end(c, ge, err)
	}
	return ge, err
}

func (m *tracedMiner) RefineGroupContext(ctx context.Context, q maprat.Query, key maprat.Key, limit int) ([]maprat.Refinement, error) {
	c := m.tr.begin(opRefine)
	refs, err := m.Engine.RefineGroupContext(ctx, q, key, limit)
	if c != nil {
		c.q, c.key, c.lim = q, key, limit
		m.tr.end(c, refs, err)
	}
	return refs, err
}

func (m *tracedMiner) DrillMineContext(ctx context.Context, q maprat.Query, parent maprat.Key, task maprat.Task, s maprat.Settings) (*maprat.TaskResult, error) {
	c := m.tr.begin(opDrill)
	tr, err := m.Engine.DrillMineContext(ctx, q, parent, task, s)
	if c != nil {
		c.q, c.key, c.task, c.settings = q, parent, task, s
		m.tr.end(c, tr, err)
	}
	return tr, err
}

func (m *tracedMiner) AppendRatings(ctx context.Context, ratings []model.Rating) (uint64, error) {
	c := m.tr.begin(opAppend)
	epoch, err := m.Engine.AppendRatings(ctx, ratings)
	if c != nil {
		c.ratings = ratings
		m.tr.end(c, epoch, err)
	}
	return epoch, err
}

var _ maprat.Miner = (*tracedMiner)(nil)

// tracer records spans and per-layer tallies for one traced pass. The
// wrapper hands it calls from server goroutines; the client goroutine
// turns them into spans after each round trip, replaying the stages the
// counters show the call ran.
type tracer struct {
	eng  *maprat.Engine
	base cube.Config // the engine's default candidate-cube config
	on   atomic.Bool

	mu      sync.Mutex
	pending []*call

	// Client goroutine only below.
	t0     time.Time
	op     int32
	spans  []span
	replay time.Duration // client time spent replaying, spans or not
	memo   planMemo
	tally  tally
	errs   []string
}

func newTracer() *tracer {
	return &tracer{base: maprat.DefaultOptions().Cube, memo: planMemo{plans: map[string]*store.Plan{}}}
}

func (t *tracer) startPass() {
	t.t0 = time.Now()
	t.on.Store(true)
}

func (t *tracer) stopPass() { t.on.Store(false) }

func (t *tracer) begin(kind opKind) *call {
	if !t.on.Load() {
		return nil
	}
	c := &call{kind: kind, probe0: time.Now()}
	c.before, c.apply0 = readCounters(t.eng, kind == opAppend)
	c.epoch = c.before.Epoch
	c.start = time.Now()
	return c
}

func (t *tracer) end(c *call, res any, err error) {
	c.end = time.Now()
	c.after, c.apply1 = readCounters(t.eng, c.kind == opAppend)
	c.res, c.err = res, err
	c.probe1 = time.Now()
	t.mu.Lock()
	t.pending = append(t.pending, c)
	t.mu.Unlock()
}

func (t *tracer) beginOp(i int32) { t.op = i }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

func (t *tracer) add(s span) int32 {
	s.ID = int32(len(t.spans) + 1)
	s.Op = t.op
	t.spans = append(t.spans, s)
	return s.ID
}

// stage runs f as a replay span under parent and returns its duration.
func (t *tracer) stage(parent int32, name, layer string, f func()) float64 {
	s := time.Now()
	f()
	e := time.Now()
	id := t.add(span{Parent: parent, Name: name, Layer: layer, Start: t.us(s), End: t.us(e), Replay: true})
	return t.spans[id-1].ms()
}

func (t *tracer) mismatch(format string, args ...any) {
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	} else {
		t.errs[4] = "…and more replay mismatches"
	}
}

// endOp turns the round trip and the engine calls it made into spans.
func (t *tracer) endOp(ctx context.Context, kind opKind, start time.Time, rtt time.Duration, bytes int64) {
	t.mu.Lock()
	calls := t.pending
	t.pending = nil
	t.mu.Unlock()
	root := t.add(span{Name: "api." + kind.String(), Layer: "api", Start: t.us(start), End: t.us(start.Add(rtt))})
	inner := time.Duration(0)
	for _, c := range calls {
		inner += c.probe1.Sub(c.probe0)
		t.add(span{Parent: root, Name: "trace.probe", Layer: "trace", Start: t.us(c.probe0), End: t.us(c.start)})
		t.add(span{Parent: root, Name: "trace.probe", Layer: "trace", Start: t.us(c.end), End: t.us(c.probe1)})
		r0 := time.Now()
		t.replayCall(ctx, root, c)
		t.replay += time.Since(r0)
	}
	overhead := float64((rtt - inner).Nanoseconds()) / 1e6
	if kind == opAppend {
		t.tally.appendOverhead = append(t.tally.appendOverhead, overhead)
	} else {
		t.tally.overhead = append(t.tally.overhead, overhead)
	}
	t.tally.ops++
	t.tally.bytes += bytes
}

// replayCall records the engine span of one call and re-executes,
// cache-free and through their public entry points, the stages the call's
// counter deltas show it ran. The replayed result must equal the engine's.
func (t *tracer) replayCall(ctx context.Context, root int32, c *call) {
	layer := "maprat"
	if c.kind == opAppend {
		layer = "ingest"
	}
	id := t.add(span{Parent: root, Name: layer + "." + c.kind.String(), Layer: layer, Start: t.us(c.start), End: t.us(c.end)})
	d := c.after.sub(c.before)
	t.tally.count(c.kind, d)
	if c.err != nil {
		t.mismatch("%s failed in the engine: %v", c.kind, c.err)
		return
	}
	built := d.PlanBuilds > 0
	switch c.kind {
	case opAppend:
		t.tally.add("ingest.append_ms", t.spans[id-1].ms())
		t.tally.add("ingest.apply_ms", c.apply1-c.apply0)
		t.tally.walBytes += d.WALBytes
		t.tally.ratings += len(c.ratings)
		ids := make([]int, len(c.ratings))
		for i, r := range c.ratings {
			ids[i] = r.ItemID
		}
		t.memo.invalidate(ids)
	case opExplain:
		if d.Mines == 0 {
			return // served by the result cache
		}
		q := c.req.Query
		q.Epoch = c.epoch
		p := t.plan(id, q, t.base, built)
		req := c.req
		req.Query = q
		var ex *maprat.Explanation
		var err error
		t.tally.add("core.rhe_ms", t.stage(id, "core.mine", "core", func() { ex, err = maprat.MinePlan(ctx, p, req) }))
		if err != nil || digestEngine(opExplain, ex) != digestEngine(opExplain, c.res) {
			t.mismatch("explain %s: replay differs from the engine (%v)", q, err)
			return
		}
		settings := req.Settings
		if settings.K == 0 {
			settings = maprat.DefaultSettings()
		}
		for _, tr := range ex.Results {
			n, ok := relaxAttempts(settings.Coverage, tr.RelaxedCoverage)
			if !ok {
				t.mismatch("explain %s: α %g is not on the relaxation ladder of %g (solveTask changed?)", q, tr.RelaxedCoverage, settings.Coverage)
			}
			t.tally.solve(tr.Evals, n, tr.Feasible)
		}
	case opGroup, opRefine:
		q := c.q
		q.Epoch = c.epoch
		p := t.plan(id, q, maprat.GroupCubeConfig(t.base, c.key), built)
		g, ok := p.Cube.Group(c.key)
		if !ok {
			t.mismatch("%s %s: group %s missing from the replayed plan", c.kind, q, c.key.Param())
			return
		}
		var v any
		var err error
		if c.kind == opRefine {
			t.tally.add("explore.refine_ms", t.stage(id, "explore.refine", "explore", func() { v, err = maprat.RefinePlan(p, q, c.key, c.lim) }))
		} else {
			t.tally.add("explore.stats_ms", t.stage(id, "explore.stats", "explore", func() { explore.Stats(p.Tuples, g, c.buckets) }))
			t.tally.add("explore.related_ms", t.stage(id, "explore.related", "explore", func() { explore.Related(p.Cube, g) }))
			if c.lim >= 0 {
				t.tally.add("explore.refine_ms", t.stage(id, "explore.refine", "explore", func() { explore.Refinements(p.Cube, g) }))
			}
			v, err = maprat.ExplorePlan(ctx, p, q, c.key, c.buckets, c.lim)
		}
		if err != nil || digestEngine(c.kind, v) != digestEngine(c.kind, c.res) {
			t.mismatch("%s %s: replay differs from the engine (%v)", c.kind, q, err)
		}
	case opDrill:
		q := c.q
		q.Epoch = c.epoch
		p := t.plan(id, q, maprat.GroupCubeConfig(t.base, c.key), built)
		tr, err := t.drill(ctx, id, p, c)
		if err != nil || digestEngine(opDrill, tr) != digestEngine(opDrill, c.res) {
			t.mismatch("drill %s: replay differs from the engine (%v)", q, err)
		}
	}
}

// drill replays DrillPlan (maprat.go) stage by stage: the city-anchored
// sub-cube over the parent group's tuples, its member bitsets, and the RHE
// solve. It mirrors DrillPlan's sub-cube config and TaskResult assembly
// only to time cube apart from core; DrillPlan stays the source of truth,
// and the digest check against the engine's answer catches any drift.
func (t *tracer) drill(ctx context.Context, parent int32, p *store.Plan, c *call) (*maprat.TaskResult, error) {
	s := c.settings
	if s.K == 0 {
		s = maprat.DefaultSettings()
	}
	pg, ok := p.Cube.Group(c.key)
	if !ok {
		return nil, fmt.Errorf("parent group %s missing", c.key.Param())
	}
	sub := make([]cube.Tuple, 0, len(pg.Members))
	for _, ti := range pg.Members {
		sub = append(sub, p.Tuples[ti])
	}
	cfg := cube.Config{RequireCity: true, MinSupport: max(3, len(sub)/50), MaxAVPairs: c.key.NumConstrained() + 2, SkipApex: true}
	var sc *cube.Cube
	t.tally.add("cube.drill_build_ms", t.stage(parent, "cube.drill_build", "cube", func() {
		sc = cube.Build(sub, cfg)
		sc.MemberBits()
	}))
	var sol core.Solution
	var err error
	t.tally.add("core.drill_rhe_ms", t.stage(parent, "core.drill", "core", func() {
		var prob *core.Problem
		if prob, err = core.NewProblem(c.task, sc, s); err == nil {
			sol, err = prob.SolveRHECtx(ctx)
		}
	}))
	if err != nil {
		return nil, err
	}
	t.tally.solve(sol.Evals, 1, sol.Feasible)
	tr := &maprat.TaskResult{
		Task: c.task, Objective: sol.Objective, Coverage: sol.Coverage, Feasible: sol.Feasible,
		Evals: sol.Evals, RelaxedCoverage: s.Coverage,
	}
	for _, gi := range sol.Groups {
		g := &sc.Groups[gi]
		tr.Groups = append(tr.Groups, maprat.GroupResult{Key: g.Key, Agg: g.Agg, Share: float64(len(g.Members)) / float64(len(sub))})
	}
	return tr, nil
}

// plan returns the tracer's own copy of the plan a call used. When the
// call built its plan (record), the build is replayed stage by stage as
// spans: resolve, gather, cube build, member bitsets. Otherwise a copy
// kept from an earlier replay is reused, or one is built without spans —
// that work belongs to no call.
func (t *tracer) plan(parent int32, q maprat.Query, base cube.Config, record bool) *store.Plan {
	key := maprat.PlanKey(q, base)
	if p := t.memo.plans[key]; p != nil && !record {
		return p
	}
	st := t.eng.Store()
	stage := t.stage
	if !record {
		stage = func(_ int32, _, _ string, f func()) float64 { f(); return 0 }
	}
	var ids []int
	var tuples []cube.Tuple
	var c *cube.Cube
	resolve := stage(parent, "query.resolve", "query", func() { ids, _ = query.Resolve(st, q) })
	gather := stage(parent, "store.gather", "store", func() { tuples = st.TuplesForItemsAt(ids, q.Window, q.Epoch) })
	build := stage(parent, "cube.build", "cube", func() { c = cube.Build(tuples, maprat.AdaptCubeConfig(base, len(tuples))) })
	bits := stage(parent, "cube.bits", "cube", func() { c.MemberBits() })
	if record {
		t.tally.add("query.resolve_ms", resolve)
		t.tally.add("query.items_per_query", float64(len(ids)))
		t.tally.add("store.gather_ms", gather)
		t.tally.add("store.tuples_per_plan", float64(len(tuples)))
		t.tally.add("cube.build_ms", build)
		t.tally.add("cube.bits_ms", bits)
		t.tally.add("cube.groups_per_plan", float64(c.Len()))
	}
	p := &store.Plan{ItemIDs: ids, Tuples: tuples, Cube: c}
	for i := range tuples {
		p.Overall.Add(tuples[i].Score)
	}
	t.memo.put(key, p)
	return p
}

// planMemo holds the tracer's recent plans, so follow-up replays reuse
// them as the engine reuses its own; an append drops the plans whose
// items it touched, as the engine's plan tier seals them.
type planMemo struct {
	keys  []string
	plans map[string]*store.Plan
}

const memoPlans = 16

func (m *planMemo) put(key string, p *store.Plan) {
	if _, ok := m.plans[key]; !ok {
		m.keys = append(m.keys, key)
	}
	m.plans[key] = p
	for len(m.keys) > memoPlans {
		delete(m.plans, m.keys[0])
		m.keys = m.keys[1:]
	}
}

func (m *planMemo) invalidate(items []int) {
	touched := map[int]bool{}
	for _, id := range items {
		touched[id] = true
	}
	kept := m.keys[:0]
	for _, k := range m.keys {
		hit := false
		for _, id := range m.plans[k].ItemIDs {
			if touched[id] {
				hit = true
				break
			}
		}
		if hit {
			delete(m.plans, k)
		} else {
			kept = append(kept, k)
		}
	}
	m.keys = kept
}

// relaxAttempts is how many coverage levels the engine's relaxation tried
// before it solved at used. The engine returns only the level it settled
// on, so the count is read off its ladder: α, α/2, … while above 2%, then
// 0. solveTask in maprat.go is the source of truth for that ladder; a
// level that is not on this copy reports !ok, and the run counts it as a
// replay mismatch instead of reporting a wrong core.feasible_ratio.
func relaxAttempts(alpha, used float64) (int, bool) {
	levels := []float64{alpha}
	for a := alpha; a > 0.02; a /= 2 {
		levels = append(levels, a/2)
	}
	levels = append(levels, 0)
	for i, a := range levels {
		if a == used {
			return i + 1, true
		}
	}
	return len(levels), false
}

// tally accumulates the per-layer figures of a traced pass.
type tally struct {
	sums           map[string]float64
	ns             map[string]int
	overhead       []float64 // read round trip minus engine call, ms
	appendOverhead []float64
	ops            int
	bytes          int64
	explains       int
	c              counters // summed per-call deltas
	solves         int
	attempts       int
	feasible       int
	evals          int
	walBytes       int64
	ratings        int
}

func (t *tally) add(name string, v float64) {
	if t.sums == nil {
		t.sums, t.ns = map[string]float64{}, map[string]int{}
	}
	t.sums[name] += v
	t.ns[name]++
}

func (t *tally) mean(name string) float64 {
	if t.ns[name] == 0 {
		return 0
	}
	return t.sums[name] / float64(t.ns[name])
}

func (t *tally) count(kind opKind, d counters) {
	if kind == opExplain {
		t.explains++
	}
	t.c.Mines += d.Mines
	t.c.ResultHits += d.ResultHits
	t.c.ResultMisses += d.ResultMisses
	t.c.PlanHits += d.PlanHits
	t.c.PlanMisses += d.PlanMisses
	t.c.PlanBuilds += d.PlanBuilds
	t.c.PlanEvictions += d.PlanEvictions
	t.c.PlansInvalidated += d.PlansInvalidated
	t.c.PlansSurviving += d.PlansSurviving
}

func (t *tally) solve(evals, attempts int, feasible bool) {
	t.solves++
	t.evals += evals
	t.attempts += attempts
	if feasible {
		t.feasible++
	}
}

// selfTimes sums each layer's self time: a span's duration minus its
// children's.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Layer] += max(0, s.ms()-child[s.ID])
	}
	return out
}

// dump writes the spans and the self time per layer to dir.
func (t *tracer) dump(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Ops      int                `json:"ops"`
		Layers   []string           `json:"layers"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, t.tally.ops, layers, self, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
