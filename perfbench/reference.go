package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"repro"
	"repro/internal/api"
	"repro/internal/model"
	"repro/pkg/client"
)

// reference is the engine responses are checked against: opened straight
// from the dataset with the result cache off, so every explain mines, and
// called in-process with the request the server would decode.
type reference struct {
	eng *maprat.Engine
}

func openReference(ds *maprat.Dataset) (*reference, error) {
	opts := maprat.DefaultOptions()
	opts.Store.CacheSize = 0
	eng, err := maprat.Open(ds, &opts)
	if err != nil {
		return nil, fmt.Errorf("open reference engine: %w", err)
	}
	return &reference{eng: eng}, nil
}

func (r *reference) close() { _ = r.eng.Close() } // read-only use: nothing to flush or lose

func (r *reference) numRatings() int { return len(r.eng.Dataset().Ratings) }

// prepare mines a candidate entry on the reference engine. It fills in
// the group sessions click (the top similarity group) and, when drill is
// set, the first group whose city drill-down mines; records the digests
// of the entry's epoch-1 reads (refine only when refine is set); and
// appends the entry to the workload. It reports false for a candidate no
// session could use.
func (r *reference) prepare(ctx context.Context, w *workload, e *entry, refine, drill bool) (bool, error) {
	v, err := r.read(ctx, e, opExplain, 0)
	if err != nil {
		return false, nil
	}
	ex := v.(*maprat.Explanation)
	sm := ex.Result(maprat.SimilarityMining)
	if sm == nil || len(sm.Groups) == 0 {
		return false, nil
	}
	e.Key = sm.Groups[0].Key.Param()
	got := map[opKind]any{opExplain: ex}
	if drill {
	search:
		for _, tr := range ex.Results {
			for _, g := range tr.Groups {
				e.DrillKey = g.Key.Param()
				if got[opDrill], err = r.read(ctx, e, opDrill, 0); err == nil {
					break search
				}
				e.DrillKey = ""
			}
		}
		if e.DrillKey == "" {
			return false, nil
		}
	}
	kinds := []opKind{opGroup}
	if refine {
		kinds = append(kinds, opRefine)
	}
	for _, k := range kinds {
		if got[k], err = r.read(ctx, e, k, 0); err != nil {
			return false, fmt.Errorf("reference %s %s: %w", k, e.Q, err)
		}
	}
	idx := int32(len(w.Entries))
	for k, v := range got {
		w.expect[readKey{k, idx, 1}] = digestEngine(k, v)
	}
	w.Entries = append(w.Entries, *e)
	return true, nil
}

// read runs one read operation directly on the engine, decoding its
// parameters exactly as the HTTP layer does. epoch 0 reads the latest
// version.
func (r *reference) read(ctx context.Context, e *entry, kind opKind, epoch uint64) (any, error) {
	p := e.params(kind, epoch)
	req, err := p.ExplainRequest()
	if err != nil {
		return nil, err
	}
	if kind == opExplain {
		return r.eng.ExplainContext(ctx, req)
	}
	key, err := p.GroupKey()
	if err != nil {
		return nil, err
	}
	switch kind {
	case opGroup:
		return r.eng.ExploreFullContext(ctx, req.Query, key, 0, refineLimit)
	case opRefine:
		return r.eng.RefineGroupContext(ctx, req.Query, key, refineLimit)
	case opDrill:
		return r.eng.DrillMineContext(ctx, req.Query, key, maprat.SimilarityMining, req.Settings)
	}
	return nil, fmt.Errorf("not a read: %s", kind)
}

// rebuildFromWAL opens a fresh reference engine over the dataset plus the
// batches a run logged, replaying them from a copy of its write-ahead
// log. The copy keeps the served log untouched.
func rebuildFromWAL(ds *maprat.Dataset, wal, scratch string) (*reference, error) {
	if err := copyFile(wal, scratch); err != nil {
		return nil, err
	}
	r, err := openReference(ds)
	if err != nil {
		return nil, err
	}
	if _, err := r.eng.EnableIngest(scratch); err != nil {
		r.close()
		return nil, fmt.Errorf("replay logged batches: %w", err)
	}
	return r, nil
}

// The digests cover every mined value a response carries (groups, their
// aggregates and shares, objectives, statistics) and none of the per-call
// fields (from_cache, elapsed). Wire responses and engine results hash
// field by field to the same value when they agree; JSON float encoding
// round-trips exactly, so floats compare bit for bit.

type digester struct{ buf []byte }

func (d *digester) str(s string) { d.buf = append(append(d.buf, s...), 0) }
func (d *digester) num(v int)    { d.u64(uint64(v)) }
func (d *digester) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *digester) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.buf = append(d.buf, byte(v>>(8*i)))
	}
}
func (d *digester) flag(b bool) {
	if b {
		d.buf = append(d.buf, 1)
	} else {
		d.buf = append(d.buf, 0)
	}
}
func (d *digester) sum() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(d.buf) // hash.Hash writes never fail
	return h.Sum64()
}

func (d *digester) group(key string, a maprat.Agg, share float64) {
	d.str(key)
	d.num(a.Count)
	d.f64(a.Mean())
	d.f64(a.Std())
	d.f64(share)
}

func (d *digester) bucket(label string, count int, mean float64) {
	d.str(label)
	d.num(count)
	d.f64(mean)
}

func (d *digester) wireGroup(g api.Group) {
	d.str(g.Key)
	d.num(g.Count)
	d.f64(g.Mean)
	d.f64(g.Std)
	d.f64(g.Share)
}

func (d *digester) task(tr *maprat.TaskResult) {
	d.str(tr.Task.String())
	d.f64(tr.Objective)
	d.f64(tr.Coverage)
	d.f64(tr.RelaxedCoverage)
	d.flag(tr.Feasible)
	d.num(tr.Evals)
	d.num(len(tr.Groups))
	for _, g := range tr.Groups {
		d.group(g.Key.Param(), g.Agg, g.Share)
	}
}

func (d *digester) wireTask(tr *api.TaskResult) {
	d.str(tr.Task)
	d.f64(tr.Objective)
	d.f64(tr.Coverage)
	d.f64(tr.RelaxedCoverage)
	d.flag(tr.Feasible)
	d.num(tr.Evals)
	d.num(len(tr.Groups))
	for _, g := range tr.Groups {
		d.wireGroup(g)
	}
}

// digestEngine hashes the engine result of a read operation.
func digestEngine(kind opKind, v any) uint64 {
	var d digester
	switch r := v.(type) {
	case *maprat.Explanation:
		d.str(r.Query.String())
		for _, id := range r.ItemIDs {
			d.num(id)
		}
		d.num(r.NumRatings)
		d.f64(r.Overall.Mean())
		d.f64(r.Overall.Std())
		for i := range r.Results {
			d.task(&r.Results[i])
		}
	case *maprat.GroupExploration:
		st := &r.Stats
		d.group(st.Key.Param(), st.Agg, st.Share)
		for _, c := range st.Histogram[model.MinScore:] {
			d.num(c)
		}
		for _, c := range st.Cities {
			d.str(c.City)
			d.group("", c.Agg, 0)
		}
		for _, b := range st.Timeline {
			d.bucket(b.Label(), b.Agg.Count, b.Agg.Mean())
		}
		for _, g := range r.Related {
			d.group(g.Key.Param(), g.Agg, g.Share)
		}
		d.refinements(r.Refinements)
	case []maprat.Refinement:
		d.refinements(r)
	case *maprat.TaskResult:
		d.task(r)
	}
	d.str(kind.String())
	return d.sum()
}

func (d *digester) refinements(refs []maprat.Refinement) {
	d.num(len(refs))
	for _, r := range refs {
		d.group(r.Group.Key.Param(), r.Group.Agg, r.Group.Share)
		d.str(r.Added)
		d.f64(r.Delta)
	}
}

// digestWire hashes a decoded HTTP response the way digestEngine hashes
// the engine result it was encoded from.
func digestWire(kind opKind, v any) uint64 {
	var d digester
	switch r := v.(type) {
	case *client.ExplainResponse:
		d.str(r.Query)
		for _, id := range r.ItemIDs {
			d.num(id)
		}
		d.num(r.NumRatings)
		d.f64(r.OverallMean)
		d.f64(r.OverallStd)
		for i := range r.Tasks {
			d.wireTask(&r.Tasks[i])
		}
	case *client.GroupResponse:
		d.wireGroup(r.Group)
		for _, c := range r.Histogram {
			d.num(c)
		}
		for _, c := range r.Cities {
			d.str(c.City)
			d.wireGroup(api.Group{Count: c.Count, Mean: c.Mean, Std: c.Std})
		}
		for _, b := range r.Timeline {
			d.bucket(b.Label, b.Count, b.Mean)
		}
		for _, g := range r.Related {
			d.wireGroup(g)
		}
		d.wireRefinements(r.Refinements)
	case *client.RefinementsResponse:
		d.wireRefinements(r.Refinements)
	case *client.DrillResponse:
		d.wireTask(&r.Result)
	}
	d.str(kind.String())
	return d.sum()
}

func (d *digester) wireRefinements(refs []api.Refinement) {
	d.num(len(refs))
	for _, r := range refs {
		d.wireGroup(r.Group)
		d.str(r.Added)
		d.f64(r.Delta)
	}
}
