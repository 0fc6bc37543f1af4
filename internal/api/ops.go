package api

import (
	"bytes"
	"context"
	"slices"

	"repro"
	"repro/internal/viz"
)

// Call is one validated pipeline request, ready to run against a miner.
type Call func(ctx context.Context, m maprat.Miner) (*Reply, error)

// Reply is what a Call answers: the engine's result, which Doc turns into
// the response document, and the result's body cell. The v1 handler
// writes the bytes stored in the cell and encodes the document only when
// the cell holds none, so a result served from the result cache or a plan
// memo is encoded once.
type Reply struct {
	doc  func() any
	body *maprat.BodyCell
	// ex is an explain call's result, whose per-call fields go out as
	// headers; nil for every other op.
	ex *maprat.Explanation
}

// Doc builds the response document the v1 endpoint answers: an
// *ExplainResponse, *GroupResponse, *RefinementsResponse, *DrillResponse,
// *EvolutionResponse or *BrowseResponse.
func (r *Reply) Doc() any { return r.doc() }

// docReply answers a document that no cache stores.
func docReply(doc any) *Reply {
	return &Reply{doc: func() any { return doc }}
}

// encode returns the response body: the bytes stored in the body cell,
// or the document encoded now and stored, at its exact length, for the
// result's later replies.
func (r *Reply) encode() ([]byte, error) {
	if b := r.body.Load(); b != nil {
		return b, nil
	}
	b, err := encodeJSON(r.Doc())
	if err == nil && r.body != nil {
		r.body.Store(bytes.Clone(b))
	}
	return b, err
}

// opNames lists the v1 reads in route order.
var opNames = []string{"explain", "group", "refine", "drill", "evolution", "browse"}

// ops is the one op table behind the v1 endpoints, the HTML pages and
// the CLI's local mode. Each entry validates its
// Params eagerly — a bad knob fails before any dataset work — in a
// fixed per-op order, so a request with several bad knobs gets the same
// 400 from every caller.
var ops = map[string]func(Params) (Call, error){
	"explain":   explainOp,
	"group":     groupOp,
	"refine":    refineOp,
	"drill":     drillOp,
	"evolution": evolutionOp,
	"browse":    browseOp,
}

// Op validates p for the named pipeline and returns the call that runs
// it. An unknown op or an invalid knob is a bad-request error.
func Op(name string, p Params) (Call, error) {
	prepare, ok := ops[name]
	if !ok {
		return nil, badRequestf("bad op %q (want explain, group, refine, drill, evolution or browse)", name)
	}
	return prepare(p)
}

func explainOp(p Params) (Call, error) {
	req, err := p.ExplainRequest()
	if err != nil {
		return nil, err
	}
	if err := checkDMK(req.Settings.K, req.Tasks); err != nil {
		return nil, err
	}
	return func(ctx context.Context, m maprat.Miner) (*Reply, error) {
		ex, err := m.ExplainContext(ctx, req)
		if err != nil {
			return nil, err
		}
		return &Reply{doc: func() any { return explainDTO(ex) }, body: ex.Body, ex: ex}, nil
	}, nil
}

func groupOp(p Params) (Call, error) {
	req, key, err := groupRequest(p)
	if err != nil {
		return nil, err
	}
	buckets, err := p.TimelineBuckets()
	if err != nil {
		return nil, err
	}
	limit, err := p.RefineLimit()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, m maprat.Miner) (*Reply, error) {
		ge, err := m.ExploreFullContext(ctx, req.Query, key, buckets, limit)
		if err != nil {
			return nil, err
		}
		// The query string is in the plan key, and the key, buckets and
		// limit in the memo key, so the body is a function of the cached
		// result.
		return &Reply{doc: func() any { return groupResponseDTO(req.Query.String(), ge) }, body: ge.Body}, nil
	}, nil
}

func refineOp(p Params) (Call, error) {
	req, key, err := groupRequest(p)
	if err != nil {
		return nil, err
	}
	limit, err := p.RefineLimit()
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, m maprat.Miner) (*Reply, error) {
		refs, err := m.RefineGroupContext(ctx, req.Query, key, limit)
		if err != nil {
			return nil, err
		}
		return docReply(&RefinementsResponse{
			Query:       req.Query.String(),
			Key:         key.Param(),
			Refinements: refinementDTOs(refs),
		}), nil
	}, nil
}

func drillOp(p Params) (Call, error) {
	req, key, err := groupRequest(p)
	if err != nil {
		return nil, err
	}
	task, err := p.DrillTask()
	if err != nil {
		return nil, err
	}
	if err := checkDMK(req.Settings.K, []maprat.Task{task}); err != nil {
		return nil, err
	}
	return func(ctx context.Context, m maprat.Miner) (*Reply, error) {
		tr, err := m.DrillMineContext(ctx, req.Query, key, task, req.Settings)
		if err != nil {
			return nil, err
		}
		// The query string is in the plan key and the parent key in the
		// memo key, so the body is a function of the cached result.
		return &Reply{doc: func() any {
			return &DrillResponse{
				Query:  req.Query.String(),
				Parent: key.Param(),
				Result: taskResultDTO(*tr),
			}
		}, body: tr.Body}, nil
	}, nil
}

func evolutionOp(p Params) (Call, error) {
	req, err := p.ExplainRequest()
	if err != nil {
		return nil, err
	}
	if err := checkDMK(req.Settings.K, req.Tasks); err != nil {
		return nil, err
	}
	return func(ctx context.Context, m maprat.Miner) (*Reply, error) {
		points, err := m.EvolutionContext(ctx, req)
		if err != nil {
			return nil, err
		}
		return docReply(evolutionDTO(req.Query.String(), points)), nil
	}, nil
}

// browseOp serves browse mode, the whole-log per-state choropleth shown
// before any query. It reads only the epoch (absent or 0 = latest).
func browseOp(p Params) (Call, error) {
	var epoch uint64
	if p.Epoch != nil {
		epoch = *p.Epoch
	}
	return func(_ context.Context, m maprat.Miner) (*Reply, error) {
		states, err := m.BrowseStatesAt(epoch)
		if err != nil {
			return nil, err
		}
		resp := &BrowseResponse{}
		var layer viz.Map
		for _, st := range states {
			resp.States = append(resp.States, StateOverview{
				State: st.State, Mean: st.Agg.Mean(), Std: st.Agg.Std(), Count: st.Agg.Count,
			})
			layer.Shades = append(layer.Shades, viz.Shade{State: st.State, Mean: st.Agg.Mean(), Support: st.Agg.Count})
		}
		// Unlike a task's layer, browse's is present even when empty.
		if resp.GeoJSON = geoJSON(&layer); resp.GeoJSON == nil {
			resp.GeoJSON = &GeoJSON{Type: "FeatureCollection"}
		}
		return docReply(resp), nil
	}, nil
}

// checkDMK rejects Diversity Mining with k < 2 before any dataset work:
// DM needs two groups to disagree, and the solver's refusal would
// otherwise surface from the pipeline as a 500. An empty task list is the
// engine's default, which includes DM.
func checkDMK(k int, tasks []maprat.Task) error {
	if k >= 2 || (len(tasks) > 0 && !slices.Contains(tasks, maprat.DiversityMining)) {
		return nil
	}
	return badRequestf("bad k %d for task dm (want 2..12)", k)
}

// groupRequest validates the (explain request, group key) pair the
// per-group ops share.
func groupRequest(p Params) (maprat.ExplainRequest, maprat.Key, error) {
	req, err := p.ExplainRequest()
	if err != nil {
		return req, maprat.Key{}, err
	}
	key, err := p.GroupKey()
	return req, key, err
}
