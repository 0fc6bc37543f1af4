package api

import (
	"context"
	"slices"

	"repro"
)

// Call is one validated pipeline request, ready to run against a miner.
// It returns the response document the v1 endpoint answers (an
// *ExplainResponse, *GroupResponse, *RefinementsResponse, *DrillResponse
// or *EvolutionResponse).
type Call func(ctx context.Context, m maprat.Miner) (any, error)

// opNames lists the v1 pipelines in route order.
var opNames = []string{"explain", "group", "refine", "drill", "evolution"}

// ops is the one op table behind the v1 endpoints, the HTML pages,
// batch elements and the CLI's local mode. Each entry validates its
// Params eagerly — a bad knob fails before any dataset work — in a
// fixed per-op order, so a request with several bad knobs gets the same
// 400 from every caller.
var ops = map[string]func(Params) (Call, error){
	"explain":   explainOp,
	"group":     groupOp,
	"refine":    refineOp,
	"drill":     drillOp,
	"evolution": evolutionOp,
}

// Op validates p for the named pipeline and returns the call that runs
// it. An unknown op or an invalid knob is a bad-request error.
func Op(name string, p Params) (Call, error) {
	prepare, ok := ops[name]
	if !ok {
		return nil, badRequestf("bad op %q (want explain, group, refine, drill or evolution)", name)
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
	return func(ctx context.Context, m maprat.Miner) (any, error) {
		ex, err := m.ExplainContext(ctx, req)
		if err != nil {
			return nil, err
		}
		return explainDTO(ex), nil
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
	return func(ctx context.Context, m maprat.Miner) (any, error) {
		ge, err := m.ExploreFullContext(ctx, req.Query, key, buckets, limit)
		if err != nil {
			return nil, err
		}
		return groupResponseDTO(req.Query.String(), ge), nil
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
	return func(ctx context.Context, m maprat.Miner) (any, error) {
		refs, err := m.RefineGroupContext(ctx, req.Query, key, limit)
		if err != nil {
			return nil, err
		}
		return &RefinementsResponse{
			Query:       req.Query.String(),
			Key:         key.Param(),
			Refinements: refinementDTOs(refs),
		}, nil
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
	return func(ctx context.Context, m maprat.Miner) (any, error) {
		tr, err := m.DrillMineContext(ctx, req.Query, key, task, req.Settings)
		if err != nil {
			return nil, err
		}
		return &DrillResponse{
			Query:  req.Query.String(),
			Parent: key.Param(),
			Result: taskResultDTO(*tr),
		}, nil
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
	return func(ctx context.Context, m maprat.Miner) (any, error) {
		points, err := m.EvolutionContext(ctx, req)
		if err != nil {
			return nil, err
		}
		return evolutionDTO(req.Query.String(), points), nil
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
