package api

import (
	"time"

	"repro"
	"repro/internal/cube"
	"repro/internal/model"
	"repro/internal/viz"
)

// Group is the wire form of one explanation group.
type Group struct {
	// Key round-trips through the key parameter of the per-group
	// endpoints ("gender=male,state=CA").
	Key    string `json:"key"`
	Phrase string `json:"phrase"`
	Icons  string `json:"icons"`
	// State is the two-letter geo-condition ("" in framework mode).
	State string  `json:"state,omitempty"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Count int     `json:"count"`
	// Share is the fraction of the query's ratings this group covers.
	Share float64 `json:"share"`
}

func groupDTO(g maprat.GroupResult) Group {
	return Group{
		Key:    g.Key.Param(),
		Phrase: g.Phrase,
		Icons:  g.Icons,
		State:  g.State,
		Mean:   g.Agg.Mean(),
		Std:    g.Agg.Std(),
		Count:  g.Agg.Count,
		Share:  g.Share,
	}
}

func groupDTOs(gs []maprat.GroupResult) []Group {
	out := make([]Group, len(gs))
	for i, g := range gs {
		out[i] = groupDTO(g)
	}
	return out
}

// TaskResult is the wire form of one mining sub-problem's outcome. The
// GeoJSON payload carries the same groups as a client-renderable
// choropleth layer; it is omitted when no group has a geo-condition
// (framework mode).
type TaskResult struct {
	Task      string  `json:"task"`
	Objective float64 `json:"objective"`
	Coverage  float64 `json:"coverage"`
	// RelaxedCoverage is the α actually enforced after automatic
	// relaxation (equal to the requested α when none was needed).
	RelaxedCoverage float64  `json:"relaxed_coverage"`
	Feasible        bool     `json:"feasible"`
	Evals           int      `json:"evals"`
	Groups          []Group  `json:"groups"`
	GeoJSON         *GeoJSON `json:"geojson,omitempty"`
}

func taskResultDTO(tr maprat.TaskResult) TaskResult {
	groups := groupDTOs(tr.Groups)
	return TaskResult{
		Task:            tr.Task.String(),
		Objective:       tr.Objective,
		Coverage:        tr.Coverage,
		RelaxedCoverage: tr.RelaxedCoverage,
		Feasible:        tr.Feasible,
		Evals:           tr.Evals,
		Groups:          groups,
		GeoJSON:         groupsGeoJSON(groups),
	}
}

// ExplainResponse is the /api/v1/explain payload: everything Figure 2
// renders, per mining sub-problem.
type ExplainResponse struct {
	Query       string       `json:"query"`
	ItemIDs     []int        `json:"item_ids"`
	NumRatings  int          `json:"num_ratings"`
	OverallMean float64      `json:"overall_mean"`
	OverallStd  float64      `json:"overall_std"`
	Tasks       []TaskResult `json:"tasks"`
	FromCache   bool         `json:"from_cache"`
	ElapsedMS   float64      `json:"elapsed_ms"`
}

func explainDTO(ex *maprat.Explanation) *ExplainResponse {
	resp := &ExplainResponse{
		Query:       ex.Query.String(),
		ItemIDs:     ex.ItemIDs,
		NumRatings:  ex.NumRatings,
		OverallMean: ex.Overall.Mean(),
		OverallStd:  ex.Overall.Std(),
		FromCache:   ex.FromCache,
		ElapsedMS:   float64(ex.Elapsed.Microseconds()) / 1000,
	}
	for _, tr := range ex.Results {
		resp.Tasks = append(resp.Tasks, taskResultDTO(tr))
	}
	return resp
}

// CityStat is one row of the state→city drill-down.
type CityStat struct {
	City  string  `json:"city"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Count int     `json:"count"`
}

// TimeBucket is one point of a group's rating-evolution series.
type TimeBucket struct {
	// Start is inclusive, End exclusive (RFC 3339, UTC).
	Start string  `json:"start"`
	End   string  `json:"end"`
	Label string  `json:"label"`
	Mean  float64 `json:"mean"`
	Count int     `json:"count"`
}

// Refinement is one drill-deeper child of a group, with its behavioural
// deviation from the parent.
type Refinement struct {
	Group Group `json:"group"`
	// Added names the attribute the refinement constrains beyond the
	// parent.
	Added string `json:"added"`
	// Delta is the refinement's mean minus the parent's mean.
	Delta float64 `json:"delta"`
}

func stateOf(k cube.Key) string {
	if k.Has(cube.State) {
		return cube.StateCode(k[cube.State])
	}
	return ""
}

func refinementDTOs(refs []maprat.Refinement) []Refinement {
	out := make([]Refinement, len(refs))
	for i, r := range refs {
		out[i] = Refinement{Group: groupDTO(r.Group), Added: r.Added, Delta: r.Delta}
	}
	return out
}

// GroupResponse is the /api/v1/group payload: the full Figure-3
// exploration of one group — statistics, related groups, refinements.
type GroupResponse struct {
	Query string `json:"query"`
	Group Group  `json:"group"`
	// Histogram[i] counts ratings with score i+1.
	Histogram   []int        `json:"histogram"`
	Cities      []CityStat   `json:"cities,omitempty"`
	Timeline    []TimeBucket `json:"timeline"`
	Related     []Group      `json:"related,omitempty"`
	Refinements []Refinement `json:"refinements,omitempty"`
}

func groupResponseDTO(q string, ge *maprat.GroupExploration) *GroupResponse {
	st := ge.Stats
	resp := &GroupResponse{
		Query: q,
		Group: Group{
			Key:    st.Key.Param(),
			Phrase: st.Phrase,
			Icons:  viz.Icons(st.Key),
			State:  stateOf(st.Key),
			Mean:   st.Agg.Mean(),
			Std:    st.Agg.Std(),
			Count:  st.Agg.Count,
			Share:  st.Share,
		},
		Histogram:   st.Histogram[model.MinScore:],
		Related:     groupDTOs(ge.Related),
		Refinements: refinementDTOs(ge.Refinements),
	}
	for _, c := range st.Cities {
		resp.Cities = append(resp.Cities, CityStat{
			City: c.City, Mean: c.Agg.Mean(), Std: c.Agg.Std(), Count: c.Agg.Count,
		})
	}
	for _, b := range st.Timeline {
		resp.Timeline = append(resp.Timeline, TimeBucket{
			Start: b.Start.UTC().Format(time.RFC3339),
			End:   b.End.UTC().Format(time.RFC3339),
			Label: b.Label(),
			Mean:  b.Agg.Mean(),
			Count: b.Agg.Count,
		})
	}
	return resp
}

// RefinementsResponse is the /api/v1/refine payload.
type RefinementsResponse struct {
	Query       string       `json:"query"`
	Key         string       `json:"key"`
	Refinements []Refinement `json:"refinements"`
}

// DrillResponse is the /api/v1/drill payload: the best city-anchored
// sub-groups mined inside one state-anchored parent group.
type DrillResponse struct {
	Query  string     `json:"query"`
	Parent string     `json:"parent"`
	Result TaskResult `json:"result"`
}

// EvolutionPoint is one time-slider position. Exactly one of Explain and
// Error is set: windows that could not be mined (e.g. no ratings) render
// as gaps, not failures of the whole sweep.
type EvolutionPoint struct {
	Year    int              `json:"year"`
	From    string           `json:"from"`
	To      string           `json:"to"`
	Explain *ExplainResponse `json:"explain,omitempty"`
	Error   *ErrorBody       `json:"error,omitempty"`
}

// EvolutionResponse is the /api/v1/evolution payload: the §3.1 time
// slider as one explanation per yearly window.
type EvolutionResponse struct {
	Query  string           `json:"query"`
	Points []EvolutionPoint `json:"points"`
}

// StateOverview is one row of the browse-mode choropleth.
type StateOverview struct {
	State string  `json:"state"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Count int     `json:"count"`
}

// BrowseResponse is the /api/v1/browse payload: every state's whole-log
// aggregate plus the client-renderable choropleth layer.
type BrowseResponse struct {
	States  []StateOverview `json:"states"`
	GeoJSON *GeoJSON        `json:"geojson"`
}

// BatchRequest is the /api/v1/batch input: up to MaxBatch explain
// requests fanned out concurrently through the engine's singleflight +
// plan tiers.
type BatchRequest struct {
	Requests []Params `json:"requests"`
}

// BatchResult is one element of the batch response, index-aligned with
// the request list. Exactly one of Explain and Error is set; a failure of
// one element never fails the batch.
type BatchResult struct {
	Explain *ExplainResponse `json:"explain,omitempty"`
	Error   *ErrorBody       `json:"error,omitempty"`
}

// BatchResponse is the /api/v1/batch payload.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

func yearWindowStrings(w maprat.TimeWindow) (year int, from, to string) {
	f := time.Unix(w.From, 0).UTC()
	t := time.Unix(w.To, 0).UTC()
	return f.Year(), f.Format(time.RFC3339), t.Format(time.RFC3339)
}

func evolutionDTO(q string, points []maprat.EvolutionPoint) *EvolutionResponse {
	resp := &EvolutionResponse{Query: q}
	for _, p := range points {
		year, from, to := yearWindowStrings(p.Window)
		ep := EvolutionPoint{Year: year, From: from, To: to}
		if p.Err != nil {
			ep.Error = errorBodyFor(p.Err)
		} else {
			ep.Explain = explainDTO(p.Explanation)
		}
		resp.Points = append(resp.Points, ep)
	}
	return resp
}
