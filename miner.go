package maprat

import (
	"context"

	"repro/internal/model"
	"repro/internal/store"
)

// DatasetStats is the per-dataset summary served on /statsz and the boot
// log (entity counts, mean score, time range).
type DatasetStats = model.Stats

// Miner is the full serving surface of a mounted dataset: the five
// mining pipelines plus the identity and monitoring hooks the HTTP layer
// needs. *Engine implements it over a local store. The HTTP layer takes
// the interface rather than *Engine so a wrapper can sit in front of an
// engine: the perfbench traced run mounts one that records each call
// and replays it stage by stage through the exported plan functions
// (MinePlan, ExplorePlan, RefinePlan, DrillPlan). Implementations must
// be safe for concurrent use.
type Miner interface {
	// ExplainContext runs the full §2.3 pipeline for a query.
	ExplainContext(ctx context.Context, req ExplainRequest) (*Explanation, error)
	// ExploreFullContext computes one group's exploration (stats, related
	// groups, refinements) from the query's plan.
	ExploreFullContext(ctx context.Context, q Query, key Key, buckets, refineLimit int) (*GroupExploration, error)
	// RefineGroupContext returns a group's most deviant drill-deeper
	// refinements, capped at limit (0 = all).
	RefineGroupContext(ctx context.Context, q Query, key Key, limit int) ([]Refinement, error)
	// DrillMineContext mines city-anchored sub-groups inside a parent
	// explanation group.
	DrillMineContext(ctx context.Context, q Query, parent Key, task Task, s Settings) (*TaskResult, error)
	// EvolutionContext mines the query across consecutive yearly windows.
	EvolutionContext(ctx context.Context, req ExplainRequest) ([]EvolutionPoint, error)
	// BrowseStates returns every state's whole-log aggregate (nil when
	// the implementation cannot provide it).
	BrowseStates() []StateOverview

	// TimeRange returns the dataset's [min, max] rating timestamps.
	TimeRange() (int64, int64)
	// Fingerprint identifies the served dataset; it feeds the HTTP
	// layer's ETags, so two miners over the same data must agree on it.
	Fingerprint() uint64
	// DatasetStats summarizes the served dataset for monitoring.
	DatasetStats() DatasetStats
	// PlanStats snapshots the plan materialization tier's counters
	// (zero-valued when the tier is disabled).
	PlanStats() store.PlanStats
	// MineCount returns completed mining-pipeline executions.
	MineCount() uint64
	// Close releases the miner's resources; idempotent.
	Close() error
}

// DatasetStats summarizes the engine's dataset — the Miner monitoring
// hook behind /statsz and the server boot log.
func (e *Engine) DatasetStats() DatasetStats { return e.st.Dataset().Stats() }

// Compile-time check: the local engine serves the full Miner surface.
var _ Miner = (*Engine)(nil)
