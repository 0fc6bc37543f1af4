package maprat

import (
	"context"

	"repro/internal/model"
	"repro/internal/store"
)

// Miner is the full serving surface of a mounted dataset: the five
// mining pipelines, browse, and the identity and monitoring hooks the
// HTTP layer needs; apart from /statsz's result-cache counters, the HTTP
// layer reaches an engine through nothing else. *Engine implements it
// over a local store. The HTTP layer takes
// the interface rather than *Engine so a wrapper can sit in front of an
// engine: the perfbench traced run mounts one that records each call
// and replays it stage by stage, through MinePlan, ExplorePlan and
// RefinePlan and, for a drill, through the cube build and RHE solve
// directly. Implementations must be safe for concurrent use.
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
	// BrowseStatesAt returns every state's whole-log aggregate as of an
	// epoch (0 = latest).
	BrowseStatesAt(epoch uint64) ([]StateOverview, error)
	// AppendRatings validates and applies one batch of new ratings,
	// returning the epoch it was accepted at (ErrIngestDisabled when the
	// write path is not armed).
	AppendRatings(ctx context.Context, ratings []model.Rating) (uint64, error)

	// TimeRange returns the dataset's [min, max] rating timestamps.
	TimeRange() (int64, int64)
	// Fingerprint identifies the served dataset at the current epoch; it
	// feeds the HTTP layer's ETags, so two miners over the same data must
	// agree on it.
	Fingerprint() uint64
	// FingerprintAt is the fingerprint of one epoch's view of the data,
	// the tag source for an epoch-pinned request.
	FingerprintAt(epoch uint64) uint64
	// Dataset returns the served dataset: its item catalog titles the
	// explain page, and its summary feeds /statsz and the boot log.
	Dataset() *Dataset
	// PlanStats snapshots the plan materialization tier's counters
	// (zero-valued when the tier is disabled).
	PlanStats() store.PlanStats
	// MineCount returns completed mining-pipeline executions.
	MineCount() uint64
	// IngestStats snapshots the live-append counters; ok is false when
	// the write path is not armed.
	IngestStats() (IngestStats, bool)
	// MemoryStats reports the bytes of the largest owners of memory.
	MemoryStats() MemoryStats
	// Close releases the miner's resources; idempotent.
	Close() error
}

// Compile-time check: the local engine serves the full Miner surface.
var _ Miner = (*Engine)(nil)
