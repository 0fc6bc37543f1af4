package maprat

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/store"
)

// Errors reported by the live-append path.
var (
	// ErrIngestDisabled reports an append against an engine whose write
	// path was never armed with EnableIngest; the HTTP layer maps it to
	// 503 — the deployment may simply route writes elsewhere.
	ErrIngestDisabled = errors.New("maprat: ingestion not enabled")
	// ErrFutureEpoch reports a read pinned beyond the current epoch — a
	// client asking for data that does not exist yet (400, not 404: the
	// epoch is part of the request, not a resource).
	ErrFutureEpoch = errors.New("maprat: epoch not reached yet")
	// ErrBadRating reports an append batch that failed validation
	// (unknown user or item, score outside [1,5], missing timestamp).
	ErrBadRating = errors.New("maprat: invalid rating")
)

// ingestState is the engine's armed write path: the durable WAL, a
// channel-based writer admission (one batch applies at a time; file I/O
// must not run under a mutex), and monitoring counters.
type ingestState struct {
	wal *ingest.WAL
	// sem admits one writer; acquisition is ctx-aware so a canceled
	// request never queues a batch.
	sem chan struct{}

	batches      atomic.Uint64
	tuples       atomic.Uint64
	applyTotalNS atomic.Int64
	applyLastNS  atomic.Int64
}

// EnableIngest arms the engine's live-append path with a write-ahead log
// at path, creating the file if needed and replaying any batches a
// previous process logged — the store lands on exactly the pre-crash
// epoch, which is returned. Call it once, after Open/OpenSnapshot and
// before serving; it is not safe to race with requests.
func (e *Engine) EnableIngest(path string) (uint64, error) {
	if e.ingest != nil {
		return 0, fmt.Errorf("maprat: ingest already enabled")
	}
	base := e.st.CurrentEpoch()
	wal, batches, err := ingest.Open(path, base)
	if err != nil {
		return 0, err
	}
	var replayed uint64
	for _, b := range batches {
		batch, err := e.joinBatch(b.Ratings)
		if err != nil {
			_ = wal.Close()
			return 0, fmt.Errorf("maprat: wal replay epoch %d: %w", b.Epoch, err)
		}
		if err := e.st.Append(b.Epoch, batch); err != nil {
			_ = wal.Close()
			return 0, fmt.Errorf("maprat: wal replay epoch %d: %w", b.Epoch, err)
		}
		replayed += uint64(len(b.Ratings))
	}
	ig := &ingestState{wal: wal, sem: make(chan struct{}, 1)}
	ig.batches.Store(uint64(len(batches)))
	ig.tuples.Store(replayed)
	e.ingest = ig
	return e.st.CurrentEpoch(), nil
}

// AppendRatings validates and applies one batch of new ratings,
// returning the epoch the batch was accepted at. The batch is durable
// (WAL-fsynced) before the method returns; reads at the returned epoch —
// or later — observe it, while reads pinned to earlier epochs never do.
// Writers are admitted one at a time; ctx bounds the wait. The batch is
// all-or-nothing: any invalid rating rejects the whole batch before
// anything is logged.
//
// Every rating must reference an existing user and item, carry a score
// in [1,5], and carry its own timestamp (Unix > 0, no later than the end
// of model.MaxYear) — the server never stamps time, so replaying the WAL
// is deterministic.
func (e *Engine) AppendRatings(ctx context.Context, ratings []model.Rating) (uint64, error) {
	ig := e.ingest
	if ig == nil {
		return 0, ErrIngestDisabled
	}
	if len(ratings) == 0 {
		return 0, fmt.Errorf("%w: empty batch", ErrBadRating)
	}
	batch, err := e.joinBatch(ratings)
	if err != nil {
		return 0, err
	}
	select {
	case ig.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	defer func() { <-ig.sem }()
	start := time.Now()
	epoch := e.st.CurrentEpoch() + 1
	if err := ig.wal.Append(epoch, ratings); err != nil {
		return 0, err
	}
	if err := e.st.Append(epoch, batch); err != nil {
		// Unreachable under the writer admission (the WAL record will be
		// replayed on restart); surfaced for completeness.
		return 0, err
	}
	ig.batches.Add(1)
	ig.tuples.Add(uint64(len(ratings)))
	ns := time.Since(start).Nanoseconds()
	ig.applyTotalNS.Add(ns)
	ig.applyLastNS.Store(ns)
	return epoch, nil
}

// joinBatch validates a batch against the (immutable) catalog and
// resolves each rating's reviewer through Store.JoinRating, the Joiner
// store.Join runs over the base log.
// Appends and WAL replay both pass through it, so a record it rejects
// fails replay as it failed the append. The one rule of its own is the
// timestamp: the server never stamps time, so an appended rating must
// carry one (Unix > 0).
func (e *Engine) joinBatch(ratings []model.Rating) ([]store.Joined, error) {
	out := make([]store.Joined, len(ratings))
	for i, r := range ratings {
		if r.Unix <= 0 {
			return nil, fmt.Errorf("%w: rating %d: missing timestamp", ErrBadRating, i)
		}
		j, err := e.st.JoinRating(r)
		if err != nil {
			return nil, fmt.Errorf("%w: rating %d: %v", ErrBadRating, i, err)
		}
		out[i] = j
	}
	return out, nil
}

// CurrentEpoch returns the engine's data version: 1 for the base log,
// +1 per accepted append batch.
func (e *Engine) CurrentEpoch() uint64 { return e.st.CurrentEpoch() }

// resolveEpoch normalizes a requested epoch: 0 means latest, a pinned
// epoch must not lie in the future.
func (e *Engine) resolveEpoch(epoch uint64) (uint64, error) {
	cur := e.st.CurrentEpoch()
	if epoch == 0 || epoch == cur {
		return cur, nil
	}
	if epoch > cur {
		return 0, fmt.Errorf("%w: epoch %d requested, current is %d", ErrFutureEpoch, epoch, cur)
	}
	return epoch, nil
}

// pinQuery resolves a query's epoch before execution, so every pipeline
// below works with a concrete epoch: cache keys, cached plans and
// tuple gathers all agree on the view of the data, and a latest-epoch
// request and a request pinned at the current epoch share cache entries.
func (e *Engine) pinQuery(q Query) (Query, error) {
	ep, err := e.resolveEpoch(q.Epoch)
	if err != nil {
		return query.Query{}, err
	}
	q.Epoch = ep
	return q, nil
}

// IngestStats is the /statsz ingest section: the epoch clock, batch and
// tuple counters, WAL size, the plan-cache invalidation split proving
// appends are surgical, and apply latency. ok is false when the write
// path is not enabled.
type IngestStats struct {
	Epoch    uint64 `json:"epoch"`
	Batches  uint64 `json:"batches"`
	Tuples   uint64 `json:"tuples"`
	WALBytes int64  `json:"wal_bytes"`
	// PlansInvalidated / PlansSurviving split the plans held at each
	// append into superseded (item set intersected the batch) vs
	// still-warm.
	PlansInvalidated uint64  `json:"plans_invalidated"`
	PlansSurviving   uint64  `json:"plans_surviving"`
	ApplyTotalMS     float64 `json:"apply_total_ms"`
	ApplyLastMS      float64 `json:"apply_last_ms"`
}

// IngestStats returns the live-append monitoring snapshot; ok is false
// when EnableIngest was never called.
func (e *Engine) IngestStats() (IngestStats, bool) {
	ig := e.ingest
	if ig == nil {
		return IngestStats{}, false
	}
	ps := e.PlanStats()
	return IngestStats{
		Epoch:            e.st.CurrentEpoch(),
		Batches:          ig.batches.Load(),
		Tuples:           ig.tuples.Load(),
		WALBytes:         ig.wal.Size(),
		PlansInvalidated: ps.Invalidated,
		PlansSurviving:   ps.Surviving,
		ApplyTotalMS:     float64(ig.applyTotalNS.Load()) / 1e6,
		ApplyLastMS:      float64(ig.applyLastNS.Load()) / 1e6,
	}, true
}
