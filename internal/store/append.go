package store

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cube"
)

// Append applies one accepted ingest batch to the store at the given
// epoch, which must be exactly CurrentEpoch()+1 — the ingest layer
// serializes writers and assigns epochs, the store only enforces the
// sequence. The ratings were checked against the (immutable) catalog by
// JoinRating. Maintenance is incremental:
//
//   - the batch appends to the log's appended segment, never to the
//     dataset's ratings, so the base log is neither written nor copied;
//     each touched item's time-sorted run gains the new positions, with
//     their reviewers, by sorted insert;
//   - a new epochMark freezes the log extent and carries the batch's
//     per-state aggregate delta for epoch-pinned browse reads;
//   - before the new epoch becomes visible (still under the write lock,
//     which orders before the s.epoch bump readers resolve "latest"
//     from), the plan cache supersedes exactly the plans whose resolved
//     item set intersects the batch, each leaving only a seed for its
//     successor; untouched plans stay warm. Superseding first is
//     load-bearing: if readers could resolve the new epoch while
//     intersecting plans were still served, a stale plan would satisfy
//     lookups at the new epoch, and the new epoch's reads would be
//     served the stale plan's cached results.
//
// The result cache is NOT flushed: the engine keys each mined result by
// the build epoch of the plan it came from (see PlanCache.VersionAt).
// Results of plans this append leaves cached keep answering latest-epoch
// reads. Results of superseded plans stay in the LRU under their old
// key: a read pinned at the superseded plan's build epoch still finds
// them, and latest-epoch reads of those queries miss onto the successor
// plan's key.
func (s *Store) Append(epoch uint64, batch []Joined) error {
	if len(batch) == 0 {
		return fmt.Errorf("store: empty append batch")
	}
	s.mu.Lock()
	if epoch != s.epoch+1 {
		cur := s.epoch
		s.mu.Unlock()
		return fmt.Errorf("store: append at epoch %d, want %d", epoch, cur+1)
	}
	first := s.log.len()
	states := make([]cube.Agg, cube.Cardinality(cube.State))
	items := make(map[int]struct{}, len(batch))
	for i, b := range batch {
		p := first + i
		s.log.appended = append(s.log.appended, b.r)
		items[b.r.ItemID] = struct{}{}
		s.insertItemIndexLocked(b.r.ItemID, int32(p), b.user, b.r.Unix)
		if p == 0 || b.r.Unix < s.minUnix {
			s.minUnix = b.r.Unix
		}
		if p == 0 || b.r.Unix > s.maxUnix {
			s.maxUnix = b.r.Unix
		}
		if st := s.log.vals[b.user][cube.State]; st != cube.Wildcard {
			states[st].Add(b.r.Score)
		}
	}
	s.bounds = append(s.bounds, epochMark{
		tuples:  s.log.len(),
		minUnix: s.minUnix,
		maxUnix: s.maxUnix,
		states:  states,
	})

	// Supersede intersecting plans BEFORE publishing the epoch: readers
	// resolve "latest" from s.epoch under the read lock, so no read can
	// see the new epoch until after Advance has superseded every stale
	// plan. Advance only takes the plan cache's own mutex and
	// plan builds never run under it, so holding s.mu here is safe.
	if s.plans != nil {
		ids := make([]int, 0, len(items))
		for id := range items {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		s.plans.Advance(epoch, ids)
	}
	s.epoch = epoch
	s.mu.Unlock()
	return nil
}

// insertItemIndexLocked inserts a new log position, with its reviewer's
// position, into an item's time-sorted run at the upper bound of its
// timestamp. New positions are larger than every existing one, so
// inserting at the upper bound preserves the (Unix, index) total order
// Join established — including within a batch, where later entries
// insert after earlier ones carrying the same timestamp. The rating at
// p must already be in the log.
func (s *Store) insertItemIndexLocked(itemID int, p, user int32, unix int64) {
	run := s.items[itemID]
	at := sort.Search(len(run.pos), func(i int) bool { return s.log.ratingAt(run.pos[i]).Unix > unix })
	run.pos = slices.Insert(run.pos, at, p)
	run.users = slices.Insert(run.users, at, user)
	s.items[itemID] = run
}
