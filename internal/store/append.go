package store

import (
	"fmt"
	"sort"

	"repro/internal/cube"
)

// Append applies one accepted ingest batch to the store at the given
// epoch, which must be exactly CurrentEpoch()+1 — the ingest layer
// serializes writers and assigns epochs, the store only enforces the
// sequence. The tuples must already be joined against the (immutable)
// catalog. Maintenance is incremental:
//
//   - the batch appends to the tuple log and each touched item's
//     time-sorted index list gains the new positions by sorted insert;
//   - a new epochMark freezes the log extent and carries the batch's
//     per-state aggregate delta for epoch-pinned browse reads;
//   - before the new epoch becomes visible (still under the write lock,
//     which orders before the s.epoch bump readers resolve "latest"
//     from), the plan cache seals exactly the live entries whose
//     resolved item set intersects the batch; untouched plans stay
//     warm. Sealing first is load-bearing: if readers could resolve the
//     new epoch while intersecting entries were still live, a stale
//     plan would satisfy lookups at the new epoch, and the new epoch's
//     reads would be served the stale version's cached results.
//
// The result cache is NOT flushed: the engine keys each mined result by
// the version of the plan it came from (the version's first epoch, see
// PlanCache.VersionAt). Results of plans this append leaves live keep
// answering latest-epoch reads; results of sealed plans keep answering
// reads pinned inside the sealed range, and latest-epoch reads of those
// queries miss onto the new version's key.
func (s *Store) Append(epoch uint64, tuples []cube.Tuple) error {
	if len(tuples) == 0 {
		return fmt.Errorf("store: empty append batch")
	}
	s.mu.Lock()
	if epoch != s.epoch+1 {
		cur := s.epoch
		s.mu.Unlock()
		return fmt.Errorf("store: append at epoch %d, want %d", epoch, cur+1)
	}
	base := len(s.tuples)
	s.tuples = append(s.tuples, tuples...)

	states := make([]cube.Agg, cube.Cardinality(cube.State))
	items := make(map[int]struct{}, len(tuples))
	for i := range tuples {
		t := &s.tuples[base+i]
		items[int(t.ItemID)] = struct{}{}
		s.insertItemIndexLocked(int(t.ItemID), int32(base+i), t.Unix)
		if base+i == 0 || t.Unix < s.minUnix {
			s.minUnix = t.Unix
		}
		if base+i == 0 || t.Unix > s.maxUnix {
			s.maxUnix = t.Unix
		}
		if st := t.Vals[cube.State]; st != cube.Wildcard {
			states[st].Add(t.Score)
		}
	}
	s.bounds = append(s.bounds, epochMark{
		tuples:  len(s.tuples),
		minUnix: s.minUnix,
		maxUnix: s.maxUnix,
		states:  states,
	})

	// Seal intersecting plan-cache entries BEFORE publishing the epoch:
	// readers resolve "latest" from s.epoch under the read lock, so no
	// read can see the new epoch until after Advance has sealed every
	// stale entry. Advance only takes the plan cache's own mutex and
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

// insertItemIndexLocked inserts a new tuple position into an item's
// time-sorted index list at the upper bound of its timestamp. New
// positions are larger than every existing one, so inserting at the
// upper bound preserves the (Unix, index) total order Join
// established — including within a batch, where later entries insert
// after earlier ones carrying the same timestamp.
func (s *Store) insertItemIndexLocked(itemID int, idx int32, unix int64) {
	idxs := s.itemTuples[itemID]
	at := sort.Search(len(idxs), func(i int) bool { return s.tuples[idxs[i]].Unix > unix })
	idxs = append(idxs, 0)
	copy(idxs[at+1:], idxs[at:])
	idxs[at] = idx
	s.itemTuples[itemID] = idxs
}
