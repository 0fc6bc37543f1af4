package store

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cube"
	"repro/internal/model"
)

// appendBatch joins n synthetic ratings for an existing (user, item) pair
// at timestamps just past the log's current maximum, so the batch
// visibly extends the time range.
func appendBatch(t *testing.T, s *Store, n int) []Joined {
	t.Helper()
	r0 := s.Dataset().Ratings[0]
	_, maxUnix := s.TimeRange()
	out := make([]Joined, n)
	for i := range out {
		var err error
		out[i], err = s.JoinRating(model.Rating{UserID: r0.UserID, ItemID: r0.ItemID, Score: 5, Unix: maxUnix + int64(i+1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestAppendAdvancesEpochAndWatermark(t *testing.T) {
	s := openStore(t, DefaultOptions())
	base := s.NumTuples()
	_, baseMax := s.TimeRange()
	itemID := s.Dataset().Ratings[0].ItemID
	pinnedCount := len(s.TuplesForItemsAt([]int{itemID}, TimeWindow{}, 1))

	batch := appendBatch(t, s, 3)
	if err := s.Append(2, batch); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := s.CurrentEpoch(); got != 2 {
		t.Fatalf("epoch = %d, want 2", got)
	}
	if got := s.NumTuples(); got != base+3 {
		t.Fatalf("NumTuples = %d, want %d", got, base+3)
	}

	// The pinned time range is frozen; the latest range extends.
	if _, hi := s.TimeRangeAt(1); hi != baseMax {
		t.Fatalf("TimeRangeAt(1) hi = %d, want frozen %d", hi, baseMax)
	}
	if _, hi := s.TimeRangeAt(0); hi != baseMax+3 {
		t.Fatalf("TimeRangeAt(0) hi = %d, want %d", hi, baseMax+3)
	}

	// Epoch-pinned gathers filter at the watermark; latest sees the batch.
	if got := len(s.TuplesForItemsAt([]int{itemID}, TimeWindow{}, 1)); got != pinnedCount {
		t.Fatalf("pinned gather = %d tuples, want %d", got, pinnedCount)
	}
	if got := len(s.TuplesForItemsAt([]int{itemID}, TimeWindow{}, 0)); got != pinnedCount+3 {
		t.Fatalf("latest gather = %d tuples, want %d", got, pinnedCount+3)
	}
}

func TestAppendEnforcesEpochSequence(t *testing.T) {
	s := openStore(t, DefaultOptions())
	batch := appendBatch(t, s, 1)
	if err := s.Append(3, batch); err == nil {
		t.Fatal("epoch gap accepted")
	}
	if err := s.Append(1, batch); err == nil {
		t.Fatal("stale epoch accepted")
	}
	if err := s.Append(2, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := s.Append(2, batch); err != nil {
		t.Fatalf("in-sequence append rejected: %v", err)
	}
}

// TestAppendStateAggsDelta: the browse aggregates fold per-epoch deltas —
// pinned reads are frozen, the latest read gains exactly the batch.
func TestAppendStateAggsDelta(t *testing.T) {
	s := openStore(t, DefaultOptions())
	before := s.StateAggsAt(0)
	batch := appendBatch(t, s, 4)
	st := cube.UserVals(s.Dataset().UserByID(int(batch[0].r.UserID)))[cube.State]
	if st == cube.Wildcard {
		t.Fatal("fixture batch has no state; pick a geocoded reviewer")
	}
	if err := s.Append(2, batch); err != nil {
		t.Fatal(err)
	}
	pinned := s.StateAggsAt(1)
	latest := s.StateAggsAt(0)
	for i := range before {
		if pinned[i] != before[i] {
			t.Fatalf("state %d pinned agg changed: %+v -> %+v", i, before[i], pinned[i])
		}
		want := before[i]
		if int16(i) == st {
			for range batch {
				want.Add(5)
			}
		}
		if latest[i] != want {
			t.Fatalf("state %d latest agg = %+v, want %+v", i, latest[i], want)
		}
	}
}

// TestPlanCacheAdvanceSurgical pins the invalidation contract: an append
// supersedes exactly the plans whose item set intersects the batch,
// each leaving a seed charged at its plan's cost, and counts the split;
// a fetch at the superseded epoch builds without the seed and leaves
// the tier as it was, and the latest-epoch fetch is handed the seed and
// replaces it.
func TestPlanCacheAdvanceSurgical(t *testing.T) {
	pc := NewPlanCache(1000)
	ctx := context.Background()
	builds := 0
	var seeds []*Seed
	mk := func(items ...int) func(*Seed) (*Plan, error) {
		return func(seed *Seed) (*Plan, error) {
			builds++
			seeds = append(seeds, seed)
			return &Plan{ItemIDs: items, Tuples: make([]cube.Tuple, 10)}, nil
		}
	}
	for _, k := range []struct {
		key   string
		items []int
	}{{"toy", []int{1, 2}}, {"heat", []int{5, 6}}} {
		if _, err := pc.GetOrBuildAt(ctx, k.key, 1, mk(k.items...)); err != nil {
			t.Fatal(err)
		}
	}

	pc.Advance(2, []int{2, 3}) // batch touches item 2: drops "toy" only
	st := pc.Stats()
	if st.Invalidated != 1 || st.Surviving != 1 {
		t.Fatalf("split = invalidated %d / surviving %d, want 1/1", st.Invalidated, st.Surviving)
	}
	if st.Entries != 1 || st.Seeds != 1 || st.Tuples != 20 {
		t.Fatalf("after the append: entries %d, seeds %d, tuples %d, want 1/1/20", st.Entries, st.Seeds, st.Tuples)
	}

	// The untouched plan stays warm at the new epoch.
	if _, err := pc.GetOrBuildAt(ctx, "heat", 2, mk(5, 6)); err != nil || builds != 2 {
		t.Fatalf("disjoint plan was not warm after the append: builds %d, err %v", builds, err)
	}
	// A read pinned at the superseded epoch builds, and is not cached.
	if _, err := pc.GetOrBuildAt(ctx, "toy", 1, mk(1, 2)); err != nil || builds != 3 {
		t.Fatalf("pinned fetch of a dropped plan: builds %d, err %v", builds, err)
	}
	if st := pc.Stats(); st.Entries != 1 || st.Seeds != 1 || seeds[2] != nil {
		t.Fatalf("pinned fetch of a superseded epoch was cached or seeded: entries %d, seeds %d, seed %v", st.Entries, st.Seeds, seeds[2])
	}
	// A latest-epoch fetch rebuilds from toy@1's seed and caches.
	if _, err := pc.GetOrBuildAt(ctx, "toy", 2, mk(1, 2)); err != nil || builds != 4 {
		t.Fatalf("intersecting plan served stale: builds %d, err %v", builds, err)
	}
	if sd := seeds[3]; sd == nil || sd.Epoch != 1 || len(sd.Unix) != 10 {
		t.Fatalf("latest-epoch rebuild was handed seed %+v, want toy@1's 10 tuples", sd)
	}
	if st := pc.Stats(); st.Entries != 2 || st.Seeds != 0 || st.Tuples != 20 || st.Extended != 1 {
		t.Fatalf("entries %d, seeds %d, tuples %d, extended %d, want 2/0/20/1 (toy@2 + heat)", st.Entries, st.Seeds, st.Tuples, st.Extended)
	}
	// A disjoint append leaves both entries in place and counts them.
	pc.Advance(3, []int{99})
	st = pc.Stats()
	if st.Invalidated != 1 || st.Surviving != 3 || st.Entries != 2 {
		t.Fatalf("after disjoint append: invalidated %d / surviving %d / entries %d, want 1/3/2", st.Invalidated, st.Surviving, st.Entries)
	}
}

// TestPlanCacheOneEntryPerKey: a key that intersecting appends keep
// superseding is held once, however many times it is rebuilt.
func TestPlanCacheOneEntryPerKey(t *testing.T) {
	pc := NewPlanCache(1000)
	build := func(*Seed) (*Plan, error) { return &Plan{ItemIDs: []int{1}, Tuples: make([]cube.Tuple, 10)}, nil }
	if _, err := pc.GetOrBuildAt(context.Background(), "toy", 1, build); err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(2); epoch <= 4; epoch++ {
		pc.Advance(epoch, []int{1})
		if _, err := pc.GetOrBuildAt(context.Background(), "toy", epoch, build); err != nil {
			t.Fatal(err)
		}
	}
	if st := pc.Stats(); st.Entries != 1 || st.Tuples != 10 || st.Builds != 4 {
		t.Fatalf("after three intersecting appends: entries %d, tuples %d, builds %d, want 1/10/4", st.Entries, st.Tuples, st.Builds)
	}
}

// TestPlanCacheVersionAt pins the version lookup the engine keys mined
// results by: it names the first epoch of the version covering the
// requested epoch, follows Advance's drops, never builds or counts,
// and marks the version most recently used.
func TestPlanCacheVersionAt(t *testing.T) {
	pc := NewPlanCache(25)
	ctx := context.Background()
	mk := func(items ...int) func(*Seed) (*Plan, error) {
		return func(*Seed) (*Plan, error) {
			return &Plan{ItemIDs: items, Tuples: make([]cube.Tuple, 10)}, nil
		}
	}
	version := func(key string, epoch uint64) string {
		lo, ok := pc.VersionAt(key, epoch)
		return fmt.Sprintf("%d/%v", lo, ok)
	}
	if got := version("toy", 1); got != "0/false" {
		t.Fatalf("uncached key: version %s", got)
	}
	for _, k := range []struct {
		key   string
		items []int
	}{{"toy", []int{1, 2}}, {"heat", []int{5, 6}}} {
		if _, err := pc.GetOrBuildAt(ctx, k.key, 1, mk(k.items...)); err != nil {
			t.Fatal(err)
		}
	}
	pc.Advance(2, []int{2}) // drops toy@1; heat stays, valid from 1
	if got := version("toy", 1); got != "0/false" {
		t.Fatalf("dropped entry still names a version: VersionAt(toy, 1) = %s", got)
	}
	if _, err := pc.GetOrBuildAt(ctx, "toy", 2, mk(1, 2)); err != nil {
		t.Fatal(err)
	}
	// toy@2 is valid from epoch 2 on, so a read pinned at 1 has no
	// version; heat's build at 1 covers both epochs.
	for _, c := range []struct {
		key   string
		epoch uint64
		want  string
	}{
		{"heat", 1, "1/true"}, {"heat", 2, "1/true"},
		{"toy", 1, "0/false"}, {"toy", 2, "2/true"},
	} {
		if got := version(c.key, c.epoch); got != c.want {
			t.Errorf("VersionAt(%s, %d) = %s, want %s", c.key, c.epoch, got, c.want)
		}
	}
	before := pc.Stats()
	// VersionAt(toy, 2) above ran last, so heat is now the eviction
	// victim; touch heat again and a new plan must evict toy instead.
	if got := version("heat", 2); got != "1/true" {
		t.Fatalf("VersionAt(heat, 2) = %s", got)
	}
	if st := pc.Stats(); st.Hits != before.Hits || st.Misses != before.Misses || st.Builds != before.Builds {
		t.Fatalf("VersionAt moved the fetch counters: %+v -> %+v", before, st)
	}
	// Budget 25 holds two 10-tuple plans, so a third evicts one.
	if _, err := pc.GetOrBuildAt(ctx, "jaws", 2, mk(9)); err != nil {
		t.Fatal(err)
	}
	if got := version("heat", 2); got != "1/true" {
		t.Errorf("recently looked-up version was evicted: VersionAt(heat, 2) = %s", got)
	}
	if got := version("toy", 2); got != "0/false" {
		t.Errorf("least recently used version survived: VersionAt(toy, 2) = %s", got)
	}
}

// TestPlanCachePutSkipsStaleBuild: a plan whose build started before an
// append lands is served to its caller but not cached, so it never
// serves an epoch it did not see.
func TestPlanCachePutSkipsStaleBuild(t *testing.T) {
	pc := NewPlanCache(1000)
	ctx := context.Background()
	started := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan struct{})
	stale := &Plan{ItemIDs: []int{1}, Tuples: make([]cube.Tuple, 5)}
	var got *Plan
	go func() {
		defer close(done)
		got, _ = pc.GetOrBuildAt(ctx, "k", 1, func(*Seed) (*Plan, error) {
			close(started)
			<-proceed
			return stale, nil
		})
	}()
	<-started
	pc.Advance(2, []int{1}) // append lands mid-build
	close(proceed)
	<-done

	if got != stale {
		t.Fatal("overtaken build was not served to its caller")
	}
	if st := pc.Stats(); st.Entries != 0 || st.Tuples != 0 {
		t.Fatalf("overtaken build was cached: %+v", st)
	}
	rebuilt := false
	pc.GetOrBuildAt(ctx, "k", 2, func(*Seed) (*Plan, error) {
		rebuilt = true
		return &Plan{ItemIDs: []int{1}, Tuples: make([]cube.Tuple, 5)}, nil
	})
	if !rebuilt {
		t.Fatal("epoch-2 fetch served a plan built against the epoch-1 watermark")
	}
}
