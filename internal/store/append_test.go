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
func appendBatch(t *testing.T, s *Store, n int) []cube.Tuple {
	t.Helper()
	ds := s.Dataset()
	r0 := ds.Ratings[0]
	u := ds.UserByID(r0.UserID)
	if u == nil {
		t.Fatal("fixture rating references unknown user")
	}
	_, maxUnix := s.TimeRange()
	out := make([]cube.Tuple, n)
	for i := range out {
		r := model.Rating{UserID: r0.UserID, ItemID: r0.ItemID, Score: 5, Unix: maxUnix + int64(i+1)}
		out[i] = cube.JoinRating(r, u)
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
	st := batch[0].Vals[cube.State]
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
// seals exactly the live entries whose item set intersects the batch,
// counts the split, and sealed versions keep serving their epoch range.
func TestPlanCacheAdvanceSurgical(t *testing.T) {
	pc := NewPlanCache(1000)
	ctx := context.Background()
	mk := func(items ...int) func() (*Plan, error) {
		return func() (*Plan, error) {
			return &Plan{ItemIDs: items, Tuples: make([]cube.Tuple, 10)}, nil
		}
	}
	if _, _, err := pc.GetOrBuildAt(ctx, "toy", 1, mk(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pc.GetOrBuildAt(ctx, "heat", 1, mk(5, 6)); err != nil {
		t.Fatal(err)
	}

	pc.Advance(2, []int{2, 3}) // batch touches item 2: seals "toy" only
	st := pc.Stats()
	if st.Invalidated != 1 || st.Surviving != 1 {
		t.Fatalf("split = invalidated %d / surviving %d, want 1/1", st.Invalidated, st.Surviving)
	}

	// The untouched plan stays warm at the new epoch.
	if _, hit, _ := pc.GetOrBuildAt(ctx, "heat", 2, mk(5, 6)); !hit {
		t.Fatal("disjoint plan was not warm after the append")
	}
	// The sealed version still serves reads pinned at its range...
	if _, hit, _ := pc.GetOrBuildAt(ctx, "toy", 1, mk(1, 2)); !hit {
		t.Fatal("sealed version no longer serves its pinned epoch")
	}
	// ...but a latest-epoch fetch rebuilds.
	rebuilt := false
	if _, hit, _ := pc.GetOrBuildAt(ctx, "toy", 2, func() (*Plan, error) {
		rebuilt = true
		return &Plan{ItemIDs: []int{1, 2}, Tuples: make([]cube.Tuple, 10)}, nil
	}); hit || !rebuilt {
		t.Fatalf("intersecting plan served stale: hit=%v rebuilt=%v", hit, rebuilt)
	}

	// Both versions of "toy" coexist under one key; a second disjoint
	// append leaves all three live-or-sealed entries in place and counts
	// the two live ones as surviving.
	if pc.Len() != 3 {
		t.Fatalf("entries = %d, want 3 (two toy versions + heat)", pc.Len())
	}
	pc.Advance(3, []int{99})
	st = pc.Stats()
	if st.Invalidated != 1 || st.Surviving != 3 {
		t.Fatalf("after disjoint append: invalidated %d / surviving %d, want 1/3", st.Invalidated, st.Surviving)
	}
}

// TestPlanCacheVersionAt pins the version lookup the engine keys mined
// results by: it names the first epoch of the version covering the
// requested epoch, follows Advance's sealing, never builds or counts,
// and marks the version most recently used.
func TestPlanCacheVersionAt(t *testing.T) {
	pc := NewPlanCache(25)
	ctx := context.Background()
	mk := func(items ...int) func() (*Plan, error) {
		return func() (*Plan, error) {
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
		if _, _, err := pc.GetOrBuildAt(ctx, k.key, 1, mk(k.items...)); err != nil {
			t.Fatal(err)
		}
	}
	pc.Advance(2, []int{2}) // seals toy at [1, 1]; heat stays live from 1
	if got := version("toy", 2); got != "0/false" {
		t.Fatalf("sealed version serves a later epoch: VersionAt(toy, 2) = %s", got)
	}
	if _, _, err := pc.GetOrBuildAt(ctx, "toy", 2, mk(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Budget 25 holds two 10-tuple plans: the epoch-2 toy build evicted
	// the least recently used version, sealed toy@1.
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
	if _, _, err := pc.GetOrBuildAt(ctx, "jaws", 2, mk(9)); err != nil {
		t.Fatal(err)
	}
	if got := version("heat", 2); got != "1/true" {
		t.Errorf("recently looked-up version was evicted: VersionAt(heat, 2) = %s", got)
	}
	if got := version("toy", 2); got != "0/false" {
		t.Errorf("least recently used version survived: VersionAt(toy, 2) = %s", got)
	}
}

// TestPlanCachePutSealsStaleBuild: a plan whose build started before an
// append lands is stored sealed to its build epoch, never serving later
// epochs it did not see.
func TestPlanCachePutSealsStaleBuild(t *testing.T) {
	pc := NewPlanCache(1000)
	ctx := context.Background()
	started := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		pc.GetOrBuildAt(ctx, "k", 1, func() (*Plan, error) {
			close(started)
			<-proceed
			return &Plan{ItemIDs: []int{1}, Tuples: make([]cube.Tuple, 5)}, nil
		})
	}()
	<-started
	pc.Advance(2, []int{1}) // append lands mid-build
	close(proceed)
	<-done

	// The stale build serves its own epoch but not the new one.
	if _, hit, _ := pc.GetOrBuildAt(ctx, "k", 1, func() (*Plan, error) {
		t.Fatal("epoch-1 fetch rebuilt over the sealed entry")
		return nil, nil
	}); !hit {
		t.Fatal("sealed stale build does not serve its own epoch")
	}
	rebuilt := false
	pc.GetOrBuildAt(ctx, "k", 2, func() (*Plan, error) {
		rebuilt = true
		return &Plan{ItemIDs: []int{1}, Tuples: make([]cube.Tuple, 5)}, nil
	})
	if !rebuilt {
		t.Fatal("epoch-2 fetch served a plan built against the epoch-1 watermark")
	}
}
