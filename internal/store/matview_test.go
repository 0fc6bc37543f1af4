package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cube"
)

// fakePlan builds a plan of n zero-valued tuples — enough for budget and
// stats accounting, which only reads lengths.
func fakePlan(n int) *Plan {
	return &Plan{Tuples: make([]cube.Tuple, n)}
}

func TestPlanCacheHitMiss(t *testing.T) {
	pc := NewPlanCache(1000)
	ctx := context.Background()
	builds := 0
	build := func() (*Plan, error) { builds++; return fakePlan(10), nil }

	p1, hit, err := pc.GetOrBuild(ctx, "k", build)
	if err != nil || hit {
		t.Fatalf("first fetch: hit=%v err=%v", hit, err)
	}
	p2, hit, err := pc.GetOrBuild(ctx, "k", build)
	if err != nil || !hit {
		t.Fatalf("second fetch: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
		t.Error("hit returned a different plan instance")
	}
	if builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
	st := pc.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Builds != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Tuples != 10 || st.MaxTuples != 1000 {
		t.Errorf("budget accounting = %+v", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("bytes accounting = %d, want > 0", st.Bytes)
	}
}

// TestPlanCacheEvictionUnderTupleBudget verifies the tier is sized by
// tuple count, not entry count: inserting past the budget evicts the
// least recently used plan and keeps usage within bounds.
func TestPlanCacheEvictionUnderTupleBudget(t *testing.T) {
	pc := NewPlanCache(100)
	ctx := context.Background()
	mk := func(n int) func() (*Plan, error) {
		return func() (*Plan, error) { return fakePlan(n), nil }
	}
	for i := 0; i < 3; i++ {
		if _, _, err := pc.GetOrBuild(ctx, fmt.Sprintf("k%d", i), mk(40)); err != nil {
			t.Fatal(err)
		}
	}
	st := pc.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Tuples != 80 {
		t.Fatalf("after 3x40 under budget 100: %+v", st)
	}
	// k0 was evicted: fetching it again must rebuild.
	rebuilt := false
	if _, hit, err := pc.GetOrBuild(ctx, "k0", func() (*Plan, error) {
		rebuilt = true
		return fakePlan(40), nil
	}); err != nil || hit {
		t.Fatalf("evicted key: hit=%v err=%v", hit, err)
	}
	if !rebuilt {
		t.Error("evicted plan was not rebuilt")
	}
	// k1 is now the LRU entry and must have been evicted by k0's return.
	if _, hit, _ := pc.GetOrBuild(ctx, "k2", mk(40)); !hit {
		t.Error("recently used k2 should have survived")
	}
}

// TestPlanCacheOversizePlanNotCached: a plan alone exceeding the budget
// is served but never stored (storing it would wipe the whole tier).
func TestPlanCacheOversizePlanNotCached(t *testing.T) {
	pc := NewPlanCache(50)
	ctx := context.Background()
	builds := 0
	build := func() (*Plan, error) { builds++; return fakePlan(80), nil }
	for i := 0; i < 2; i++ {
		if _, _, err := pc.GetOrBuild(ctx, "big", build); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 2 {
		t.Errorf("oversize plan builds = %d, want 2 (never cached)", builds)
	}
	if st := pc.Stats(); st.Entries != 0 || st.Tuples != 0 {
		t.Errorf("oversize plan leaked into the cache: %+v", st)
	}
}

func TestPlanCacheBuildErrorNotCached(t *testing.T) {
	pc := NewPlanCache(100)
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := pc.GetOrBuild(ctx, "k", func() (*Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure is not cached; the next fetch builds and succeeds.
	p, hit, err := pc.GetOrBuild(ctx, "k", func() (*Plan, error) { return fakePlan(5), nil })
	if err != nil || hit || p == nil {
		t.Fatalf("after error: plan=%v hit=%v err=%v", p, hit, err)
	}
}

// TestPlanCacheConcurrentBuildOnce is the -race check for the
// singleflight front: a burst of identical fetches builds the plan once
// and hands every caller the same instance.
func TestPlanCacheConcurrentBuildOnce(t *testing.T) {
	pc := NewPlanCache(1000)
	var builds atomic.Int32
	build := func() (*Plan, error) {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return fakePlan(10), nil
	}

	const callers = 16
	var wg sync.WaitGroup
	plans := make([]*Plan, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i], _, errs[i] = pc.GetOrBuild(context.Background(), "k", build)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan instance", i)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("burst of %d built %d times, want 1", callers, n)
	}
	// One logical fetch counts exactly once: hits+misses == fetches, one
	// miss for the leader's build, the rest hits (shared or cached).
	st := pc.Stats()
	if st.Hits+st.Misses != callers {
		t.Errorf("hits %d + misses %d != %d fetches", st.Hits, st.Misses, callers)
	}
	if st.Misses != 1 || st.Builds != 1 {
		t.Errorf("burst accounting: %+v", st)
	}
}

// TestPlanCacheFollowerCancellation: a follower whose context dies while
// the leader builds stops waiting with the context error.
func TestPlanCacheFollowerCancellation(t *testing.T) {
	pc := NewPlanCache(1000)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go pc.GetOrBuild(context.Background(), "k", func() (*Plan, error) {
		close(leaderIn)
		<-release
		return fakePlan(1), nil
	})
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := pc.GetOrBuild(ctx, "k", func() (*Plan, error) { return fakePlan(1), nil })
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
}

func TestPlanCacheReset(t *testing.T) {
	pc := NewPlanCache(100)
	ctx := context.Background()
	pc.GetOrBuild(ctx, "k", func() (*Plan, error) { return fakePlan(10), nil })
	pc.Reset()
	if st := pc.Stats(); st.Entries != 0 || st.Tuples != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

func TestPlanSizeBytes(t *testing.T) {
	p := fakePlan(100)
	if got := p.SizeBytes(); got < 100*cube.TupleBytes {
		t.Errorf("SizeBytes = %d, want ≥ %d", got, 100*cube.TupleBytes)
	}
	withCube := &Plan{Tuples: p.Tuples, Cube: cube.Build(p.Tuples, cube.Config{MinSupport: 1})}
	if withCube.SizeBytes() < p.SizeBytes() {
		t.Error("cube-bearing plan should cost at least the bare tuples")
	}
}

// TestPlanMemoBounds pins the memo's resource bounds and counters: a
// held plan memoizes up to PlanMemoCap results and then stops, each
// stored entry grows the tier's byte accounting, hits and misses are
// counted, and a plan the tier does not hold memoizes nothing.
func TestPlanMemoBounds(t *testing.T) {
	pc := NewPlanCache(100)
	p, _, err := pc.GetOrBuild(context.Background(), "k", func() (*Plan, error) { return fakePlan(10), nil })
	if err != nil {
		t.Fatal(err)
	}
	bytes := pc.Stats().Bytes
	for i := 0; i < PlanMemoCap+8; i++ {
		key := fmt.Sprintf("op|%d", i)
		if _, ok := p.Memo(key); ok {
			t.Fatalf("%s: hit before any store", key)
		}
		p.SetMemo(key, i, 100)
		st := pc.Stats()
		if i < PlanMemoCap && st.Bytes <= bytes {
			t.Fatalf("entry %d: bytes %d did not grow from %d", i, st.Bytes, bytes)
		}
		if i >= PlanMemoCap && st.Bytes != bytes {
			t.Fatalf("entry %d past the cap: bytes %d moved from %d", i, st.Bytes, bytes)
		}
		bytes = st.Bytes
	}
	stored := 0
	for i := 0; i < PlanMemoCap+8; i++ {
		if v, ok := p.Memo(fmt.Sprintf("op|%d", i)); ok {
			if v != i {
				t.Fatalf("entry %d holds %v", i, v)
			}
			stored++
		}
	}
	if stored != PlanMemoCap {
		t.Fatalf("memo holds %d entries, want the cap %d", stored, PlanMemoCap)
	}
	st := pc.Stats()
	if st.MemoHits != PlanMemoCap || st.MemoMisses != 2*(PlanMemoCap+8)-PlanMemoCap {
		t.Fatalf("memo counters = %d hits / %d misses", st.MemoHits, st.MemoMisses)
	}

	// Over budget, so served uncached: no memo, no counting.
	big, _, err := pc.GetOrBuild(context.Background(), "big", func() (*Plan, error) { return fakePlan(1000), nil })
	if err != nil {
		t.Fatal(err)
	}
	big.SetMemo("op", 1, 100)
	if _, ok := big.Memo("op"); ok {
		t.Fatal("a plan the tier does not hold memoized a result")
	}
	if after := pc.Stats(); after.MemoHits != st.MemoHits || after.MemoMisses != st.MemoMisses {
		t.Fatalf("lookups on an unheld plan were counted: %+v", after)
	}

	pc.Reset()
	if st := pc.Stats(); st.MemoHits != 0 || st.MemoMisses != 0 {
		t.Fatalf("Reset left memo counters %d/%d", st.MemoHits, st.MemoMisses)
	}
}
