package maprat

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
)

// oracleQueries are the queries the differential test reads and appends
// to: single movies, actors spanning several movies, and a genre query
// restricted to the newest quarter of the log (the window admits the
// appended ratings, which land past the log's maximum).
func oracleQueries(t *testing.T, e *Engine) []Query {
	t.Helper()
	var qs []Query
	for _, s := range []string{
		`movie:"Toy Story"`, `movie:"Heat"`, `movie:"Jaws"`,
		`actor:"Tom Hanks"`, `actor:"Elijah Wood"`,
	} {
		qs = append(qs, mustQuery(t, e, s))
	}
	lo, hi := e.TimeRange()
	genre := mustQuery(t, e, `genre:Comedy`)
	genre.Window = store.Since(hi - (hi-lo)/4)
	return append(qs, genre)
}

// oracleRead runs one explain through the caches and the same request
// with every cache disabled, and fails unless the two answers agree in
// every field but FromCache and Elapsed. Callers hold the epoch still
// between the two reads, so an unpinned request resolves to the same
// epoch both times.
func oracleRead(t *testing.T, e *Engine, q Query) (*Explanation, []byte) {
	t.Helper()
	got, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatalf("explain %s @%d: %v", q, q.Epoch, err)
	}
	want, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q, DisableCache: true})
	if err != nil {
		t.Fatalf("uncached explain %s @%d: %v", q, q.Epoch, err)
	}
	gotJSON := explainJSON(t, got)
	if !bytes.Equal(gotJSON, explainJSON(t, want)) {
		t.Fatalf("%s pinned at %d (current %d, from cache %v): cached answer differs from the uncached oracle",
			q, q.Epoch, e.CurrentEpoch(), got.FromCache)
	}
	return got, gotJSON
}

// opAnswer renders one group, refine or drill answer — or its error —
// for byte-level comparison.
func opAnswer(t *testing.T, v any, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal answer: %v", err)
	}
	return string(b)
}

// oracleOps runs a group, a refine and a drill on key with randomly
// drawn arguments — each read twice, so the second read can hit the
// plan's memo — through the memoizing engine e and through ref, an
// engine opened with the result cache off at the same epoch, and fails
// unless every answer agrees.
func oracleOps(t *testing.T, e, ref *Engine, q Query, key Key, rnd *rand.Rand) {
	t.Helper()
	ctx := t.Context()
	buckets, limit := 4*rnd.Intn(2), 3-4*rnd.Intn(2)
	refineLimit := 2 * rnd.Intn(2)
	task := []Task{SimilarityMining, DiversityMining}[rnd.Intn(2)]
	s := DefaultSettings()
	s.Seed = 1 + rnd.Int63n(2)
	ops := []struct {
		name string
		run  func(*Engine) string
	}{
		{fmt.Sprintf("group b=%d l=%d", buckets, limit), func(m *Engine) string {
			ge, err := m.ExploreFullContext(ctx, q, key, buckets, limit)
			return opAnswer(t, ge, err)
		}},
		{fmt.Sprintf("refine l=%d", refineLimit), func(m *Engine) string {
			refs, err := m.RefineGroupContext(ctx, q, key, refineLimit)
			return opAnswer(t, refs, err)
		}},
		{fmt.Sprintf("drill %v seed=%d", task, s.Seed), func(m *Engine) string {
			tr, err := m.DrillMineContext(ctx, q, key, task, s)
			return opAnswer(t, tr, err)
		}},
	}
	for _, op := range ops {
		want := op.run(ref)
		for i := 0; i < 2; i++ {
			if got := op.run(e); got != want {
				t.Fatalf("%s %s on %v pinned at %d (current %d), read %d: memoized answer differs from the cache-off engine\n got %s\nwant %s",
					op.name, q, key, q.Epoch, e.CurrentEpoch(), i, got, want)
			}
		}
	}
}

// TestCachedAnswersMatchUncachedOracle is a seeded differential test of
// the (query, seed, epoch) contract across the result cache, the plan
// tier and the plans' result memos: a sequence of appends, each touching
// the items of a random subset of the queries, interleaved with latest
// and randomly pinned explains, groups, refines and drills and one
// evolution sweep. Every explain must equal the same request mined with
// every cache disabled, every other op the same request on an engine
// opened with CacheSize 0 and fed the same appends, and a fresh engine
// replaying a copy of the WAL must serve the same explains.
func TestCachedAnswersMatchUncachedOracle(t *testing.T) {
	ds := ingestDataset(t)
	wal := filepath.Join(t.TempDir(), "oracle.wal")
	e, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(wal); err != nil {
		t.Fatal(err)
	}
	refOpts := DefaultOptions()
	refOpts.Store.CacheSize = 0
	ref, err := Open(ds, &refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.EnableIngest(filepath.Join(t.TempDir(), "ref.wal")); err != nil {
		t.Fatal(err)
	}
	queries := oracleQueries(t, e)
	items := make([][]int, len(queries))
	keys := make([]Key, len(queries))
	for i, q := range queries {
		ex, _ := oracleRead(t, e, q)
		items[i] = ex.ItemIDs
		keys[i] = ex.Result(SimilarityMining).Groups[0].Key
	}

	rnd := rand.New(rand.NewSource(1))
	const steps = 20
	hits := 0
	for step := 0; step < steps; step++ {
		// Append two ratings to random items of each query in a random
		// subset (each query joins with probability 1/3).
		_, maxUnix := e.TimeRange()
		var batch []model.Rating
		for qi := range queries {
			if rnd.Intn(3) != 0 {
				continue
			}
			ids := items[qi]
			for n := 0; n < 2; n++ {
				batch = append(batch, model.Rating{
					UserID: ds.Users[rnd.Intn(len(ds.Users))].ID,
					ItemID: ids[rnd.Intn(len(ids))],
					Score:  1 + rnd.Intn(5),
					Unix:   maxUnix + int64(len(batch)+1),
				})
			}
		}
		if len(batch) > 0 {
			for _, m := range []*Engine{e, ref} {
				if _, err := m.AppendRatings(context.Background(), batch); err != nil {
					t.Fatalf("append %d: %v", step, err)
				}
			}
		}
		// Latest and pinned reads, each query possibly read twice so
		// repeats within an epoch hit too.
		for r := 0; r < 3; r++ {
			qi := rnd.Intn(len(queries))
			q := queries[qi]
			if rnd.Intn(2) == 0 {
				q.Epoch = 1 + uint64(rnd.Int63n(int64(e.CurrentEpoch())))
			}
			if ex, _ := oracleRead(t, e, q); ex.FromCache {
				hits++
			}
			oracleOps(t, e, ref, q, keys[qi], rnd)
		}
		if step == steps/2 {
			q := queries[0]
			got, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("evolution: %d windows cached, %d uncached", len(got), len(want))
			}
			for i := range got {
				if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Window != want[i].Window {
					t.Fatalf("evolution window %d: %v/%v vs %v/%v", i, got[i].Window, got[i].Err, want[i].Window, want[i].Err)
				}
				if got[i].Err == nil && !bytes.Equal(explainJSON(t, got[i].Explanation), explainJSON(t, want[i].Explanation)) {
					t.Fatalf("evolution window %v: cached answer differs from the uncached oracle", got[i].Window)
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no read hit the result cache; the test does not exercise it")
	}
	if st := e.PlanStats(); st.MemoHits == 0 || st.MemoMisses == 0 {
		t.Fatalf("memo hits %d, misses %d: the test does not exercise the plan memos", st.MemoHits, st.MemoMisses)
	}
	if st := ref.PlanStats(); st.MemoHits+st.MemoMisses != 0 {
		t.Fatalf("the CacheSize 0 engine consulted plan memos (%d hits, %d misses)", st.MemoHits, st.MemoMisses)
	}

	// Final answers at every fourth epoch and at latest, then the same
	// reads from a fresh engine replaying a copy of the WAL.
	final := e.CurrentEpoch()
	var epochs []uint64
	for ep := uint64(1); ep <= final; ep += 4 {
		epochs = append(epochs, ep)
	}
	epochs = append(epochs, 0)
	want := make(map[string][]byte)
	for qi, q := range queries {
		for _, ep := range epochs {
			q.Epoch = ep
			_, b := oracleRead(t, e, q)
			want[fmt.Sprintf("%s@%d", q, ep)] = b
			oracleOps(t, e, ref, q, keys[qi], rnd)
		}
	}

	replay := filepath.Join(t.TempDir(), "replay.wal")
	logged, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(replay, logged, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch, err := e2.EnableIngest(replay); err != nil || epoch != final {
		t.Fatalf("replay: epoch %d, err %v; want epoch %d", epoch, err, final)
	}
	for _, q := range queries {
		for _, ep := range epochs {
			q.Epoch = ep
			_, b := oracleRead(t, e2, q)
			if !bytes.Equal(b, want[fmt.Sprintf("%s@%d", q, ep)]) {
				t.Fatalf("%s @%d: replayed engine answers differently", q, ep)
			}
		}
	}
}
