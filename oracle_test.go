package maprat

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// oracleRead runs one explain through e's caches and the same request on
// ref, an engine with every cache disabled at the same epoch, and fails
// unless the two answers agree in every field but FromCache and Elapsed.
// Callers hold the epoch still between the two reads, so an unpinned
// request resolves to the same epoch both times.
func oracleRead(t *testing.T, e, ref *Engine, q Query) (*Explanation, []byte) {
	t.Helper()
	got, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatalf("explain %s @%d: %v", q, q.Epoch, err)
	}
	want, err := ref.ExplainContext(t.Context(), ExplainRequest{Query: q})
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
// engine with every cache off at the same epoch, and fails unless every
// answer agrees.
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
// evolution sweep. Every read must equal the same request on an engine
// with every cache disabled and fed the same appends, and a fresh engine
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
	ref, err := Open(ds, coldOptions())
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
		ex, _ := oracleRead(t, e, ref, q)
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
					UserID: int32(ds.Users[rnd.Intn(len(ds.Users))].ID),
					ItemID: ids[rnd.Intn(len(ids))],
					Score:  int8(1 + rnd.Intn(5)),
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
			if ex, _ := oracleRead(t, e, ref, q); ex.FromCache {
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
			want, err := ref.EvolutionContext(t.Context(), ExplainRequest{Query: q})
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
			_, b := oracleRead(t, e, ref, q)
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
			_, b := oracleRead(t, e2, ref, q)
			if !bytes.Equal(b, want[fmt.Sprintf("%s@%d", q, ep)]) {
				t.Fatalf("%s @%d: replayed engine answers differently", q, ep)
			}
		}
	}
}

// TestBrowseMatchesRebuildOracle is the browse leg of the differential
// test. Four batches, each from the reviewers of one state, are appended
// before the first browse, so the lazy per-state base aggregate is built
// only once the deltas exist. Two of the states start with the fewest
// ratings and get enough new ones to cross the minimum-support cut. At
// every epoch k, the live engine, an engine replaying a copy of the WAL
// and a fresh engine opened over the base ratings plus batches 1..k−1
// must answer exactly the same rows: the aggregates are integer sums.
func TestBrowseMatchesRebuildOracle(t *testing.T) {
	// A log small enough that some states start below the cut.
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 300, 120, 6000
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(t.TempDir(), "browse.wal")
	e, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnableIngest(wal); err != nil {
		t.Fatal(err)
	}

	usersOf := map[string][]int{}
	for _, u := range ds.Users {
		if u.State != "" {
			usersOf[u.State] = append(usersOf[u.State], u.ID)
		}
	}
	counts := map[string]int{}
	for _, r := range ds.Ratings {
		counts[ds.UserByID(int(r.UserID)).State]++
	}
	var states []string
	for st := range usersOf {
		states = append(states, st)
	}
	slices.SortFunc(states, func(a, b string) int {
		return cmp.Or(cmp.Compare(counts[a], counts[b]), cmp.Compare(a, b))
	})
	touched := []string{states[0], states[len(states)-1], states[1], states[len(states)-2]}

	_, maxUnix := e.TimeRange()
	var batches [][]model.Rating
	for i, st := range touched {
		var batch []model.Rating
		for j := 0; j < e.cubeCfg.MinSupport+i; j++ {
			users := usersOf[st]
			batch = append(batch, model.Rating{
				UserID: int32(users[j%len(users)]),
				ItemID: ds.Items[(7*i+j)%len(ds.Items)].ID,
				Score:  int8(1 + (i+j)%5),
				Unix:   maxUnix + int64(len(batches)*100+j+1),
			})
		}
		if _, err := e.AppendRatings(t.Context(), batch); err != nil {
			t.Fatalf("append %d (%s): %v", i+1, st, err)
		}
		batches = append(batches, batch)
	}
	final := e.CurrentEpoch()

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

	browse := func(m *Engine, epoch uint64) []StateOverview {
		t.Helper()
		rows, err := m.BrowseStatesAt(epoch)
		if err != nil {
			t.Fatalf("browse @%d: %v", epoch, err)
		}
		return rows
	}
	var prev []StateOverview
	for k := uint64(1); k <= final; k++ {
		ratings := slices.Clone(ds.Ratings)
		for _, b := range batches[:k-1] {
			ratings = append(ratings, b...)
		}
		rebuilt, err := model.NewDataset(ds.Users, ds.Items, ratings)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Open(rebuilt, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := browse(fresh, 0)
		if got := browse(e, k); !slices.Equal(got, want) {
			t.Fatalf("epoch %d: live browse differs from the rebuild\n got %v\nwant %v", k, got, want)
		}
		if got := browse(e2, k); !slices.Equal(got, want) {
			t.Fatalf("epoch %d: replayed browse differs from the rebuild\n got %v\nwant %v", k, got, want)
		}
		if slices.Equal(want, prev) {
			t.Fatalf("epoch %d: batch %d moved no state", k, k-1)
		}
		prev = want
	}
	if latest := browse(e, 0); !slices.Equal(latest, prev) {
		t.Fatal("the latest browse differs from the final epoch's")
	}
	// The cut: a state below the minimum support at the base is a row
	// once its batch lands.
	if rows := browse(e, 1); slices.ContainsFunc(rows, func(r StateOverview) bool { return r.State == touched[0] }) {
		t.Fatalf("state %s already clears the support cut at the base; the test does not cross it", touched[0])
	}
	if !slices.ContainsFunc(prev, func(r StateOverview) bool { return r.State == touched[0] }) {
		t.Fatalf("state %s is not a row after its batch", touched[0])
	}
}

// requireSamePlan fails unless got, a plan the tier built, equals want,
// a plan built from scratch: item IDs, tuples, overall aggregate, and a
// deep-equal cube (groups with keys, aggs and members, key index and
// config). Neither cube may have built its coverage bitsets yet.
func requireSamePlan(t *testing.T, what string, got, want *store.Plan) {
	t.Helper()
	if !slices.Equal(got.ItemIDs, want.ItemIDs) || !slices.Equal(got.Tuples, want.Tuples) || got.Overall != want.Overall {
		t.Fatalf("%s: plan differs from a fresh build in items, tuples or overall (%d tuples, fresh %d)", what, len(got.Tuples), len(want.Tuples))
	}
	if !reflect.DeepEqual(got.Cube, want.Cube) {
		t.Fatalf("%s: cube differs from a fresh build (%v, fresh %v)", what, got.Cube, want.Cube)
	}
}

// TestSuccessorPlansMatchFreshBuild is the successor-plan leg of the
// differential test: a random append sequence, each batch touching the
// items of a random subset of the queries, at timestamps before, inside
// and after the log, from random reviewers. After every batch, each touched query's plan — the
// tier builds it from the seed its superseded plan left — must equal the
// plan an engine with the plan tier off builds from scratch, and its
// explain, group, refine and drill answers must equal that engine's.
// The framework query takes Extend's fallback to a full build.
func TestSuccessorPlansMatchFreshBuild(t *testing.T) {
	ds := ingestDataset(t)
	e := ingestEngine(t, nil)
	ref := ingestEngine(t, coldOptions())
	queries := oracleQueries(t, e)
	fw := mustQuery(t, e, `actor:"Tom Hanks"`)
	fw.Framework = true
	queries = append(queries, fw)
	items := make([][]int, len(queries))
	keys := make([]Key, len(queries))
	for i, q := range queries {
		ex, _ := oracleRead(t, e, ref, q)
		items[i] = ex.ItemIDs
		keys[i] = ex.Result(SimilarityMining).Groups[0].Key
	}

	rnd := rand.New(rand.NewSource(7))
	lo, _ := e.TimeRange()
	for step := 0; step < 12; step++ {
		_, maxUnix := e.TimeRange()
		var batch []model.Rating
		touched := map[int]bool{}
		for qi := range queries {
			if rnd.Intn(2) != 0 {
				continue
			}
			touched[qi] = true
			for n := 0; n < 1+rnd.Intn(3); n++ {
				batch = append(batch, model.Rating{
					UserID: int32(ds.Users[rnd.Intn(len(ds.Users))].ID),
					ItemID: items[qi][rnd.Intn(len(items[qi]))],
					Score:  int8(1 + rnd.Intn(5)),
					Unix:   []int64{lo - 1, lo + rnd.Int63n(maxUnix-lo), maxUnix + 1}[rnd.Intn(3)],
				})
			}
		}
		if len(batch) == 0 {
			continue
		}
		for _, m := range []*Engine{e, ref} {
			if _, err := m.AppendRatings(t.Context(), batch); err != nil {
				t.Fatalf("append %d: %v", step, err)
			}
		}
		for qi, q := range queries {
			// A query another touched query's batch ratings landed in is
			// touched too: the actor and genre queries share movies.
			for _, r := range batch {
				touched[qi] = touched[qi] || slices.Contains(items[qi], r.ItemID)
			}
			if !touched[qi] {
				continue
			}
			q.Epoch = e.CurrentEpoch()
			base := e.cubeConfig(q, nil)
			before := e.PlanStats().Extended
			got, err := e.planFor(t.Context(), q, base)
			if err != nil {
				t.Fatal(err)
			}
			if e.PlanStats().Extended != before+1 {
				t.Fatalf("step %d, %s: the rebuild was not seeded by the superseded plan", step, q)
			}
			want, err := ref.buildPlan(q, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSamePlan(t, fmt.Sprintf("step %d, %s", step, q), got, want)
			q.Epoch = 0
			oracleRead(t, e, ref, q)
			oracleOps(t, e, ref, q, keys[qi], rnd)
		}
	}
	if st := e.PlanStats(); st.Extended == 0 || st.Extended > st.Builds {
		t.Fatalf("extended %d of %d builds", st.Extended, st.Builds)
	}
}
