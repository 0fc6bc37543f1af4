package maprat

import (
	"bytes"
	"context"
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

// TestCachedAnswersMatchUncachedOracle is a seeded differential test of
// the (query, seed, epoch) contract across the result cache and the plan
// tier: a sequence of appends, each touching the items of a random
// subset of the queries, interleaved with latest and randomly pinned
// explains and one evolution sweep. Every answer must equal the same
// request mined with every cache disabled, and a fresh engine replaying
// a copy of the WAL must serve the same answers.
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
	queries := oracleQueries(t, e)
	items := make([][]int, len(queries))
	for i, q := range queries {
		ex, _ := oracleRead(t, e, q)
		items[i] = ex.ItemIDs
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
			if _, err := e.AppendRatings(context.Background(), batch); err != nil {
				t.Fatalf("append %d: %v", step, err)
			}
		}
		// Latest and pinned reads, each query possibly read twice so
		// repeats within an epoch hit too.
		for r := 0; r < 3; r++ {
			q := queries[rnd.Intn(len(queries))]
			if rnd.Intn(2) == 0 {
				q.Epoch = 1 + uint64(rnd.Int63n(int64(e.CurrentEpoch())))
			}
			if ex, _ := oracleRead(t, e, q); ex.FromCache {
				hits++
			}
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

	// Final answers at every fourth epoch and at latest, then the same
	// reads from a fresh engine replaying a copy of the WAL.
	final := e.CurrentEpoch()
	var epochs []uint64
	for ep := uint64(1); ep <= final; ep += 4 {
		epochs = append(epochs, ep)
	}
	epochs = append(epochs, 0)
	want := make(map[string][]byte)
	for _, q := range queries {
		for _, ep := range epochs {
			q.Epoch = ep
			_, b := oracleRead(t, e, q)
			want[fmt.Sprintf("%s@%d", q, ep)] = b
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
