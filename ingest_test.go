package maprat

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/model"
)

var (
	ingestDSOnce sync.Once
	ingestDSMemo *Dataset
)

// ingestDataset memoizes one dataset for the ingest suite; engines over
// it are opened per test because appends mutate engine state.
func ingestDataset(t testing.TB) *Dataset {
	t.Helper()
	ingestDSOnce.Do(func() {
		ds, err := Generate(SmallGenConfig())
		if err != nil {
			panic(err)
		}
		ingestDSMemo = ds
	})
	return ingestDSMemo
}

// ingestEngine opens a fresh engine with live ingestion armed on a
// per-test WAL.
func ingestEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := Open(ingestDataset(t), nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	epoch, err := e.EnableIngest(filepath.Join(t.TempDir(), "ingest.wal"))
	if err != nil {
		t.Fatalf("EnableIngest: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("fresh WAL replayed to epoch %d, want 1", epoch)
	}
	return e
}

// ratingsFor builds n valid ratings for one item, timestamped just past
// the log's maximum.
func ratingsFor(t testing.TB, e *Engine, itemID, n int) []model.Rating {
	t.Helper()
	ds := ingestDataset(t)
	_, maxUnix := e.TimeRange()
	out := make([]model.Rating, n)
	for i := range out {
		out[i] = model.Rating{
			UserID: ds.Users[i%len(ds.Users)].ID,
			ItemID: itemID,
			Score:  5,
			Unix:   maxUnix + int64(i+1),
		}
	}
	return out
}

func itemIDByTitle(t testing.TB, title string) int {
	t.Helper()
	items := ingestDataset(t).ItemsByTitle(title)
	if len(items) == 0 {
		t.Fatalf("fixture movie %q missing", title)
	}
	return items[0].ID
}

// explainJSON renders an explanation with the nondeterministic fields
// (timing, cache provenance) zeroed, for byte-level comparison.
func explainJSON(t testing.TB, ex *Explanation) []byte {
	t.Helper()
	c := ex.Clone()
	c.Elapsed = 0
	c.FromCache = false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal explanation: %v", err)
	}
	return b
}

func TestAppendBumpsEpochAndFingerprint(t *testing.T) {
	e := ingestEngine(t)
	fp1 := e.Fingerprint()
	if e.CurrentEpoch() != 1 {
		t.Fatalf("fresh engine at epoch %d", e.CurrentEpoch())
	}
	epoch, err := e.AppendRatings(context.Background(), ratingsFor(t, e, itemIDByTitle(t, "Toy Story"), 3))
	if err != nil {
		t.Fatalf("AppendRatings: %v", err)
	}
	if epoch != 2 || e.CurrentEpoch() != 2 {
		t.Fatalf("epoch = %d (engine %d), want 2", epoch, e.CurrentEpoch())
	}
	// The live fingerprint rolls; the pinned epoch-1 fingerprint is the
	// pre-ingestion value, so previously issued pinned ETags stay valid.
	if e.Fingerprint() == fp1 {
		t.Fatal("append did not roll the fingerprint")
	}
	if e.FingerprintAt(1) != fp1 {
		t.Fatal("pinned epoch-1 fingerprint changed across an append")
	}
	if e.FingerprintAt(2) != e.Fingerprint() {
		t.Fatal("latest fingerprint is not the current epoch's")
	}
}

func TestAppendValidation(t *testing.T) {
	e := ingestEngine(t)
	ctx := context.Background()
	item := itemIDByTitle(t, "Toy Story")
	good := ratingsFor(t, e, item, 1)

	cases := []struct {
		name string
		mut  func(r model.Rating) model.Rating
	}{
		{"unknown user", func(r model.Rating) model.Rating { r.UserID = 99999999; return r }},
		{"unknown item", func(r model.Rating) model.Rating { r.ItemID = 99999999; return r }},
		{"score out of range", func(r model.Rating) model.Rating { r.Score = 9; return r }},
		{"missing timestamp", func(r model.Rating) model.Rating { r.Unix = 0; return r }},
	}
	for _, tc := range cases {
		if _, err := e.AppendRatings(ctx, []model.Rating{tc.mut(good[0])}); !errors.Is(err, ErrBadRating) {
			t.Errorf("%s: err = %v, want ErrBadRating", tc.name, err)
		}
	}
	if _, err := e.AppendRatings(ctx, nil); !errors.Is(err, ErrBadRating) {
		t.Errorf("empty batch: err = %v, want ErrBadRating", err)
	}
	// The whole batch is rejected: one bad rating blocks the good one.
	if _, err := e.AppendRatings(ctx, []model.Rating{good[0], tc0bad(good[0])}); !errors.Is(err, ErrBadRating) {
		t.Errorf("mixed batch: err = %v, want ErrBadRating", err)
	}
	if e.CurrentEpoch() != 1 {
		t.Fatalf("rejected batches advanced the epoch to %d", e.CurrentEpoch())
	}

	// An engine without EnableIngest refuses writes outright.
	plain := testEngine(t)
	if _, err := plain.AppendRatings(ctx, good); !errors.Is(err, ErrIngestDisabled) {
		t.Errorf("disabled engine: err = %v, want ErrIngestDisabled", err)
	}
}

func tc0bad(r model.Rating) model.Rating {
	r.Score = 0
	return r
}

func TestFutureEpochRejected(t *testing.T) {
	e := ingestEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	q.Epoch = 99
	if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q}); !errors.Is(err, ErrFutureEpoch) {
		t.Fatalf("err = %v, want ErrFutureEpoch", err)
	}
	if _, err := e.BrowseStatesAt(99); !errors.Is(err, ErrFutureEpoch) {
		t.Fatalf("browse err = %v, want ErrFutureEpoch", err)
	}
}

// TestPinnedReadByteIdentical is the determinism acceptance check: a
// read pinned at epoch 1 returns byte-identical results before and after
// later appends land — even with every cache disabled, so the identity
// comes from the epoch watermark, not from a cached payload.
func TestPinnedReadByteIdentical(t *testing.T) {
	e := ingestEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	q.Epoch = 1
	req := ExplainRequest{Query: q, DisableCache: true}

	before, err := e.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Explain before append: %v", err)
	}
	beforeJSON := explainJSON(t, before)

	item := itemIDByTitle(t, "Toy Story")
	for i := 0; i < 2; i++ {
		if _, err := e.AppendRatings(context.Background(), ratingsFor(t, e, item, 3)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	after, err := e.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatalf("Explain after append: %v", err)
	}
	if !bytes.Equal(beforeJSON, explainJSON(t, after)) {
		t.Fatal("epoch-1 pinned explanation changed across appends")
	}

	// The latest view, by contrast, sees the 6 new ratings.
	qLatest := q
	qLatest.Epoch = 0
	latest, err := e.ExplainContext(t.Context(), ExplainRequest{Query: qLatest, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if latest.NumRatings != before.NumRatings+6 {
		t.Fatalf("latest NumRatings = %d, want %d", latest.NumRatings, before.NumRatings+6)
	}
}

// TestPlanCacheSurvivesDisjointAppend: an append seals only the plans
// whose item set intersects the batch; a plan for an untouched movie
// keeps serving warm hits at the new epoch, and so does the result mined
// from it.
func TestPlanCacheSurvivesDisjointAppend(t *testing.T) {
	e := ingestEngine(t)
	toy := mustQuery(t, e, `movie:"Toy Story"`)
	heat := mustQuery(t, e, `movie:"Heat"`)
	prime := func(q Query) *Explanation {
		ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
		if err != nil {
			t.Fatalf("prime %s: %v", q, err)
		}
		return ex
	}
	toyBefore, heatBefore := prime(toy), prime(heat)
	ps := e.PlanStats()
	if ps.Invalidated != 0 || ps.Surviving != 0 {
		t.Fatalf("counters before append: %+v", ps)
	}
	buildsBefore := ps.Builds

	if _, err := e.AppendRatings(context.Background(), ratingsFor(t, e, itemIDByTitle(t, "Toy Story"), 2)); err != nil {
		t.Fatal(err)
	}
	ps = e.PlanStats()
	if ps.Invalidated < 1 {
		t.Fatalf("append touching Toy Story sealed no plans: %+v", ps)
	}
	if ps.Surviving < 1 {
		t.Fatalf("append sealed every plan — invalidation is not surgical: %+v", ps)
	}

	// Heat at the new epoch rides the surviving plan: no new build, and
	// its result is a cache hit equal to the pre-append answer.
	mines := e.MineCount()
	got, err := e.ExplainContext(t.Context(), ExplainRequest{Query: heat})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PlanStats().Builds; got != buildsBefore {
		t.Fatalf("untouched plan rebuilt: builds %d -> %d", buildsBefore, got)
	}
	if !got.FromCache || e.MineCount() != mines {
		t.Fatalf("untouched result re-mined: from cache %v, mines %d -> %d", got.FromCache, mines, e.MineCount())
	}
	if !bytes.Equal(explainJSON(t, got), explainJSON(t, heatBefore)) {
		t.Fatal("surviving result differs from the pre-append answer")
	}
	// Toy Story at the new epoch must rebuild and re-mine against the
	// fresh data.
	got, err = e.ExplainContext(t.Context(), ExplainRequest{Query: toy})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PlanStats().Builds; got != buildsBefore+1 {
		t.Fatalf("touched plan did not rebuild: builds %d -> %d", buildsBefore, got)
	}
	if got.FromCache || e.MineCount() != mines+1 {
		t.Fatalf("touched result not re-mined: from cache %v, mines %d -> %d", got.FromCache, mines, e.MineCount())
	}
	if got.NumRatings != toyBefore.NumRatings+2 {
		t.Fatalf("re-mined Toy Story has %d ratings, want %d", got.NumRatings, toyBefore.NumRatings+2)
	}
	// The sealed version still answers reads pinned at epoch 1, from the
	// cache, byte-identical to the pre-append answer.
	pinned := toy
	pinned.Epoch = 1
	got, err = e.ExplainContext(t.Context(), ExplainRequest{Query: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if !got.FromCache || e.MineCount() != mines+1 {
		t.Fatalf("pinned epoch-1 read re-mined: from cache %v, mines %d -> %d", got.FromCache, mines+1, e.MineCount())
	}
	got.Query.Epoch = 0
	if !bytes.Equal(explainJSON(t, got), explainJSON(t, toyBefore)) {
		t.Fatal("pinned epoch-1 answer differs from the pre-append answer")
	}

	st, on := e.IngestStats()
	if !on {
		t.Fatal("IngestStats off on an armed engine")
	}
	if st.Epoch != 2 || st.Batches != 1 || st.Tuples != 2 {
		t.Fatalf("ingest stats = %+v", st)
	}
	if st.PlansInvalidated != ps.Invalidated || st.PlansSurviving != ps.Surviving {
		t.Fatalf("ingest stats disagree with plan stats: %+v vs %+v", st, ps)
	}
}

// TestWALCrashRecovery is the crash acceptance check: a second engine
// replaying the same WAL lands on exactly the pre-crash epoch and serves
// byte-identical results.
func TestWALCrashRecovery(t *testing.T) {
	ds := ingestDataset(t)
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	e1, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.EnableIngest(wal); err != nil {
		t.Fatal(err)
	}
	item := itemIDByTitle(t, "Toy Story")
	for i := 0; i < 3; i++ {
		if _, err := e1.AppendRatings(context.Background(), ratingsFor(t, e1, item, 2)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	q := mustQuery(t, e1, `movie:"Toy Story"`)
	req := ExplainRequest{Query: q, DisableCache: true}
	want, err := e1.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": abandon e1, rebuild from the dataset + WAL alone.
	e2, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := e2.EnableIngest(wal)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if epoch != 4 {
		t.Fatalf("replayed to epoch %d, want the pre-crash 4", epoch)
	}
	if e2.Fingerprint() != e1.Fingerprint() {
		t.Fatal("replayed engine's fingerprint differs")
	}
	got, err := e2.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(explainJSON(t, want), explainJSON(t, got)) {
		t.Fatal("replayed engine serves different results")
	}
}

// TestEvolutionGainsLiveWindow: a batch of fresh ratings extends the
// time range, so the latest-epoch slider gains a live window while a
// pinned sweep replays exactly the windows its epoch had.
func TestEvolutionGainsLiveWindow(t *testing.T) {
	e := ingestEngine(t)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	before, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	// Land the batch two years past the newest rating.
	ds := ingestDataset(t)
	_, maxUnix := e.TimeRange()
	batch := []model.Rating{{
		UserID: ds.Users[0].ID,
		ItemID: itemIDByTitle(t, "Toy Story"),
		Score:  4,
		Unix:   maxUnix + 2*365*24*3600,
	}}
	if _, err := e.AppendRatings(context.Background(), batch); err != nil {
		t.Fatal(err)
	}

	after, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("live sweep has %d windows, want more than the %d pre-append", len(after), len(before))
	}
	pinnedQ := q
	pinnedQ.Epoch = 1
	pinned, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: pinnedQ})
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(before) {
		t.Fatalf("pinned sweep has %d windows, want the original %d", len(pinned), len(before))
	}
}

// TestAppendWhileMining races the write path against concurrent readers
// of explains, group explorations and drills; run under -race it pins
// the locking discipline, the plan memos' included, end to end. Every
// read is checked afterwards against an uncached read at its epoch: a
// pinned read must equal the oracle at the epoch it pinned, and a latest
// read the oracle at some epoch current while it ran. The group and
// drill oracle is an engine opened with CacheSize 0 and fed the same
// appends.
func TestAppendWhileMining(t *testing.T) {
	e := ingestEngine(t)
	refOpts := DefaultOptions()
	refOpts.Store.CacheSize = 0
	ref, err := Open(ingestDataset(t), &refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.EnableIngest(filepath.Join(t.TempDir(), "ref.wal")); err != nil {
		t.Fatal(err)
	}
	item := itemIDByTitle(t, "Toy Story")
	q := mustQuery(t, e, `movie:"Toy Story"`)
	key := cube.KeyAll.With(cube.State, cube.StateIndex("CA"))
	// others renders the group and drill answers for one query.
	others := func(m *Engine, q Query) string {
		ge, err := m.ExploreFullContext(t.Context(), q, key, 8, 3)
		tr, derr := m.DrillMineContext(t.Context(), q, key, SimilarityMining, DefaultSettings())
		return opAnswer(t, ge, err) + "\n" + opAnswer(t, tr, derr)
	}

	// read is one answer and the epochs it may have resolved to.
	type read struct {
		lo, hi uint64
		ex     *Explanation
		others string
	}
	stop := make(chan struct{})
	progress := make(chan struct{})
	var readers sync.WaitGroup
	errs := make(chan error, 64)
	reads := make([][]read, 4)
	for r := range reads {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := ExplainRequest{Query: q, DisableCache: i%3 == 0}
				lo := e.CurrentEpoch()
				if r%2 == 1 {
					// Pin at an epoch in [1, current], cycling.
					req.Query.Epoch = 1 + uint64(i)%lo
					lo = req.Query.Epoch
				}
				ex, err := e.ExplainContext(t.Context(), req)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				got := others(e, req.Query)
				hi := lo
				if r%2 == 0 {
					hi = e.CurrentEpoch()
				}
				ex.Query.Epoch = 0
				reads[r] = append(reads[r], read{lo, hi, ex, got})
				if _, err := e.BrowseStatesAt(0); err != nil {
					errs <- fmt.Errorf("reader %d browse: %w", r, err)
					return
				}
				select {
				case progress <- struct{}{}:
				case <-stop:
					return
				}
			}
		}(r)
	}
	// Let the readers land a few reads at every epoch, appending between.
	waitReads := func() error {
		for n := 0; n < 4; n++ {
			select {
			case <-progress:
			case err := <-errs:
				return err
			}
		}
		return nil
	}
	appendAll := func() error {
		for i := 0; i < 5; i++ {
			if err := waitReads(); err != nil {
				return err
			}
			batch := ratingsFor(t, e, item, 3)
			for _, m := range []*Engine{e, ref} {
				if _, err := m.AppendRatings(context.Background(), batch); err != nil {
					return fmt.Errorf("append %d: %w", i, err)
				}
			}
		}
		return waitReads()
	}
	if err := appendAll(); err != nil {
		t.Error(err)
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e.CurrentEpoch() != 6 {
		t.Fatalf("epoch = %d after 5 appends, want 6", e.CurrentEpoch())
	}

	oracle := make(map[uint64][]byte)
	otherOracle := make(map[uint64]string)
	for ep := uint64(1); ep <= 6; ep++ {
		pinned := q
		pinned.Epoch = ep
		ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: pinned, DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ex.Query.Epoch = 0
		oracle[ep] = explainJSON(t, ex)
		otherOracle[ep] = others(ref, pinned)
	}
	for r, rs := range reads {
		for i, rd := range rs {
			got := explainJSON(t, rd.ex)
			ok, otherOK := false, false
			for ep := rd.lo; ep <= rd.hi; ep++ {
				ok = ok || bytes.Equal(got, oracle[ep])
				otherOK = otherOK || rd.others == otherOracle[ep]
			}
			if !ok {
				t.Errorf("reader %d read %d: answer matches no uncached read at epochs %d-%d", r, i, rd.lo, rd.hi)
			}
			if !otherOK {
				t.Errorf("reader %d read %d: group or drill answer matches no cache-off read at epochs %d-%d", r, i, rd.lo, rd.hi)
			}
		}
	}
	if st := e.PlanStats(); st.MemoHits == 0 {
		t.Error("no group or drill read hit a plan memo; the test does not exercise them")
	}
}
