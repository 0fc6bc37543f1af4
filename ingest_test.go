package maprat

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/ingest"
	"repro/internal/model"
	"repro/internal/store"
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

// ingestEngine opens a fresh engine with opts (nil for the defaults) and
// live ingestion armed on a per-test WAL.
func ingestEngine(t testing.TB, opts *Options) *Engine {
	t.Helper()
	e, err := Open(ingestDataset(t), opts)
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
			UserID: int32(ds.Users[i%len(ds.Users)].ID),
			ItemID: itemID,
			Score:  5,
			Unix:   maxUnix + int64(i+1),
		}
	}
	return out
}

func itemIDByTitle(t testing.TB, title string) int {
	t.Helper()
	for _, it := range ingestDataset(t).Items {
		if it.Title == title {
			return it.ID
		}
	}
	t.Fatalf("fixture movie %q missing", title)
	return 0
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
	e := ingestEngine(t, nil)
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
	e := ingestEngine(t, nil)
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
		{"timestamp past year 9999", func(r model.Rating) model.Rating { r.Unix = firstUnixOfYear10000; return r }},
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
	// The last second of year 9999 is still a valid timestamp.
	last := good[0]
	last.Unix = firstUnixOfYear10000 - 1
	if _, err := e.AppendRatings(ctx, []model.Rating{last}); err != nil {
		t.Errorf("rating at the last second of year 9999: %v", err)
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

// firstUnixOfYear10000 is 10000-01-01T00:00:00Z, one second past the
// latest timestamp a rating may carry.
const firstUnixOfYear10000 = 253402300800

// TestReplayRejectsBadRecord: WAL replay validates each record as an
// append does, so a logged rating the engine would refuse fails
// EnableIngest instead of landing in the store.
func TestReplayRejectsBadRecord(t *testing.T) {
	item, user := itemIDByTitle(t, "Toy Story"), ingestDataset(t).Users[0].ID
	for _, tc := range []struct {
		name string
		r    model.Rating
	}{
		{"unknown user", model.Rating{UserID: 99999999, ItemID: item, Score: 5, Unix: 978300000}},
		{"timestamp past year 9999", model.Rating{UserID: int32(user), ItemID: item, Score: 5, Unix: firstUnixOfYear10000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ingest.wal")
			wal, _, err := ingest.Open(path, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.Append(2, []model.Rating{tc.r}); err != nil {
				t.Fatal(err)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			e, err := Open(ingestDataset(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.EnableIngest(path); !errors.Is(err, ErrBadRating) {
				t.Fatalf("EnableIngest over a logged %s: err = %v, want ErrBadRating", tc.name, err)
			}
		})
	}
}

func TestFutureEpochRejected(t *testing.T) {
	e := ingestEngine(t, nil)
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
// later appends land — on an engine with every cache disabled, so the
// identity comes from the epoch watermark, not from a cached payload.
func TestPinnedReadByteIdentical(t *testing.T) {
	e := ingestEngine(t, coldOptions())
	q := mustQuery(t, e, `movie:"Toy Story"`)
	q.Epoch = 1
	req := ExplainRequest{Query: q}

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
	latest, err := e.ExplainContext(t.Context(), ExplainRequest{Query: qLatest})
	if err != nil {
		t.Fatal(err)
	}
	if latest.NumRatings != before.NumRatings+6 {
		t.Fatalf("latest NumRatings = %d, want %d", latest.NumRatings, before.NumRatings+6)
	}
}

// TestPlanCacheSurvivesDisjointAppend: an append drops only the plans
// whose item set intersects the batch; a plan for an untouched movie
// keeps serving warm hits at the new epoch, and so does the result mined
// from it. Reads pinned inside a dropped plan's epoch range answer what
// an engine with every cache off answers, and cache nothing.
func TestPlanCacheSurvivesDisjointAppend(t *testing.T) {
	e := ingestEngine(t, nil)
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

	toyItem := itemIDByTitle(t, "Toy Story")
	batch1 := ratingsFor(t, e, toyItem, 2)
	if _, err := e.AppendRatings(context.Background(), batch1); err != nil {
		t.Fatal(err)
	}
	ps = e.PlanStats()
	if ps.Invalidated < 1 {
		t.Fatalf("append touching Toy Story dropped no plans: %+v", ps)
	}
	if ps.Surviving < 1 {
		t.Fatalf("append dropped every plan — invalidation is not surgical: %+v", ps)
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
	// The dropped plan's result still answers reads pinned at its build
	// epoch 1, from the result cache, byte-identical to the pre-append
	// answer.
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

	// Warm Toy Story's group, refine and drill at epoch 2, then append to
	// Toy Story again: epoch 3 drops the plans built at 2, and reads
	// pinned at 2 must rebuild them without caching them.
	key := cube.KeyAll.With(cube.State, cube.StateIndex("CA"))
	ops := func(m *Engine, q Query) []string {
		ge, gerr := m.ExploreFullContext(t.Context(), q, key, 8, 3)
		rs, rerr := m.RefineGroupContext(t.Context(), q, key, 4)
		tr, derr := m.DrillMineContext(t.Context(), q, key, SimilarityMining, DefaultSettings())
		return []string{opAnswer(t, ge, gerr), opAnswer(t, rs, rerr), opAnswer(t, tr, derr)}
	}
	ops(e, toy)
	invalidated := e.PlanStats().Invalidated
	batch2 := ratingsFor(t, e, toyItem, 3)
	if _, err := e.AppendRatings(context.Background(), batch2); err != nil {
		t.Fatal(err)
	}
	if e.PlanStats().Invalidated == invalidated {
		t.Fatal("second append touching Toy Story dropped no plans")
	}
	ref := ingestEngine(t, coldOptions())
	for _, b := range [][]model.Rating{batch1, batch2} {
		if _, err := ref.AppendRatings(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	entries := e.PlanStats().Entries
	pinned.Epoch = 2
	got2, want2 := ops(e, pinned), ops(ref, pinned)
	for i, op := range []string{"group", "refine", "drill"} {
		if got2[i] != want2[i] {
			t.Errorf("%s pinned at epoch 2 differs from a cache-off engine:\n got %s\nwant %s", op, got2[i], want2[i])
		}
	}
	if n := e.PlanStats().Entries; n > entries {
		t.Fatalf("reads pinned at a superseded epoch were cached: entries %d -> %d", entries, n)
	}
}

// TestWALCrashRecovery is the crash acceptance check: a second engine
// replaying the same WAL lands on exactly the pre-crash epoch and serves
// byte-identical results.
func TestWALCrashRecovery(t *testing.T) {
	ds := ingestDataset(t)
	wal := filepath.Join(t.TempDir(), "ingest.wal")
	e1, err := Open(ds, coldOptions())
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
	req := ExplainRequest{Query: q}
	want, err := e1.ExplainContext(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": abandon e1, rebuild from the dataset + WAL alone.
	e2, err := Open(ds, coldOptions())
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

// TestRestartKeepsFingerprints: an engine's identity is its base log's,
// whichever way the base arrived. A restart that replays a WAL must keep
// both the base fingerprint and the latest one, or every ETag issued
// before the crash, epoch-pinned ones included, stops matching after it.
func TestRestartKeepsFingerprints(t *testing.T) {
	ds := ingestDataset(t)
	snapPath := filepath.Join(t.TempDir(), "base.msnap")
	if err := WriteSnapshot(snapPath, ds, SnapshotMeta{Source: "generated"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() (*Engine, error)
	}{
		{"text", func() (*Engine, error) { return Open(ds, nil) }},
		{"snapshot", func() (*Engine, error) { return OpenSnapshot(snapPath, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wal := filepath.Join(t.TempDir(), "ingest.wal")
			arm := func() *Engine {
				t.Helper()
				e, err := tc.open()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.EnableIngest(wal); err != nil {
					t.Fatal(err)
				}
				return e
			}
			e1 := arm()
			base := e1.FingerprintAt(1)
			if e1.Fingerprint() != base {
				t.Fatalf("epoch-1 Fingerprint %016x != FingerprintAt(1) %016x", e1.Fingerprint(), base)
			}
			_, hi := e1.TimeRange()
			r := model.Rating{UserID: int32(ds.Users[0].ID), ItemID: ds.Items[0].ID, Score: 5, Unix: hi + 86400}
			if _, err := e1.AppendRatings(t.Context(), []model.Rating{r}); err != nil {
				t.Fatal(err)
			}
			latest := e1.Fingerprint()
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}

			e2 := arm()
			defer e2.Close()
			if got := e2.FingerprintAt(1); got != base {
				t.Errorf("FingerprintAt(1) after restart %016x, want %016x", got, base)
			}
			if got := e2.Fingerprint(); got != latest {
				t.Errorf("Fingerprint after restart %016x, want %016x", got, latest)
			}
		})
	}
}

// TestEvolutionGainsLiveWindow: a batch of fresh ratings extends the
// time range, so the latest-epoch slider gains a live window while a
// pinned sweep replays exactly the windows its epoch had.
func TestEvolutionGainsLiveWindow(t *testing.T) {
	e := ingestEngine(t, nil)
	q := mustQuery(t, e, `movie:"Toy Story"`)
	before, err := e.EvolutionContext(t.Context(), ExplainRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}

	// Land the batch two years past the newest rating.
	ds := ingestDataset(t)
	_, maxUnix := e.TimeRange()
	batch := []model.Rating{{
		UserID: int32(ds.Users[0].ID),
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
// the locking discipline, the plan memos' included, end to end. The
// oracle is an engine with both cache tiers off, fed the same appends;
// every third read goes to it, so cold reads race the appends too. Every
// read is checked afterwards against the oracle at its epoch: a pinned
// read must equal the oracle at the epoch it pinned, and a latest read
// the oracle at some epoch current while it ran.
func TestAppendWhileMining(t *testing.T) {
	e := ingestEngine(t, nil)
	ref := ingestEngine(t, coldOptions())
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
				m := e
				if i%3 == 0 {
					m = ref
				}
				req := ExplainRequest{Query: q}
				lo := m.CurrentEpoch()
				if r%2 == 1 {
					// Pin at an epoch in [1, current], cycling.
					req.Query.Epoch = 1 + uint64(i)%lo
					lo = req.Query.Epoch
				}
				ex, err := m.ExplainContext(t.Context(), req)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				got := others(m, req.Query)
				hi := lo
				if r%2 == 0 {
					hi = m.CurrentEpoch()
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
		ex, err := ref.ExplainContext(t.Context(), ExplainRequest{Query: pinned})
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
				t.Errorf("reader %d read %d: answer matches no cache-off read at epochs %d-%d", r, i, rd.lo, rd.hi)
			}
			if !otherOK {
				t.Errorf("reader %d read %d: group or drill answer matches no cache-off read at epochs %d-%d", r, i, rd.lo, rd.hi)
			}
		}
	}
	if st := e.PlanStats(); st.MemoHits == 0 {
		t.Error("no group or drill read hit a plan memo; the test does not exercise them")
	}

	// An append that lands during a successor build: the build is served
	// to its caller but not cached, and the seed it started from stays
	// for the next latest read, which the tier hands the same seed.
	base := e.cubeConfig(q, nil)
	planKey := PlanKey(q, base)
	if _, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q}); err != nil {
		t.Fatal(err)
	}
	appendBoth := func() {
		t.Helper()
		batch := ratingsFor(t, e, item, 2)
		for _, m := range []*Engine{e, ref} {
			if _, err := m.AppendRatings(t.Context(), batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendBoth()
	building := q
	building.Epoch = e.CurrentEpoch()
	started := make(chan *store.Seed)
	proceed := make(chan struct{})
	type served struct {
		p   *store.Plan
		err error
	}
	done := make(chan served, 1)
	go func() {
		p, err := e.st.Plans().GetOrBuildAt(t.Context(), planKey, building.Epoch, func(seed *store.Seed) (*store.Plan, error) {
			started <- seed
			<-proceed
			return e.buildPlan(building, base, seed)
		})
		done <- served{p, err}
	}()
	seed := <-started
	if seed == nil {
		t.Fatal("the latest-epoch rebuild of a superseded plan was handed no seed")
	}
	appendBoth()
	close(proceed)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	fresh, err := ref.buildPlan(building, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePlan(t, "successor build an append overtook", res.p, fresh)
	if _, ok := e.st.Plans().VersionAt(planKey, e.CurrentEpoch()); ok {
		t.Fatal("a successor build an append overtook was cached")
	}
	latest := q
	latest.Epoch = e.CurrentEpoch()
	var next *store.Seed
	p, err := e.st.Plans().GetOrBuildAt(t.Context(), planKey, latest.Epoch, func(sd *store.Seed) (*store.Plan, error) {
		next = sd
		return e.buildPlan(latest, base, sd)
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != seed {
		t.Fatalf("the next latest read was handed seed %+v, want the one the overtaken build left (%+v)", next, seed)
	}
	if fresh, err = ref.buildPlan(latest, base, nil); err != nil {
		t.Fatal(err)
	}
	requireSamePlan(t, "successor after the overtaken build", p, fresh)
}

// TestEnginesShareTheDatasetLog: an engine reads the dataset's ratings
// as the base of its log and never writes or copies into them, so
// engines over one dataset stay independent while one of them grows.
// Three batches appended to the first engine, on the queried movie,
// leave the dataset's ratings as they were and every explain, group and
// drill answer of the second engine byte-identical.
func TestEnginesShareTheDatasetLog(t *testing.T) {
	ds, err := Generate(SmallGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := append([]model.Rating(nil), ds.Ratings...)
	first, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.EnableIngest(filepath.Join(t.TempDir(), "ingest.wal")); err != nil {
		t.Fatal(err)
	}
	// The second engine caches nothing, so every read below gathers from
	// its store again.
	second, err := Open(ds, coldOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, second, `movie:"Toy Story"`)
	answers := func(e *Engine) []string {
		t.Helper()
		ex, err := e.ExplainContext(t.Context(), ExplainRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		key := ex.Result(SimilarityMining).Groups[0].Key
		ge, gerr := e.ExploreFullContext(t.Context(), q, key, 4, 3)
		tr, derr := e.DrillMineContext(t.Context(), q, key, DiversityMining, DefaultSettings())
		return []string{string(explainJSON(t, ex)), opAnswer(t, ge, gerr), opAnswer(t, tr, derr)}
	}
	want := answers(second)
	if got := answers(first); !slices.Equal(got, want) {
		t.Fatal("two engines over one dataset answer differently before any append")
	}

	toy := itemIDByTitle(t, "Toy Story")
	for b := 0; b < 3; b++ {
		_, maxUnix := first.TimeRange()
		batch := make([]model.Rating, 16)
		for i := range batch {
			batch[i] = model.Rating{UserID: int32(ds.Users[(b*16+i)%len(ds.Users)].ID), ItemID: toy, Score: int8(1 + i%5), Unix: maxUnix + int64(i+1)}
		}
		if _, err := first.AppendRatings(t.Context(), batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if !slices.Equal(ds.Ratings, before) {
			t.Fatalf("batch %d changed the dataset's ratings", b)
		}
		if got := answers(second); !slices.Equal(got, want) {
			t.Fatalf("batch %d to the first engine changed the second engine's answers", b)
		}
	}
	if got := answers(first); slices.Equal(got, want) {
		t.Fatal("48 appended ratings of the queried movie left the first engine's answers unchanged")
	}
}
