package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cube"
	"repro/internal/model"
)

// refJoined is joinReference's output: the tuple log, the per-item index
// keyed by item ID, and the time range.
type refJoined struct {
	Tuples           []cube.Tuple
	ItemTuples       map[int][]int32
	MinUnix, MaxUnix int64
}

// joinRatingReference is the per-rating rule as a dataset-level
// function: Rating.Validate, then the user and the item by map lookup,
// then the demographics copied field by field from the user's record.
func joinRatingReference(ds *model.Dataset, r model.Rating) (cube.Tuple, error) {
	if err := r.Validate(); err != nil {
		return cube.Tuple{}, err
	}
	u := ds.UserByID(int(r.UserID))
	if u == nil {
		return cube.Tuple{}, fmt.Errorf("unknown user %d", r.UserID)
	}
	if ds.ItemByID(r.ItemID) == nil {
		return cube.Tuple{}, fmt.Errorf("unknown item %d", r.ItemID)
	}
	t := cube.Tuple{Score: r.Score, Unix: r.Unix}
	t.Vals[cube.Gender] = int16(u.Gender)
	t.Vals[cube.Age] = int16(u.Age)
	t.Vals[cube.Occupation] = int16(u.Occupation)
	t.Vals[cube.State] = cube.StateIndex(u.State)
	t.Vals[cube.City] = cube.CityIndex(u.City)
	return t, nil
}

// joinReference is the earlier Join, kept as the oracle Join must match:
// per-shard item maps merged in shard order, then one comparison sort per
// item by (Unix, index).
func joinReference(ds *model.Dataset) (refJoined, error) {
	tuples := make([]cube.Tuple, len(ds.Ratings))
	pj := refJoined{Tuples: tuples, ItemTuples: make(map[int][]int32)}

	workers := runtime.GOMAXPROCS(0)
	if len(ds.Ratings) < openParallelMin {
		workers = 1
	}
	type shard struct {
		itemTuples       map[int][]int32
		minUnix, maxUnix int64
		seen             bool
		err              error
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(ds.Ratings) / workers
		hi := (w + 1) * len(ds.Ratings) / workers
		wg.Add(1)
		go func(sh *shard, lo, hi int) {
			defer wg.Done()
			sh.itemTuples = make(map[int][]int32)
			for i := lo; i < hi; i++ {
				r := ds.Ratings[i]
				t, err := joinRatingReference(ds, r)
				if err != nil {
					sh.err = fmt.Errorf("store: rating %d: %w", i, err)
					return
				}
				tuples[i] = t
				if !sh.seen || r.Unix < sh.minUnix {
					sh.minUnix = r.Unix
				}
				if !sh.seen || r.Unix > sh.maxUnix {
					sh.maxUnix = r.Unix
				}
				sh.seen = true
				sh.itemTuples[r.ItemID] = append(sh.itemTuples[r.ItemID], int32(i))
			}
		}(&shards[w], lo, hi)
	}
	wg.Wait()
	merged := false
	for w := range shards {
		sh := &shards[w]
		if sh.err != nil {
			return refJoined{}, sh.err
		}
		if !sh.seen {
			continue
		}
		if !merged || sh.minUnix < pj.MinUnix {
			pj.MinUnix = sh.minUnix
		}
		if !merged || sh.maxUnix > pj.MaxUnix {
			pj.MaxUnix = sh.maxUnix
		}
		merged = true
		for id, idxs := range sh.itemTuples {
			pj.ItemTuples[id] = append(pj.ItemTuples[id], idxs...)
		}
	}
	for _, idxs := range pj.ItemTuples {
		sort.Slice(idxs, func(a, b int) bool {
			ta, tb := tuples[idxs[a]].Unix, tuples[idxs[b]].Unix
			if ta != tb {
				return ta < tb
			}
			return idxs[a] < idxs[b]
		})
	}
	return pj, nil
}

// checkSameJoin requires Join's output to equal the reference's: the
// same run for every catalog item (and no index entry outside the
// catalog's runs), beside each entry its reviewer's position, from which
// the Joiner rebuilds the reference's tuple, and the same time range.
func checkSameJoin(t *testing.T, ds *model.Dataset, got Prejoined, want refJoined) {
	t.Helper()
	if got.MinUnix != want.MinUnix || got.MaxUnix != want.MaxUnix {
		t.Fatalf("time range [%d,%d], reference [%d,%d]", got.MinUnix, got.MaxUnix, want.MinUnix, want.MaxUnix)
	}
	if len(got.ItemOffsets) != len(ds.Items)+1 || len(got.ItemIndex) != len(ds.Ratings) || len(got.ItemUsers) != len(ds.Ratings) {
		t.Fatalf("item index has %d offsets, %d entries and %d reviewer positions for %d items and %d ratings",
			len(got.ItemOffsets), len(got.ItemIndex), len(got.ItemUsers), len(ds.Items), len(ds.Ratings))
	}
	covered := 0
	for i, it := range ds.Items {
		run, users := got.ItemRun(i)
		ref := want.ItemTuples[it.ID]
		if !slices.Equal(run, ref) {
			t.Fatalf("item %d: run %v, reference %v", it.ID, head(run), head(ref))
		}
		if cap(run) != len(run) || cap(users) != len(users) {
			t.Fatalf("item %d: run has spare capacity %d/%d", it.ID, cap(run)-len(run), cap(users)-len(users))
		}
		for k, p := range run {
			r := ds.Ratings[p]
			if int(users[k]) != ds.UserIndex(int(r.UserID)) {
				t.Fatalf("item %d: entry %d has reviewer position %d, rating %d's user is at %d", it.ID, k, users[k], p, ds.UserIndex(int(r.UserID)))
			}
			if tp := cube.JoinRating(r, got.Joiner.vals[users[k]]); tp != want.Tuples[p] {
				t.Fatalf("item %d: entry %d rebuilds %+v, reference tuple %+v", it.ID, k, tp, want.Tuples[p])
			}
		}
		covered += len(ref)
	}
	if covered != len(ds.Ratings) {
		t.Fatalf("reference index covers %d of %d ratings", covered, len(ds.Ratings))
	}
}

func head(xs []int32) []int32 {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}

// derived indexes a dataset over the given catalog and ratings.
func derived(t *testing.T, users []model.User, items []model.Item, ratings []model.Rating) *model.Dataset {
	t.Helper()
	ds, err := model.NewDataset(users, items, ratings)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// firstLegalUnix and lastLegalUnix are the first second of model.MinYear
// and the last second of model.MaxYear.
var (
	firstLegalUnix = time.Date(model.MinYear, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	lastLegalUnix  = time.Date(model.MaxYear+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - 1
)

// joinInputs are the differential test's datasets. Every input built
// from the small fixture holds more than openParallelMin ratings, so at
// GOMAXPROCS 4 both joins shard.
func joinInputs(t *testing.T) map[string]*model.Dataset {
	base := smallDataset(t)
	if len(base.Ratings) < openParallelMin {
		t.Fatalf("fixture has %d ratings, below the parallel threshold %d", len(base.Ratings), openParallelMin)
	}
	clone := func() []model.Rating { return append([]model.Rating(nil), base.Ratings...) }
	in := map[string]*model.Dataset{"small": base}

	shuffled := clone()
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	in["shuffled"] = derived(t, base.Users, base.Items, shuffled)

	// Seven distinct timestamps over the whole log: long runs of equal
	// keys inside every item and across items.
	ties := clone()
	for i := range ties {
		ties[i].Unix = 1e9 + int64(i%7)
	}
	in["equal-timestamps"] = derived(t, base.Users, base.Items, ties)

	// Sparse IDs in descending catalog order: every lookup takes the
	// map path, and no ID equals its position.
	users := append([]model.User(nil), base.Users...)
	items := append([]model.Item(nil), base.Items...)
	slices.Reverse(users)
	slices.Reverse(items)
	sparse := func(id int) int { return id*7919 + 1_000_003 }
	for i := range users {
		users[i].ID = sparse(users[i].ID)
	}
	for i := range items {
		items[i].ID = sparse(items[i].ID)
	}
	remapped := clone()
	for i := range remapped {
		remapped[i].UserID = int32(sparse(int(remapped[i].UserID)))
		remapped[i].ItemID = sparse(remapped[i].ItemID)
	}
	in["sparse-ids"] = derived(t, users, items, remapped)

	// The widest legal span: a few ratings at the first second of
	// MinYear and the last second of MaxYear, and every 97th spread over
	// the years between, among the ordinary ones.
	wide := clone()
	for i := 0; i+1 < len(wide); i += len(wide) / 5 {
		wide[i].Unix = firstLegalUnix
		wide[i+1].Unix = lastLegalUnix
	}
	for i := 2; i < len(wide); i += 97 {
		wide[i].Unix = firstLegalUnix + (lastLegalUnix-firstLegalUnix)/int64(len(wide))*int64(i)
	}
	in["widest-span"] = derived(t, base.Users, base.Items, wide)

	in["one-rating"] = derived(t, base.Users, base.Items, base.Ratings[:1:1])
	in["empty"] = derived(t, base.Users, base.Items, nil)
	return in
}

// TestJoinMatchesReference is Join's differential test: on every input,
// at GOMAXPROCS 1 and 4, Join returns exactly what joinReference does.
func TestJoinMatchesReference(t *testing.T) {
	for name, ds := range joinInputs(t) {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				want, err := joinReference(ds)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				got, err := Join(ds)
				if err != nil {
					t.Fatalf("Join: %v", err)
				}
				checkSameJoin(t, ds, got, want)
			})
		}
	}
}

// TestJoinReportsLowestBadRating: with bad ratings in two shards, Join
// names the lower one, in the wording of the per-rating check.
func TestJoinReportsLowestBadRating(t *testing.T) {
	base := smallDataset(t)
	n := len(base.Ratings)
	for _, c := range []struct {
		name string
		bad  func(r *model.Rating)
		want string
	}{
		{"unknown-user", func(r *model.Rating) { r.UserID = 99_999_999 }, "unknown user 99999999"},
		{"unknown-item", func(r *model.Rating) { r.ItemID = 99_999_999 }, "unknown item 99999999"},
		{"score", func(r *model.Rating) { r.Score = 9 }, "model: rating score 9 outside [1,5]"},
		{"year-10000", func(r *model.Rating) { r.Unix = lastLegalUnix + 1 }, fmt.Sprintf("model: rating timestamp %d outside years 1..9999", lastLegalUnix+1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			ratings := append([]model.Rating(nil), base.Ratings...)
			lo, hi := n/4+5, 3*n/4+5 // inside the second and the fourth shard
			c.bad(&ratings[lo])
			c.bad(&ratings[hi])
			ds := derived(t, base.Users, base.Items, ratings)
			_, err := Join(ds)
			want := fmt.Sprintf("store: rating %d: %s", lo, c.want)
			if err == nil || err.Error() != want {
				t.Fatalf("Join error %v, want %q", err, want)
			}
			if _, ref := joinReference(ds); ref == nil || ref.Error() != want {
				t.Fatalf("reference error %v, want %q", ref, want)
			}
		})
	}
}

// TestTimeOrder checks the radix sort against a comparison sort on
// random keys over spans from one second to every legal year, ties
// included.
func TestTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, span := range []int64{0, 1, 1 << 11, 1<<22 + 3, 1 << 33, lastLegalUnix - firstLegalUnix} {
		ratings := make([]model.Rating, 5000)
		for i := range ratings {
			ratings[i].Unix = firstLegalUnix + rng.Int63n(span+1)
			if i%3 == 0 && i > 0 {
				ratings[i].Unix = ratings[i-1].Unix // ties
			}
		}
		lo, hi := ratings[0].Unix, ratings[0].Unix
		for _, r := range ratings {
			lo, hi = min(lo, r.Unix), max(hi, r.Unix)
		}
		want := make([]int32, len(ratings))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return ratings[want[a]].Unix < ratings[want[b]].Unix })
		if got := timeOrder(ratings, lo, hi); !slices.Equal(got, want) {
			t.Errorf("span %d: radix order differs from the comparison sort", span)
		}
	}
}
