package store

import (
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cube"
	"repro/internal/model"
)

// materialized is the reference a store's gathers must match: the whole
// log joined into tuples up front, base ratings then appended ones, as
// stores once kept it, with the ratings beside them.
type materialized struct {
	ratings []model.Rating
	tuples  []cube.Tuple
	epochs  []int           // log length at the end of each epoch, from epoch 1
	byItem  map[int][]int32 // item ID -> log positions sorted by (Unix, position); built by index
}

func materialize(ds *model.Dataset) *materialized {
	m := &materialized{epochs: []int{len(ds.Ratings)}}
	m.add(ds, ds.Ratings)
	return m
}

func (m *materialized) add(ds *model.Dataset, ratings []model.Rating) {
	for _, r := range ratings {
		m.ratings = append(m.ratings, r)
		m.tuples = append(m.tuples, cube.JoinRating(r, cube.UserVals(ds.UserByID(int(r.UserID)))))
	}
}

func (m *materialized) append(ds *model.Dataset, batch []model.Rating) {
	m.add(ds, batch)
	m.epochs = append(m.epochs, len(m.tuples))
}

// index sorts every item's log positions by (Unix, position) with a
// comparison sort, after the last append.
func (m *materialized) index() {
	m.byItem = map[int][]int32{}
	for p, r := range m.ratings {
		m.byItem[r.ItemID] = append(m.byItem[r.ItemID], int32(p))
	}
	for _, pos := range m.byItem {
		sort.SliceStable(pos, func(a, b int) bool { return m.tuples[pos[a]].Unix < m.tuples[pos[b]].Unix })
	}
}

// gather is TuplesForItemsAt over the materialized log: per item, in
// the order given, the item's tuples below the epoch's log length and
// inside the window, in (Unix, log position) order.
func (m *materialized) gather(itemIDs []int, w TimeWindow, epoch uint64) []cube.Tuple {
	mark := m.epochs[len(m.epochs)-1]
	if epoch != 0 && int(epoch) < len(m.epochs) {
		mark = m.epochs[epoch-1]
	}
	var out []cube.Tuple
	for _, id := range itemIDs {
		for _, p := range m.byItem[id] {
			if t := m.tuples[p]; int(p) < mark && w.Contains(t.Unix) {
				out = append(out, t)
			}
		}
	}
	return out
}

// TestGatherMatchesMaterializedLog is the gather's differential test:
// for every item, under an unbounded, a bounded and a Between(0, x)
// window, at every pinned epoch and the latest, TuplesForItemsAt equals
// the same gather over the log joined up front. The appended batches
// spread over many reviewers and land before, inside and after the
// items' runs, ties with existing timestamps included. A tuple names no
// reviewer, so two reviewers with equal attribute values would gather
// equal tuples; the test also requires every run's reviewer positions to
// name each rating's own reviewer.
func TestGatherMatchesMaterializedLog(t *testing.T) {
	ds := smallDataset(t)
	s, err := openDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := materialize(ds)
	lo, hi := s.TimeRange()
	mid := lo + (hi-lo)/2

	// Three batches, each on a few items: one rating before the log's
	// start, one at the same second as an existing rating of the item,
	// one between the log's bounds and one after its end.
	items := []int{ds.Ratings[0].ItemID, ds.Ratings[len(ds.Ratings)/2].ItemID, ds.Ratings[len(ds.Ratings)-1].ItemID}
	for e := uint64(2); e <= 4; e++ {
		var batch []model.Rating
		for k, id := range items {
			var tie int64
			for _, r := range ds.Ratings {
				if r.ItemID == id {
					tie = r.Unix
					break
				}
			}
			for j, unix := range []int64{lo - int64(e), tie, mid + int64(k), hi + int64(e)} {
				u := ds.Users[(int(e)*31+k*7+j)%len(ds.Users)].ID
				batch = append(batch, model.Rating{UserID: int32(u), ItemID: id, Score: int8(1 + (j+k)%5), Unix: unix})
			}
		}
		joined := make([]Joined, len(batch))
		for i, r := range batch {
			if joined[i], err = s.JoinRating(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(e, joined); err != nil {
			t.Fatal(err)
		}
		ref.append(ds, batch)
	}
	ref.index()

	for id, run := range s.items {
		for k, p := range run.pos {
			if r := s.log.ratingAt(p); int(run.users[k]) != ds.UserIndex(int(r.UserID)) {
				t.Fatalf("item %d, entry %d: reviewer position %d, the rating's reviewer is at %d", id, k, run.users[k], ds.UserIndex(int(r.UserID)))
			}
		}
	}
	windows := []TimeWindow{{}, {From: lo + (hi-lo)/4, To: mid}, Between(0, mid)}
	all := make([]int, len(ds.Items))
	for i := range ds.Items {
		all[i] = ds.Items[i].ID
	}
	for epoch := uint64(0); epoch <= 4; epoch++ {
		for _, w := range windows {
			for _, id := range all {
				if got, want := s.TuplesForItemsAt([]int{id}, w, epoch), ref.gather([]int{id}, w, epoch); !slices.Equal(got, want) {
					t.Fatalf("item %d, window %v, epoch %d: gathered %d tuples, the materialized log %d (or their contents differ)", id, w, epoch, len(got), len(want))
				}
			}
			ids := append(slices.Clone(items), all[:50]...)
			if got, want := s.TuplesForItemsAt(ids, w, epoch), ref.gather(ids, w, epoch); !slices.Equal(got, want) {
				t.Fatalf("%d items, window %v, epoch %d: the gather differs from the materialized log", len(ids), w, epoch)
			}
		}
	}
}

// TestAppendSharesBaseLog: a store's base log is the dataset's own
// ratings, shared with every other store over the dataset. Appends
// neither copy nor write it, and a second store over the same dataset
// gathers what it gathered before them.
func TestAppendSharesBaseLog(t *testing.T) {
	ds := smallDataset(t)
	before := slices.Clone(ds.Ratings)
	first, err := openDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := openDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(ds.Items))
	for i := range ds.Items {
		ids[i] = ds.Items[i].ID
	}
	want := second.TuplesForItems(ids, TimeWindow{})
	for e := uint64(2); e <= 4; e++ {
		if err := first.Append(e, appendBatch(t, first, 5)); err != nil {
			t.Fatal(err)
		}
		base := first.log.base
		if unsafe.SliceData(base) != unsafe.SliceData(ds.Ratings) || len(base) != len(ds.Ratings) || cap(base) != len(base) {
			t.Fatalf("epoch %d: the base log is no longer the dataset's ratings, capped at their length", e)
		}
		if !slices.Equal(ds.Ratings, before) {
			t.Fatalf("epoch %d: the append wrote into the dataset's ratings", e)
		}
		if got := second.TuplesForItems(ids, TimeWindow{}); !slices.Equal(got, want) {
			t.Fatalf("epoch %d: an append to one store changed another's gather", e)
		}
	}
}

// gatherAdded lists, for the gather of itemIDs in w at epoch, the
// indices of the tuples at or above prevEpoch's log length: the ones a
// successor gather seeded at prevEpoch joins from the log.
func (m *materialized) gatherAdded(itemIDs []int, w TimeWindow, prevEpoch, epoch uint64) []int32 {
	mark, prevMark := m.epochs[len(m.epochs)-1], m.epochs[prevEpoch-1]
	if epoch != 0 && int(epoch) < len(m.epochs) {
		mark = m.epochs[epoch-1]
	}
	var added []int32
	n := int32(0)
	for _, id := range itemIDs {
		for _, p := range m.byItem[id] {
			if int(p) >= mark || !w.Contains(m.tuples[p].Unix) {
				continue
			}
			if int(p) >= prevMark {
				added = append(added, n)
			}
			n++
		}
	}
	return added
}

// TestSuccessorTuplesMatchGather: a successor gather, seeded with the
// gather at an earlier epoch, returns the gather at its own epoch, and
// its inserted indices name exactly the tuples appended since the seed.
// Batches land before the log, at the same second as existing ratings
// (ties), inside and after it, and one to four of them lie between the
// seed and the read, under unbounded, bounded and Between windows.
func TestSuccessorTuplesMatchGather(t *testing.T) {
	ds := smallDataset(t)
	s, err := openDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := materialize(ds)
	lo, hi := s.TimeRange()
	mid := lo + (hi-lo)/2
	items := []int{ds.Ratings[0].ItemID, ds.Ratings[len(ds.Ratings)/3].ItemID, ds.Ratings[len(ds.Ratings)-1].ItemID}
	const last = 5
	for e := uint64(2); e <= last; e++ {
		var batch []model.Rating
		for k, id := range items {
			var ties []int64
			for _, r := range ds.Ratings {
				if r.ItemID == id {
					ties = append(ties, r.Unix)
				}
			}
			tie := ties[len(ties)*int(e)/(last+1)]
			for j, unix := range []int64{lo - int64(e), tie, tie, mid + int64(k), hi + int64(e)} {
				u := ds.Users[(int(e)*37+k*11+j)%len(ds.Users)].ID
				batch = append(batch, model.Rating{UserID: int32(u), ItemID: id, Score: int8(1 + (j+k+int(e))%5), Unix: unix})
			}
		}
		joined := make([]Joined, len(batch))
		for i, r := range batch {
			if joined[i], err = s.JoinRating(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(e, joined); err != nil {
			t.Fatal(err)
		}
		ref.append(ds, batch)
	}
	ref.index()

	windows := []TimeWindow{{}, {From: lo + (hi-lo)/4, To: mid}, Between(0, mid), Since(mid)}
	idSets := [][]int{{items[0]}, {items[1]}, {items[2]}, items, {items[2], ds.Ratings[1].ItemID, items[0]}}
	inserted := 0
	for seed := uint64(1); seed < last; seed++ {
		for epoch := seed + 1; epoch <= last; epoch++ {
			for _, w := range windows {
				for _, ids := range idSets {
					sd := newSeed(seed, &Plan{Tuples: s.TuplesForItemsAt(ids, w, seed)})
					got, added := s.SuccessorTuplesAt(ids, w, epoch, sd)
					if want := s.TuplesForItemsAt(ids, w, epoch); !slices.Equal(got, want) {
						t.Fatalf("items %v, window %v, seed %d, epoch %d: successor gathered %d tuples, the gather %d (or their contents differ)", ids, w, seed, epoch, len(got), len(want))
					}
					if want := ref.gatherAdded(ids, w, seed, epoch); !slices.Equal(added, want) {
						t.Fatalf("items %v, window %v, seed %d, epoch %d: inserted indices %v, want %v", ids, w, seed, epoch, added, want)
					}
					inserted += len(added)
				}
			}
		}
	}
	if inserted == 0 {
		t.Fatal("no successor gather joined a tuple from the log")
	}
	// The latest epoch resolves as 0 too.
	sd := newSeed(1, &Plan{Tuples: s.TuplesForItemsAt(items, TimeWindow{}, 1)})
	if got, _ := s.SuccessorTuplesAt(items, TimeWindow{}, 0, sd); !slices.Equal(got, s.TuplesForItems(items, TimeWindow{})) {
		t.Fatal("a successor gather at epoch 0 differs from the latest gather")
	}
}
