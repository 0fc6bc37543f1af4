package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cube"
	"repro/internal/dataset"
	"repro/internal/model"
)

var (
	dsOnce sync.Once
	dsMemo *model.Dataset
)

func smallDataset(t testing.TB) *model.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cfg := dataset.SmallGenConfig()
		var err error
		dsMemo, err = dataset.Generate(cfg)
		if err != nil {
			panic(err)
		}
	})
	return dsMemo
}

func openStore(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Open(smallDataset(t), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestOpenBasics(t *testing.T) {
	s := openStore(t, DefaultOptions())
	ds := s.Dataset()
	if s.NumTuples() != len(ds.Ratings) {
		t.Errorf("NumTuples = %d, want %d", s.NumTuples(), len(ds.Ratings))
	}
	lo, hi := s.TimeRange()
	if lo <= 0 || hi < lo {
		t.Errorf("TimeRange = [%d,%d]", lo, hi)
	}
	if s.Cache() == nil {
		t.Error("cache enabled but Cache is nil")
	}
	if openStore(t, Options{}).Cache() != nil {
		t.Error("Cache should be nil when disabled")
	}
}

func TestOpenNil(t *testing.T) {
	if _, err := Open(nil, DefaultOptions()); err == nil {
		t.Error("Open(nil) should fail")
	}
}

func TestItemAttributeIndexes(t *testing.T) {
	s := openStore(t, Options{})
	ds := s.Dataset()

	ts := ds.ItemsByTitle("Toy Story")[0]
	ids := s.ItemsByTitle("toy story") // case-insensitive
	if len(ids) != 1 || ids[0] != ts.ID {
		t.Errorf("ItemsByTitle = %v, want [%d]", ids, ts.ID)
	}

	hanks := s.ItemsByActor("Tom Hanks")
	if len(hanks) < 5 {
		t.Errorf("Tom Hanks items = %d, want several planted titles", len(hanks))
	}
	found := false
	for _, id := range hanks {
		if id == ts.ID {
			found = true
		}
	}
	if !found {
		t.Error("Toy Story missing from Tom Hanks filmography")
	}

	spielberg := s.ItemsByDirector("steven spielberg")
	if len(spielberg) < 4 {
		t.Errorf("Spielberg items = %d", len(spielberg))
	}

	anim := s.ItemsByGenre("Animation")
	if len(anim) == 0 {
		t.Fatal("no animation items")
	}
	for _, id := range anim {
		it := ds.ItemByID(id)
		ok := false
		for _, g := range it.Genres {
			if g == "Animation" {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("item %d indexed under Animation without the genre", id)
		}
	}

	if got := s.ItemsByActor("Nobody Nobodyson"); got != nil {
		t.Errorf("unknown actor = %v", got)
	}
}

func TestItemsByTitleTerms(t *testing.T) {
	s := openStore(t, Options{})
	ids := s.ItemsByTitleTerms("lord rings")
	if len(ids) != 3 {
		t.Fatalf("'lord rings' matched %d items, want the 3 LOTR movies", len(ids))
	}
	for _, id := range ids {
		title := s.Dataset().ItemByID(id).Title
		if want := "The Lord of the Rings"; len(title) < len(want) || title[:len(want)] != want {
			t.Errorf("unexpected match %q", title)
		}
	}
	if ids := s.ItemsByTitleTerms("zzzunknownterm"); ids != nil {
		t.Errorf("unknown term matched %v", ids)
	}
	if ids := s.ItemsByTitleTerms("  "); ids != nil {
		t.Errorf("empty query matched %v", ids)
	}
	// Single very common term intersected with a rare one must stay exact.
	both := s.ItemsByTitleTerms("toy story")
	if len(both) != 2 { // Toy Story, Toy Story 2
		t.Errorf("'toy story' matched %d items, want 2", len(both))
	}
}

func TestTuplesForItems(t *testing.T) {
	s := openStore(t, Options{})
	ds := s.Dataset()
	ts := ds.ItemsByTitle("Toy Story")[0]

	tuples := s.TuplesForItems([]int{ts.ID}, TimeWindow{})
	// Cross-check against a raw scan of the rating log.
	want := 0
	for _, r := range ds.Ratings {
		if r.ItemID == ts.ID {
			want++
		}
	}
	if len(tuples) != want {
		t.Fatalf("got %d tuples, raw scan says %d", len(tuples), want)
	}
	for _, tp := range tuples {
		if tp.ItemID != int32(ts.ID) {
			t.Fatal("foreign tuple in result")
		}
	}
}

func TestTuplesForItemsWindow(t *testing.T) {
	s := openStore(t, Options{})
	ds := s.Dataset()
	ts := ds.ItemsByTitle("Toy Story")[0]
	lo, hi := s.TimeRange()
	mid := lo + (hi-lo)/2

	first := s.TuplesForItems([]int{ts.ID}, TimeWindow{To: mid})
	second := s.TuplesForItems([]int{ts.ID}, TimeWindow{From: mid + 1})
	all := s.TuplesForItems([]int{ts.ID}, TimeWindow{})
	if len(first)+len(second) != len(all) {
		t.Fatalf("window split %d + %d != %d", len(first), len(second), len(all))
	}
	for _, tp := range first {
		if tp.Unix > mid {
			t.Fatal("tuple after window end")
		}
	}
	for _, tp := range second {
		if tp.Unix <= mid {
			t.Fatal("tuple before window start")
		}
	}
	// Cross-check one bounded window against a raw scan.
	w := TimeWindow{From: lo + (hi-lo)/4, To: lo + (hi-lo)/2}
	got := s.TuplesForItems([]int{ts.ID}, w)
	want := 0
	for _, r := range ds.Ratings {
		if r.ItemID == ts.ID && w.Contains(r.Unix) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("windowed tuples = %d, raw scan = %d", len(got), want)
	}
}

func TestTuplesForItemsMultiItem(t *testing.T) {
	s := openStore(t, Options{})
	ids := s.ItemsByDirector("Steven Spielberg")
	tuples := s.TuplesForItems(ids, TimeWindow{})
	sum := 0
	for _, id := range ids {
		sum += len(s.TuplesForItems([]int{id}, TimeWindow{}))
	}
	if len(tuples) != sum {
		t.Fatalf("multi-item tuples = %d, want %d", len(tuples), sum)
	}
}

func TestTimeWindowContains(t *testing.T) {
	w := TimeWindow{From: 100, To: 200}
	for ts, want := range map[int64]bool{99: false, 100: true, 150: true, 200: true, 201: false} {
		if w.Contains(ts) != want {
			t.Errorf("Contains(%d) = %v, want %v", ts, w.Contains(ts), want)
		}
	}
	all := TimeWindow{}
	if !all.IsAll() || !all.Contains(-5) || !all.Contains(1<<60) {
		t.Error("zero window must contain everything")
	}
	if all.String() != "[all]" {
		t.Errorf("all window String = %q", all.String())
	}
	if w.String() != "[100,200]" {
		t.Errorf("window String = %q", w.String())
	}
}

func TestStateAggsMatchRawScan(t *testing.T) {
	s := openStore(t, DefaultOptions())
	aggs, _ := s.StateAggsAt(0)
	// A state's browse aggregate must match a raw scan.
	ds := s.Dataset()
	var want cube.Agg
	for _, r := range ds.Ratings {
		if ds.UserByID(r.UserID).State == "CA" {
			want.Add(int8(r.Score))
		}
	}
	if got := aggs[cube.StateIndex("CA")]; got != want {
		t.Fatalf("CA browse agg = %+v, raw scan = %+v", got, want)
	}
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatal("miss on a")
	}
	c.Put("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 3/2", hits, misses)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double put", c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatal("update lost")
	}
}

func TestLRUReset(t *testing.T) {
	c := NewLRU(4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("b")
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("Reset left entries")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("Reset left counters")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := NewLRU(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%100)
				if v, ok := c.Get(key); ok {
					_ = v
				}
				c.Put(key, i)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
}

func TestLRUZeroMax(t *testing.T) {
	c := NewLRU(0)
	c.Put("a", 1)
	if c.Len() != 1 {
		t.Fatal("NewLRU(0) should clamp to capacity 1")
	}
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatal("capacity-1 cache grew")
	}
}
