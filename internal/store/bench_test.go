package store

import (
	"strconv"
	"testing"
)

func benchStore(b *testing.B, opts Options) *Store {
	b.Helper()
	s, err := openDataset(smallDataset(b), opts)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTuplesForItems(b *testing.B) {
	s := benchStore(b, Options{})
	ids := s.ItemsByActor("Tom Hanks")
	if len(ids) == 0 {
		b.Fatal("no items")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tuples := s.TuplesForItems(ids, TimeWindow{}); len(tuples) == 0 {
			b.Fatal("no tuples")
		}
	}
}

func BenchmarkTuplesForItemsWindowed(b *testing.B) {
	s := benchStore(b, Options{})
	ids := s.ItemsByActor("Tom Hanks")
	lo, hi := s.TimeRange()
	w := TimeWindow{From: lo + (hi-lo)/4, To: lo + (hi-lo)/2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TuplesForItems(ids, w)
	}
}

func BenchmarkItemsByTitleTerms(b *testing.B) {
	s := benchStore(b, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := s.ItemsByTitleTerms("lord rings"); len(ids) != 3 {
			b.Fatalf("matched %d", len(ids))
		}
	}
}

func BenchmarkLRUGetPut(b *testing.B) {
	c := NewLRU(256)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = "key-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, ok := c.Get(k); !ok {
			c.Put(k, i)
		}
	}
}
