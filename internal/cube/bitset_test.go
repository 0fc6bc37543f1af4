package cube

import (
	"sync"
	"testing"
)

func TestMemberBitsMatchMemberLists(t *testing.T) {
	c := Build(randomTuples(1500, 61), Config{RequireState: true, MinSupport: 3, MaxAVPairs: 3, SkipApex: true})
	bits := c.MemberBits()
	if len(bits) != c.Len() {
		t.Fatalf("bitsets = %d, groups = %d", len(bits), c.Len())
	}
	words := BitsetWords(len(c.Tuples))
	sawDense, sawSparse := false, false
	for gi := range c.Groups {
		support := len(c.Groups[gi].Members)
		if support < words {
			// Sparse group: below the dense cut, no bitset materialized.
			sawSparse = true
			if bits[gi] != nil {
				t.Fatalf("group %d (support %d < %d words) has a dense bitset", gi, support, words)
			}
			continue
		}
		sawDense = true
		if len(bits[gi]) != words {
			t.Fatalf("group %d bitset has %d words, want %d", gi, len(bits[gi]), words)
		}
		if got := PopCount(bits[gi]); got != support {
			t.Fatalf("group %d popcount %d != member count %d", gi, got, support)
		}
		for _, ti := range c.Groups[gi].Members {
			if bits[gi][ti>>6]&(1<<(uint(ti)&63)) == 0 {
				t.Fatalf("group %d member %d not set in bitset", gi, ti)
			}
		}
	}
	if !sawDense || !sawSparse {
		t.Fatalf("fixture should exercise both sides of the dense cut (dense=%v sparse=%v)", sawDense, sawSparse)
	}
}

func TestMemberBitsCachedOnce(t *testing.T) {
	c := Build(randomTuples(500, 67), DefaultConfig())
	before := c.SizeBytes()
	a := c.MemberBits()
	mid := c.SizeBytes()
	b := c.MemberBits()
	if len(a) > 0 && &a[0] != &b[0] {
		t.Fatal("MemberBits rebuilt instead of returning the cached table")
	}
	if mid <= before {
		t.Errorf("SizeBytes did not grow after bitset build: %d -> %d", before, mid)
	}
}

// TestLazyCachesConcurrent hammers the lazily built bitsets from many
// goroutines; run under -race this pins the sync.Once + atomic accounting
// against concurrent first use (the plan cache shares cubes across
// requests).
func TestLazyCachesConcurrent(t *testing.T) {
	c := Build(randomTuples(2000, 71), DefaultConfig())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if bits := c.MemberBits(); len(bits) != c.Len() {
				t.Errorf("bad bitset table size: %d, want %d", len(bits), c.Len())
			}
			if c.SizeBytes() <= 0 {
				t.Error("non-positive SizeBytes")
			}
		}()
	}
	wg.Wait()
}

func TestBitsetOps(t *testing.T) {
	a := []uint64{0b1011, 1 << 63}
	b := []uint64{0b0110, 0}
	if got := PopCount(a); got != 4 {
		t.Errorf("PopCount = %d, want 4", got)
	}
	if got := AndNotCount(a, b); got != 3 { // bits 0, 3, 127
		t.Errorf("AndNotCount = %d, want 3", got)
	}
	dst := make([]uint64, 2)
	OrInto(dst, a)
	OrInto(dst, b)
	if dst[0] != 0b1111 || dst[1] != 1<<63 {
		t.Errorf("OrInto = %b %b", dst[0], dst[1])
	}
	OrInto(nil, nil) // zero-length inputs must be no-ops
	if AndNotCount(nil, nil) != 0 || PopCount(nil) != 0 {
		t.Error("empty bitset ops should be zero")
	}
	if BitsetWords(0) != 0 || BitsetWords(1) != 1 || BitsetWords(64) != 1 || BitsetWords(65) != 2 {
		t.Errorf("BitsetWords wrong: %d %d %d %d",
			BitsetWords(0), BitsetWords(1), BitsetWords(64), BitsetWords(65))
	}
}
