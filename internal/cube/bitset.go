package cube

import "math/bits"

// Coverage bitsets: each candidate group's member set as a dense
// []uint64 over the cube's tuple indices. The mining layer's coverage
// constraint ("the selected groups jointly cover ≥ α·|R_I| tuples") then
// reduces to word-wise OR and popcount instead of re-scanning member
// lists — the dominant cost of Randomized Hill Exploration's sampled
// neighbourhood evaluation.

// BitsetWords returns the number of 64-bit words a bitset over n tuples
// needs.
func BitsetWords(n int) int { return (n + 63) / 64 }

// MemberBits returns a dense bitset per dense group, bit ti set iff tuple
// ti is a member; the entry is nil for groups whose support is below the
// bitset word count. The cut is the break-even point of the coverage ops:
// OR-ing or AND-NOT-counting a dense group costs `words` word operations
// against `support` member-list operations, so a bitset only pays when
// support ≥ words — and materializing one per sparse group would also
// blow memory on large R_I (a whole-genre query has thousands of
// candidates of a hundred members each over 100k+ tuples; all-dense
// bitsets there cost ~100MB per cold build for structures that word-scan
// slower than the lists they replace). Sparse groups keep evaluating
// through their member lists against the dense base bitset.
//
// The table is built once per Cube — dense groups share one backing
// arena — and cached, so every solve on a materialized plan after the
// first (Explain, ExploreGroup, RefineGroup, DrillMine, each evolution
// window) gets it for free. The returned bitsets are shared and must be
// treated as immutable.
func (c *Cube) MemberBits() [][]uint64 {
	c.bitsOnce.Do(func() {
		words := BitsetWords(len(c.Tuples))
		dense := 0
		for i := range c.Groups {
			if len(c.Groups[i].Members) >= words {
				dense++
			}
		}
		arena := make([]uint64, words*dense)
		bits := make([][]uint64, len(c.Groups))
		next := 0
		for i := range c.Groups {
			if len(c.Groups[i].Members) < words {
				continue
			}
			b := arena[next*words : (next+1)*words : (next+1)*words]
			next++
			for _, ti := range c.Groups[i].Members {
				b[ti>>6] |= 1 << (uint(ti) & 63)
			}
			bits[i] = b
		}
		c.bits = bits
		c.bitsBytes.Store(int64(len(arena))*8 + int64(len(bits))*24)
	})
	return c.bits
}

// OrInto ORs src into dst word-wise. The slices must have equal length.
func OrInto(dst, src []uint64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, w := range src {
		dst[i] |= w
	}
}

// PopCount returns the number of set bits in b.
func PopCount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndNotCount returns |a \ b|: the number of bits set in a but not in b.
// The slices must have equal length.
func AndNotCount(a, b []uint64) int {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return n
}
