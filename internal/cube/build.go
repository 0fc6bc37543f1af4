package cube

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Group is one materialized cube cell over the input tuples: a candidate
// explanation group. Members holds the indices (into the Cube's tuple
// slice) of the tuples the group covers, which the mining layer uses for
// coverage computation and drill-down.
type Group struct {
	Key     Key
	Agg     Agg
	Members []int32
}

// Mean is a convenience accessor for the group's average score.
func (g *Group) Mean() float64 { return g.Agg.Mean() }

// Support is the number of rating tuples the group covers.
func (g *Group) Support() int { return g.Agg.Count }

// MAD computes the mean absolute deviation of the group's scores around its
// mean — the alternative consistency error ablated against the O(1) σ.
// It needs a pass over the members, so it is not used on the mining hot
// path.
func (g *Group) MAD(tuples []Tuple) float64 {
	if len(g.Members) == 0 {
		return 0
	}
	m := g.Mean()
	var sum float64
	for _, ti := range g.Members {
		d := float64(tuples[ti].Score) - m
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(g.Members))
}

// Config controls candidate-group construction.
type Config struct {
	// RequireState restricts candidates to groups carrying a state
	// condition, the paper's demo mode ("each of the groups always specify
	// the state as their geo condition").
	RequireState bool
	// RequireCity restricts candidates to groups carrying a city
	// condition — drill-down mining inside a state group. It is the one
	// mode in which City enters a candidate: without it, state-level
	// mining pays nothing for the extra attribute.
	RequireCity bool
	// MinSupport prunes cells covering fewer tuples. The paper requires
	// each returned group to "cover a reasonable fraction" of ratings;
	// pruning rare cells also keeps the candidate space tractable.
	MinSupport int
	// MaxAVPairs caps the description length (number of attribute-value
	// pairs, including the state condition) so labels stay "meaningful" and
	// readable. 0 means no cap.
	MaxAVPairs int
	// SkipApex excludes the fully unconstrained group ⟨all⟩, which explains
	// nothing (it is the overall average the paper argues against).
	SkipApex bool
}

// DefaultConfig mirrors the demo's setup: geo-anchored, readable labels.
func DefaultConfig() Config {
	return Config{RequireState: true, MinSupport: 12, MaxAVPairs: 3, SkipApex: true}
}

// FrameworkConfig is the un-anchored framework mode of the paper's intro
// (the Twilight analysis: male vs female under-18 reviewers): groups need
// no geo-condition, so descriptions are capped at two pairs and the
// support cut is lower to keep small demographic slices in play.
func FrameworkConfig() Config {
	return Config{RequireState: false, MinSupport: 8, MaxAVPairs: 2, SkipApex: true}
}

// Cube is the materialized set of candidate groups over a tuple set R_I.
type Cube struct {
	Tuples []Tuple
	Groups []Group
	Cfg    Config

	byKey map[Key]int

	// The solver's coverage bitsets, built lazily and cached. Cubes are
	// shared across requests through the plan-materialization tier, so the
	// table is amortized across every later solve on the same plan. The
	// atomic byte counter lets SizeBytes stay safe against a concurrent
	// first build.
	bitsOnce  sync.Once
	bits      [][]uint64
	bitsBytes atomic.Int64
}

// Build materializes every cube cell with at least one tuple that passes
// cfg's pruning rules. This is the "set of groups that has at least one
// rating tuple in R_I are then constructed" step of §2.3.
//
// Each tuple contributes to every subset of its attribute values (2^4 cells,
// or 2^3 when the state condition is mandatory), so the cube is
// O(|R_I| · 2^|UA|) (tuple, cell) pairs. Build rolls them up instead of
// hashing each pair. Cells are keyed by their mixed-radix code in flat
// open-addressed tables (see pack.go), and the tuples that share all their
// attribute values share all their cells:
//
//   - pass 1 aggregates each tuple into its base cell (every attribute at
//     the tuple's own value) with one hash probe, and records the tuple's
//     base cell;
//   - the roll-up merges each base cell's Agg into its admissible
//     ancestors with the O(1) Agg merge, and records the ancestors of each
//     base cell;
//   - pass 2 walks the tuples in ascending order and writes each index at
//     the next arena offset of its base cell's surviving ancestors, with
//     no hashing. Member lists live counting-sort style in one shared
//     arena, so they come out ascending with no per-cell allocation.
//
// The output is byte-identical to BuildReference.
func Build(tuples []Tuple, cfg Config) *Cube {
	lay := newPackLayout(cfg)

	// Pass 1: one probe per tuple. baseOf[ti] is -1 for a tuple that
	// lacks a mandatory value. Base cells are the distinct rater profiles
	// in R_I, a few thousand even for whole-genre inputs, so the table
	// starts at that size and grows past it only if it must.
	bases := newPackTable(min(len(tuples)/2, 4096))
	baseOf := make([]int32, len(tuples))
	for ti := range tuples {
		tp := &tuples[ti]
		code, ok := lay.baseCode(tp)
		if !ok {
			baseOf[ti] = -1
			continue
		}
		b := bases.id(code)
		bases.aggs[b].Add(tp.Score)
		baseOf[ti] = b
	}

	// Roll-up: base cell b's ancestor cell ids are anc[ancOff[b]:ancOff[b+1]].
	nb := len(bases.codes)
	cells := newPackTable(nb * len(lay.masks) / 3)
	ancOff := make([]int32, nb+1)
	anc := make([]int32, 0, nb*len(lay.masks))
	var add [NumAttrs]uint64
	for b, code := range bases.codes {
		req, missing := lay.split(code, &add)
		for mi := range lay.masks {
			m := &lay.masks[mi]
			if m.bits&missing != 0 {
				continue // base cell lacks a constrained attribute
			}
			code := req
			for _, bi := range m.idx {
				code += add[bi]
			}
			c := cells.id(code)
			cells.aggs[c].Merge(bases.aggs[b])
			anc = append(anc, c)
		}
		ancOff[b+1] = int32(len(anc))
	}

	// Prune and order cells: support descending, then key ascending. The
	// packed code is constructed so ascending code order is exactly
	// lessKey order, and codes fit 32 bits, so one integer per survivor,
	// its inverted count above its code, sorts both.
	survivors := make([]uint64, 0, len(cells.codes))
	arenaLen := 0
	for c, agg := range cells.aggs {
		if agg.Count < cfg.MinSupport {
			continue
		}
		survivors = append(survivors, uint64(^uint32(agg.Count))<<32|cells.codes[c])
		arenaLen += agg.Count
	}
	slices.Sort(survivors)

	// Lay out the member arena: each surviving cell owns the contiguous
	// range [offset, offset+count) of one shared []int32, and its write
	// cursor starts at the offset.
	arena := make([]int32, arenaLen)
	cb := &Cube{Tuples: tuples, Cfg: cfg, byKey: make(map[Key]int, len(survivors))}
	cb.Groups = make([]Group, len(survivors))
	groupOf := make([]int32, len(cells.codes)) // cell id → group index, -1 = pruned
	for c := range groupOf {
		groupOf[c] = -1
	}
	cursor := make([]int32, len(survivors))
	off := 0
	for gi, key := range survivors {
		code := uint64(uint32(key))
		c := cells.id(code)
		n := cells.aggs[c].Count
		cb.Groups[gi] = Group{
			Key:     UnpackKey(code),
			Agg:     cells.aggs[c],
			Members: arena[off : off+n : off+n],
		}
		cb.byKey[cb.Groups[gi].Key] = gi
		groupOf[c] = int32(gi)
		cursor[gi] = int32(off)
		off += n
	}

	// Rewrite the ancestor lists as group indices in place, dropping the
	// pruned cells: the write position never passes the read position.
	w := int32(0)
	for b := 0; b < nb; b++ {
		lo, hi := ancOff[b], ancOff[b+1]
		ancOff[b] = w
		for _, c := range anc[lo:hi] {
			if gi := groupOf[c]; gi >= 0 {
				anc[w] = gi
				w++
			}
		}
	}
	ancOff[nb] = w

	// Pass 2: no hashing, and ascending tuple order keeps every member
	// list ascending.
	for ti, b := range baseOf {
		if b < 0 {
			continue
		}
		for _, gi := range anc[ancOff[b]:ancOff[b+1]] {
			arena[cursor[gi]] = int32(ti)
			cursor[gi]++
		}
	}
	return cb
}

// cell accumulates one cube cell during the reference build.
type cell struct {
	agg     Agg
	members []int32
}

// BuildReference is the executable specification of Build: the original
// map[Key]*cell construction, one map insert and one member append per
// (tuple, subset). It is kept for differential testing — Build must
// produce a byte-identical cube — and as the readable statement of the
// cube semantics; production callers use Build.
func BuildReference(tuples []Tuple, cfg Config) *Cube {
	cells := buildCells(tuples, cfg, freeAttrs(cfg), 0, len(tuples))
	cb := &Cube{Tuples: tuples, Cfg: cfg, byKey: make(map[Key]int)}
	for k, c := range cells {
		if c.agg.Count < cfg.MinSupport {
			continue
		}
		cb.Groups = append(cb.Groups, Group{Key: k, Agg: c.agg, Members: c.members})
	}
	// Deterministic order: by support descending, then key for ties, so the
	// mining layer's seeded randomness is reproducible run to run.
	sort.Slice(cb.Groups, func(i, j int) bool {
		gi, gj := &cb.Groups[i], &cb.Groups[j]
		if gi.Agg.Count != gj.Agg.Count {
			return gi.Agg.Count > gj.Agg.Count
		}
		return lessKey(gi.Key, gj.Key)
	})
	for i := range cb.Groups {
		cb.byKey[cb.Groups[i].Key] = i
	}
	return cb
}

// buildCells scans tuples[lo:hi] and materializes their cells the
// reference way. Member indices are global tuple indices, appended in
// ascending order.
func buildCells(tuples []Tuple, cfg Config, free []Attr, lo, hi int) map[Key]*cell {
	cells := make(map[Key]*cell, 1024)
	for ti := lo; ti < hi; ti++ {
		t := &tuples[ti]
		if cfg.RequireState && t.Vals[State] == Wildcard {
			continue // unresolvable zip: cannot satisfy any geo-anchored group
		}
		if cfg.RequireCity && t.Vals[City] == Wildcard {
			continue
		}
		for mask := 0; mask < 1<<len(free); mask++ {
			k := KeyAll
			if cfg.RequireState {
				k[State] = t.Vals[State]
			}
			if cfg.RequireCity {
				k[City] = t.Vals[City]
			}
			n := k.NumConstrained()
			for bi, a := range free {
				if mask&(1<<bi) != 0 {
					if t.Vals[a] == Wildcard {
						n = -1 // tuple lacks this attribute; skip cell
						break
					}
					k[a] = t.Vals[a]
					n++
				}
			}
			if n < 0 {
				continue
			}
			if cfg.SkipApex && n == 0 {
				continue
			}
			if cfg.MaxAVPairs > 0 && n > cfg.MaxAVPairs {
				continue
			}
			c := cells[k]
			if c == nil {
				c = &cell{}
				cells[k] = c
			}
			c.agg.Add(t.Score)
			c.members = append(c.members, int32(ti))
		}
	}
	return cells
}

// freeAttrs lists the attributes a cell may leave Wildcard or constrain.
// City is never free: a RequireCity cube fixes it, any other leaves it out.
func freeAttrs(cfg Config) []Attr {
	free := make([]Attr, 0, NumAttrs)
	for a := 0; a < NumAttrs; a++ {
		if Attr(a) == City || (cfg.RequireState && Attr(a) == State) {
			continue
		}
		free = append(free, Attr(a))
	}
	return free
}

func lessKey(a, b Key) bool {
	for i := 0; i < NumAttrs; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Group returns the materialized cell for a descriptor, if it survived
// pruning.
func (c *Cube) Group(k Key) (*Group, bool) {
	if i, ok := c.byKey[k]; ok {
		return &c.Groups[i], true
	}
	return nil, false
}

// Len returns the number of candidate groups.
func (c *Cube) Len() int { return len(c.Groups) }

// Per-element sizes used by SizeBytes. TupleBytes is exported for callers
// that account for bare tuple slices (the store's plan cache).
const (
	TupleBytes = int64(unsafe.Sizeof(Tuple{}))
	groupBytes = int64(unsafe.Sizeof(Group{}))
	keyBytes   = int64(unsafe.Sizeof(Key{}))
)

// SizeBytes approximates the cube's resident memory — the tuple slice,
// the group headers with their member lists, the key index, and the
// coverage bitsets once built — in O(|Groups|) time, cheap enough for
// cache accounting on every insert.
func (c *Cube) SizeBytes() int64 {
	b := int64(len(c.Tuples)) * TupleBytes
	for i := range c.Groups {
		b += groupBytes + int64(len(c.Groups[i].Members))*4
	}
	b += int64(len(c.byKey)) * (keyBytes + 8)
	b += c.bitsBytes.Load()
	return b
}

// String summarizes the cube for logs.
func (c *Cube) String() string {
	return fmt.Sprintf("cube{tuples=%d groups=%d cfg=%+v}", len(c.Tuples), len(c.Groups), c.Cfg)
}
