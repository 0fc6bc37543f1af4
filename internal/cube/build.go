package cube

import (
	"fmt"
	"runtime"
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
	// EnableCity lets the City attribute participate in candidate
	// enumeration (off by default: state-level mining then pays nothing
	// for the extra attribute).
	EnableCity bool
	// RequireCity restricts candidates to groups carrying a city
	// condition — drill-down mining inside a state group. Implies
	// EnableCity.
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

// Cube is the materialized set of candidate groups over a tuple set R_I.
type Cube struct {
	Tuples []Tuple
	Groups []Group
	Cfg    Config

	byKey map[Key]int

	// Lazily built, cached derived structures. Cubes are shared across
	// requests through the plan-materialization tier, so a structure built
	// for one pipeline stage (e.g. the solver's coverage bitsets) is
	// amortized across every later interaction on the same plan. The
	// atomic byte counters let SizeBytes stay safe against a concurrent
	// first build.
	bitsOnce  sync.Once
	bits      [][]uint64
	bitsBytes atomic.Int64

	sibOnce  sync.Once
	sibs     [][]int
	sibBytes atomic.Int64
}

// parallelBuildMin is the tuple count below which Build stays sequential:
// sharding a small R_I costs more in goroutine start-up and table merging
// than the scan saves. Per-query cubes of hundreds to tens of thousands of
// tuples stay on the fast single-threaded path; whole-genre queries go
// wide.
const parallelBuildMin = 1 << 15

// Build materializes every cube cell with at least one tuple that passes
// cfg's pruning rules. This is the "set of groups that has at least one
// rating tuple in R_I are then constructed" step of §2.3.
//
// Each tuple contributes to every subset of its attribute values (2^4 cells,
// or 2^3 when the state condition is mandatory), so construction is
// O(|R_I| · 2^|UA|). The implementation is the packed two-pass build: cells
// live in a flat open-addressed table keyed by the mixed-radix cell code
// (see pack.go) rather than a map[Key]*cell, and member lists are laid out
// counting-sort style into one shared arena — pass one counts members per
// cell, pass two writes each tuple index at its cell's precomputed offset.
// No per-cell allocation, no map rehashing of 10-byte keys, no incremental
// slice growth.
//
// Large inputs are sharded across GOMAXPROCS goroutines; shard tables merge
// with the O(1) Agg merge and each shard writes its members at per-shard
// precomputed arena offsets, so the output is byte-identical to the
// sequential build (and to BuildReference): member lists stay ascending
// because shards are contiguous and ordered, and the final group order is
// re-established by the deterministic sort below.
func Build(tuples []Tuple, cfg Config) *Cube {
	workers := runtime.GOMAXPROCS(0)
	if len(tuples) < parallelBuildMin {
		workers = 1
	}
	return buildWith(tuples, cfg, workers)
}

func buildWith(tuples []Tuple, cfg Config, workers int) *Cube {
	lay := newPackLayout(cfg)
	if workers < 1 || len(tuples) < 2*workers {
		workers = 1
	}

	// Pass 1: count pass. Each shard accumulates (code → Agg) over its
	// contiguous tuple partition; Agg.Count doubles as the shard's member
	// count per cell.
	parts := make([]*packTable, workers)
	if workers == 1 {
		parts[0] = packCount(tuples, cfg, lay, 0, len(tuples))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(tuples) / workers
			hi := (w + 1) * len(tuples) / workers
			wg.Add(1)
			go func(w, lo, hi int) { //maprat:allow(ctxflow) bounded CPU shard joined by wg.Wait before Build returns; callers check ctx between pipeline stages
				defer wg.Done()
				parts[w] = packCount(tuples, cfg, lay, lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
	}

	// Merge shard tables. The global table must stay distinct from the
	// shard tables when sharded: the per-shard counts position each
	// shard's arena writes.
	global := parts[0]
	if workers > 1 {
		total := 0
		for _, p := range parts {
			total += p.n
		}
		global = newPackTable(total)
		for _, p := range parts {
			global.merge(p)
		}
	}

	// Prune and order cells: support descending, then key ascending. The
	// packed code is constructed so ascending code order is exactly
	// lessKey order, so the sort never needs to decode.
	type survivor struct {
		code uint64
		agg  Agg
	}
	survivors := make([]survivor, 0, global.n)
	arenaLen := 0
	for i, k := range global.keys {
		if k == 0 || global.aggs[i].Count < cfg.MinSupport {
			continue
		}
		survivors = append(survivors, survivor{code: k - 1, agg: global.aggs[i]})
		arenaLen += global.aggs[i].Count
	}
	sort.Slice(survivors, func(a, b int) bool {
		if survivors[a].agg.Count != survivors[b].agg.Count {
			return survivors[a].agg.Count > survivors[b].agg.Count
		}
		return survivors[a].code < survivors[b].code
	})

	// Lay out the member arena: each surviving cell owns the contiguous
	// range [offset, offset+count) of one shared []int32.
	arena := make([]int32, arenaLen)
	cb := &Cube{Tuples: tuples, Cfg: cfg, byKey: make(map[Key]int, len(survivors))}
	cb.Groups = make([]Group, len(survivors))
	off := 0
	for i, s := range survivors {
		cb.Groups[i] = Group{
			Key:     UnpackKey(s.code),
			Agg:     s.agg,
			Members: arena[off : off+s.agg.Count : off+s.agg.Count],
		}
		cb.byKey[cb.Groups[i].Key] = i
		off += s.agg.Count
	}

	// Per-shard write cursors: shard w's first write for a cell lands
	// after every earlier shard's members of that cell, keeping each
	// member list ascending exactly as one sequential scan would append.
	groupOf := make([]int32, len(global.keys)) // global slot → group index
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, s := range survivors {
		groupOf[global.slot(s.code)] = int32(gi)
	}
	cursor := make([]int32, len(survivors))
	for gi := range cb.Groups {
		if gi > 0 {
			cursor[gi] = cursor[gi-1] + int32(cb.Groups[gi-1].Agg.Count)
		}
	}
	starts := make([][]int32, workers)
	for w, p := range parts {
		st := make([]int32, len(p.keys))
		for i, k := range p.keys {
			if k == 0 {
				st[i] = -1
				continue
			}
			gi := groupOf[global.slot(k-1)]
			if gi < 0 {
				st[i] = -1 // pruned by MinSupport
				continue
			}
			st[i] = cursor[gi]
			cursor[gi] += int32(p.aggs[i].Count)
		}
		starts[w] = st
	}

	// Pass 2: fill pass. Each shard re-scans its partition and writes
	// member indices at its precomputed offsets; shards touch disjoint
	// arena positions, so the parallel fill is race-free.
	if workers == 1 {
		packFill(tuples, cfg, lay, 0, len(tuples), parts[0], starts[0], arena)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(tuples) / workers
			hi := (w + 1) * len(tuples) / workers
			wg.Add(1)
			go func(w, lo, hi int) { //maprat:allow(ctxflow) bounded CPU shard joined by wg.Wait before Build returns; callers check ctx between pipeline stages
				defer wg.Done()
				packFill(tuples, cfg, lay, lo, hi, parts[w], starts[w], arena)
			}(w, lo, hi)
		}
		wg.Wait()
	}
	return cb
}

// packCount is the count pass: scan tuples[lo:hi] and accumulate each
// admissible (tuple, subset) cell into a flat packed table.
func packCount(tuples []Tuple, cfg Config, lay *packLayout, lo, hi int) *packTable {
	t := newPackTable(1024)
	var add [NumAttrs]uint64
	for ti := lo; ti < hi; ti++ {
		tp := &tuples[ti]
		base, missing, ok := packPrepare(tp, cfg, lay, &add)
		if !ok {
			continue
		}
		for mi := range lay.masks {
			m := &lay.masks[mi]
			if m.bits&missing != 0 {
				continue // tuple lacks a constrained attribute; skip cell
			}
			code := base
			for _, bi := range m.idx {
				code += add[bi]
			}
			t.add(code, tp.Score)
		}
	}
	return t
}

// packFill is the fill pass: re-scan tuples[lo:hi] and write each member
// index at its cell's next arena offset. starts is indexed by the shard
// table's slots (-1 marks a pruned cell).
func packFill(tuples []Tuple, cfg Config, lay *packLayout, lo, hi int, t *packTable, starts []int32, arena []int32) {
	var add [NumAttrs]uint64
	for ti := lo; ti < hi; ti++ {
		tp := &tuples[ti]
		base, missing, ok := packPrepare(tp, cfg, lay, &add)
		if !ok {
			continue
		}
		for mi := range lay.masks {
			m := &lay.masks[mi]
			if m.bits&missing != 0 {
				continue
			}
			code := base
			for _, bi := range m.idx {
				code += add[bi]
			}
			s := t.slot(code)
			if starts[s] < 0 {
				continue
			}
			arena[starts[s]] = int32(ti)
			starts[s]++
		}
	}
}

// packPrepare computes a tuple's base code (required state/city digits),
// its per-free-attribute code addends, and the mask of free attributes the
// tuple has no value for. ok is false when the tuple cannot satisfy the
// mandatory conditions at all.
func packPrepare(tp *Tuple, cfg Config, lay *packLayout, add *[NumAttrs]uint64) (base uint64, missing uint32, ok bool) {
	if cfg.RequireState {
		if tp.Vals[State] == Wildcard {
			return 0, 0, false // unresolvable zip: no geo-anchored group
		}
		base += uint64(tp.Vals[State]+1) * packWeight[State]
	}
	if cfg.RequireCity {
		if tp.Vals[City] == Wildcard {
			return 0, 0, false
		}
		base += uint64(tp.Vals[City]+1) * packWeight[City]
	}
	for bi, a := range lay.free {
		v := tp.Vals[a]
		if v == Wildcard {
			missing |= 1 << uint(bi)
			continue
		}
		add[bi] = uint64(v+1) * packWeight[a]
	}
	return base, missing, true
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

func freeAttrs(cfg Config) []Attr {
	free := make([]Attr, 0, NumAttrs)
	for a := 0; a < NumAttrs; a++ {
		switch {
		case cfg.RequireState && Attr(a) == State:
			continue
		case Attr(a) == City && (cfg.RequireCity || !cfg.EnableCity):
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

// IndexOf returns the position of a descriptor's group in Groups, if it
// survived pruning.
func (c *Cube) IndexOf(k Key) (int, bool) {
	i, ok := c.byKey[k]
	return i, ok
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
// the group headers with their member lists, the key index, and any
// lazily built caches (coverage bitsets, sibling table) — in O(|Groups|)
// time, cheap enough for cache accounting on every insert.
func (c *Cube) SizeBytes() int64 {
	b := int64(len(c.Tuples)) * TupleBytes
	for i := range c.Groups {
		b += groupBytes + int64(len(c.Groups[i].Members))*4
	}
	b += int64(len(c.byKey)) * (keyBytes + 8)
	b += c.bitsBytes.Load() + c.sibBytes.Load()
	return b
}

// Siblings returns, for each group index, the indices of its sibling groups
// (same constrained attributes, exactly one differing value). Diversity
// Mining weights sibling disagreement higher because the paper's canonical
// DM output is a sibling pair.
//
// The table is computed once per Cube and cached, so repeated solves and
// explorations on a materialized plan stop rebuilding the buckets.
func (c *Cube) Siblings() [][]int {
	c.sibOnce.Do(func() {
		c.sibs = c.buildSiblings()
		var b int64
		for _, s := range c.sibs {
			b += 24 + int64(len(s))*8 // slice header + elements
		}
		c.sibBytes.Store(b)
	})
	return c.sibs
}

func (c *Cube) buildSiblings() [][]int {
	// Bucket groups by (wildcard mask, values with one attribute blanked):
	// two groups are siblings iff they share a bucket for the blanked
	// attribute and differ there.
	type bucketKey struct {
		blank Attr
		k     Key
	}
	buckets := make(map[bucketKey][]int)
	for i := range c.Groups {
		k := c.Groups[i].Key
		for a := 0; a < NumAttrs; a++ {
			if k[a] == Wildcard {
				continue
			}
			bk := bucketKey{blank: Attr(a), k: k.With(Attr(a), Wildcard)}
			buckets[bk] = append(buckets[bk], i)
		}
	}
	out := make([][]int, len(c.Groups))
	for _, idxs := range buckets {
		if len(idxs) < 2 {
			continue
		}
		for _, i := range idxs {
			for _, j := range idxs {
				if i != j {
					out[i] = append(out[i], j)
				}
			}
		}
	}
	for i := range out {
		sort.Ints(out[i])
		out[i] = dedupInts(out[i])
	}
	return out
}

func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}

// String summarizes the cube for logs.
func (c *Cube) String() string {
	return fmt.Sprintf("cube{tuples=%d groups=%d cfg=%+v}", len(c.Tuples), len(c.Groups), c.Cfg)
}
