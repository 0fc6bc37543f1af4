package cube

import (
	"math"
	"slices"
	"unsafe"
)

// Seed is what Extend needs of a cube it extends: the config, and each
// group's key, aggregate and members, in group order. It is the compact
// form a superseded plan keeps its cube in until the successor is built.
// It holds no tuples, no key index and no coverage bitsets, and a cube
// over at most 65536 tuples stores each member in 16 bits.
type Seed struct {
	Cfg    Config
	groups []seedGroup
	// The members of group g are [groups[g-1].end, groups[g].end) of
	// mem16, or of mem32 when a tuple index does not fit 16 bits.
	mem16 []uint16
	mem32 []int32
}

type seedGroup struct {
	Key Key
	Agg Agg
	end int32
}

// Seed returns the cube's Seed. The cube is left as it is.
func (c *Cube) Seed() *Seed {
	sd := &Seed{Cfg: c.Cfg, groups: make([]seedGroup, len(c.Groups))}
	n := 0
	for gi := range c.Groups {
		n += len(c.Groups[gi].Members)
	}
	narrow := len(c.Tuples) <= math.MaxUint16+1
	if narrow {
		sd.mem16 = make([]uint16, 0, n)
	} else {
		sd.mem32 = make([]int32, 0, n)
	}
	for gi := range c.Groups {
		g := &c.Groups[gi]
		if narrow {
			for _, m := range g.Members {
				sd.mem16 = append(sd.mem16, uint16(m))
			}
		} else {
			sd.mem32 = append(sd.mem32, g.Members...)
		}
		sd.groups[gi] = seedGroup{Key: g.Key, Agg: g.Agg, end: int32(len(sd.mem16) + len(sd.mem32))}
	}
	return sd
}

// SizeBytes approximates the seed's resident memory.
func (sd *Seed) SizeBytes() int64 {
	return int64(len(sd.groups))*int64(unsafe.Sizeof(seedGroup{})) + int64(len(sd.mem16))*2 + int64(len(sd.mem32))*4
}

// remapMembers writes newOf[m] for each member m of src into dst.
func remapMembers[T uint16 | int32](dst []int32, src []T, newOf []int32) {
	for k, m := range src {
		dst[k] = newOf[m]
	}
}

// Extend builds the cube of tuples from prev, the seed of the cube of
// the same tuples without the entries at the ascending indices added:
// the successor of a cached plan's cube after an append, which inserts a
// few ratings into its tuple set. The result is deep-equal to
// Build(tuples, cfg).
//
// An append only adds tuples and the config is the same, so every group
// of prev survives, and a cell's aggregate and members change only if an
// added tuple joins it. Extend remaps every group's members through the
// monotone old→new index map and merges the added tuples into the cells
// they join. A cell they join that prev lacks was pruned before: it is
// counted afresh over the tuples of its state, which a state-anchored
// cell always carries, and kept if it now reaches MinSupport. Groups
// whose support is unchanged keep prev's order; the others are sorted
// and merged back into Build's (support descending, key ascending)
// order.
//
// Extend falls back to Build when it cannot reuse prev: prev is nil, cfg
// is not state-anchored, or cfg differs from prev's (an adapted
// MinSupport moved with the tuple count). It also falls back when added
// is not ascending or not inside tuples.
func Extend(prev *Seed, tuples []Tuple, added []int32, cfg Config) *Cube {
	if c := extend(prev, tuples, added, cfg); c != nil {
		return c
	}
	return Build(tuples, cfg)
}

// extend is Extend without the fallback: it returns nil where Extend
// calls Build.
func extend(prev *Seed, tuples []Tuple, added []int32, cfg Config) *Cube {
	if prev == nil || !cfg.RequireState || prev.Cfg != cfg || len(added) > len(tuples) {
		return nil
	}
	// newOf[i] is the index in tuples of prev's tuple i. The walk also
	// checks that added is ascending and inside tuples.
	newOf := make([]int32, len(tuples)-len(added))
	j, a := int32(0), 0
	for i := range newOf {
		for a < len(added) && added[a] == j {
			a, j = a+1, j+1
		}
		newOf[i] = j
		j++
	}
	for ; a < len(added) && added[a] == j; a, j = a+1, j+1 {
	}
	if a != len(added) {
		return nil
	}

	// The cells the added tuples join, each with the added indices it
	// gains (ascending, as added is), enumerated as Build's roll-up
	// does: a tuple's base cell and its admissible ancestors. A tuple
	// without a state joins no cell of a state-anchored cube.
	lay := newPackLayout(cfg)
	gains := make(map[uint64][]int32)
	touched := make([]bool, Cardinality(State)) // the states of those cells
	var addend [NumAttrs]uint64
	for _, ti := range added {
		base, ok := lay.baseCode(&tuples[ti])
		if !ok {
			continue
		}
		touched[tuples[ti].Vals[State]] = true
		req, missing := lay.split(base, &addend)
		for mi := range lay.masks {
			m := &lay.masks[mi]
			if m.bits&missing != 0 {
				continue
			}
			code := req
			for _, bi := range m.idx {
				code += addend[bi]
			}
			gains[code] = append(gains[code], ti)
		}
	}

	// Every group of prev survives, since its cell only grows: its
	// members are remapped into one new arena, and a cell that gains
	// added tuples merges them in. Groups whose support changed leave
	// prev's order, so they are sorted apart and merged back below.
	gainOf := func(k Key) []int32 {
		if !touched[k[State]] {
			return nil
		}
		return gains[PackKey(k)]
	}
	arenaLen := len(prev.mem16) + len(prev.mem32) // plus every gain, an upper bound
	for _, gain := range gains {
		arenaLen += len(gain)
	}
	arena := make([]int32, arenaLen)
	kept := make([]Group, 0, len(prev.groups))
	grown := make([]Group, 0, len(gains)) // a group per cell in gains, at most
	off, lo := 0, int32(0)
	for _, g := range prev.groups {
		from := lo
		lo = g.end
		old := int(g.end - from)
		gain := gainOf(g.Key)
		members := arena[off : off+old+len(gain) : off+old+len(gain)]
		off += len(members)
		if prev.mem32 != nil {
			remapMembers(members, prev.mem32[from:g.end], newOf)
		} else {
			remapMembers(members, prev.mem16[from:g.end], newOf)
		}
		if len(gain) == 0 {
			kept = append(kept, Group{Key: g.Key, Agg: g.Agg, Members: members})
			continue
		}
		delete(gains, PackKey(g.Key))
		// Merge the gain in from the back: both runs are ascending.
		agg := g.Agg
		i, k := old-1, len(gain)-1
		for w := len(members) - 1; k >= 0; w-- {
			if i >= 0 && members[i] > gain[k] {
				members[w] = members[i]
				i--
			} else {
				members[w] = gain[k]
				agg.Add(tuples[gain[k]].Score)
				k--
			}
		}
		grown = append(grown, Group{Key: g.Key, Agg: agg, Members: members})
	}

	// A cell the added tuples join that prev does not hold was pruned
	// (or empty) before: count it over its state's tuples, and keep it if
	// it now reaches MinSupport.
	if len(gains) > 0 {
		byState := make([][]int32, len(touched))
		for ti := range tuples {
			if s := tuples[ti].Vals[State]; s != Wildcard && touched[s] {
				byState[s] = append(byState[s], int32(ti))
			}
		}
		for code := range gains {
			key := UnpackKey(code)
			var agg Agg
			for _, ti := range byState[key[State]] {
				if key.Matches(tuples[ti].Vals) {
					agg.Add(tuples[ti].Score)
				}
			}
			if agg.Count < cfg.MinSupport {
				continue
			}
			members := make([]int32, 0, agg.Count)
			for _, ti := range byState[key[State]] {
				if key.Matches(tuples[ti].Vals) {
					members = append(members, ti)
				}
			}
			grown = append(grown, Group{Key: key, Agg: agg, Members: members})
		}
	}
	slices.SortFunc(grown, func(a, b Group) int {
		if groupBefore(&a, &b) {
			return -1
		}
		return 1
	})

	// Merge the two ordered lists; no two groups share a key, so none
	// tie.
	cb := &Cube{Tuples: tuples, Cfg: cfg, Groups: make([]Group, 0, len(kept)+len(grown))}
	for len(kept) > 0 || len(grown) > 0 {
		if len(grown) == 0 || len(kept) > 0 && groupBefore(&kept[0], &grown[0]) {
			cb.Groups, kept = append(cb.Groups, kept[0]), kept[1:]
		} else {
			cb.Groups, grown = append(cb.Groups, grown[0]), grown[1:]
		}
	}
	cb.byKey = make(map[Key]int, len(cb.Groups))
	for gi := range cb.Groups {
		cb.byKey[cb.Groups[gi].Key] = gi
	}
	return cb
}

// groupBefore is Build's group order: support descending, then key
// ascending.
func groupBefore(a, b *Group) bool {
	if a.Agg.Count != b.Agg.Count {
		return a.Agg.Count > b.Agg.Count
	}
	return lessKey(a.Key, b.Key)
}
