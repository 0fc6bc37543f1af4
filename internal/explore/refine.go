package explore

import (
	"math"
	"sort"

	"repro/internal/cube"
)

// Refinement is a child of a group in the cube lattice: the group's
// description plus exactly one more attribute-value pair. Interactive
// exploration surfaces the refinements whose rating behaviour deviates
// most from the parent — "drill deeper" in the paper's terms.
type Refinement struct {
	Group *cube.Group
	// Added is the attribute the refinement constrains beyond the parent.
	Added cube.Attr
	// Delta is the refinement's mean minus the parent's mean; large
	// absolute deltas mark sub-populations that disagree with the group
	// as a whole.
	Delta float64
}

// Refinements returns g's children present in the cube, ordered by
// |Delta| descending (ties: larger support first, then key order). The
// cube's MaxAVPairs pruning bounds how deep refinement can go.
func Refinements(c *cube.Cube, g *cube.Group) []Refinement {
	parentMean := g.Mean()
	var out []Refinement
	for i := range c.Groups {
		child := &c.Groups[i]
		if child.Key == g.Key {
			continue
		}
		added, ok := refinesBy(g.Key, child.Key)
		if !ok {
			continue
		}
		out = append(out, Refinement{
			Group: child,
			Added: added,
			Delta: child.Mean() - parentMean,
		})
	}
	// out is in c.Groups order, which Build fixes as support descending,
	// then key ascending; a stable sort keeps that order among |Delta| ties.
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].Delta) > math.Abs(out[b].Delta)
	})
	return out
}

// refinesBy reports whether child constrains exactly the parent's
// attributes plus one more, agreeing on all shared values.
func refinesBy(parent, child cube.Key) (cube.Attr, bool) {
	added := -1
	for a := 0; a < cube.NumAttrs; a++ {
		switch {
		case parent[a] == cube.Wildcard && child[a] != cube.Wildcard:
			if added != -1 {
				return 0, false // more than one new condition
			}
			added = a
		case parent[a] != child[a]:
			return 0, false // disagreement or a dropped condition
		}
	}
	if added == -1 {
		return 0, false
	}
	return cube.Attr(added), true
}
