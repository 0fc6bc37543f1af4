package explore

import (
	"math"
	"testing"

	"repro/internal/cube"
)

// refineFixture: CA parent with gender split (males high, females low),
// plus NY noise so the cube has unrelated cells.
func refineFixture(t *testing.T) (*cube.Cube, []cube.Tuple) {
	t.Helper()
	ca, ny := cube.StateIndex("CA"), cube.StateIndex("NY")
	mk := func(state, gender, age int16, score int8, uid int32) cube.Tuple {
		var tp cube.Tuple
		tp.Vals[cube.Gender] = gender
		tp.Vals[cube.Age] = age
		tp.Vals[cube.Occupation] = 0
		tp.Vals[cube.State] = state
		tp.Score = score
		tp.UserID = uid
		tp.Unix = 1_000_000 + int64(uid)
		return tp
	}
	tuples := []cube.Tuple{
		mk(ca, 0, 1, 5, 1), mk(ca, 0, 1, 5, 2), mk(ca, 0, 2, 4, 3),
		mk(ca, 1, 1, 2, 4), mk(ca, 1, 2, 1, 5),
		mk(ny, 0, 1, 3, 6), mk(ny, 1, 2, 3, 7),
	}
	c := cube.Build(tuples, cube.Config{RequireState: true, MinSupport: 1, MaxAVPairs: 3})
	return c, tuples
}

func TestRefinements(t *testing.T) {
	c, _ := refineFixture(t)
	parent, ok := c.Group(cube.KeyAll.With(cube.State, cube.StateIndex("CA")))
	if !ok {
		t.Fatal("CA group missing")
	}
	refs := Refinements(c, parent)
	if len(refs) == 0 {
		t.Fatal("no refinements")
	}
	for _, r := range refs {
		// Every refinement adds exactly one condition to the parent.
		if n := r.Group.Key.NumConstrained(); n != parent.Key.NumConstrained()+1 {
			t.Errorf("refinement %v has %d conditions, want %d", r.Group.Key, n, parent.Key.NumConstrained()+1)
		}
		if !parent.Key.Contains(r.Group.Key) {
			t.Errorf("refinement %v not contained in parent", r.Group.Key)
		}
		wantDelta := r.Group.Mean() - parent.Mean()
		if math.Abs(r.Delta-wantDelta) > 1e-12 {
			t.Errorf("delta = %f, want %f", r.Delta, wantDelta)
		}
	}
	// Ordered by |Delta| descending.
	for i := 1; i < len(refs); i++ {
		if math.Abs(refs[i].Delta) > math.Abs(refs[i-1].Delta)+1e-12 {
			t.Fatal("refinements not ordered by |delta|")
		}
	}
	// The gender split must rank near the top: female-CA deviates hard.
	top := refs[0]
	if !top.Group.Key.Has(cube.Gender) && !top.Group.Key.Has(cube.Age) {
		t.Errorf("top refinement %v does not add a demographic", top.Group.Key)
	}
}

func TestRefinementsExcludeNonChildren(t *testing.T) {
	c, _ := refineFixture(t)
	parent, _ := c.Group(cube.KeyAll.With(cube.State, cube.StateIndex("CA")))
	refs := Refinements(c, parent)
	for _, r := range refs {
		if r.Group.Key[cube.State] != cube.StateIndex("CA") {
			t.Errorf("refinement %v escaped the parent's state", r.Group.Key)
		}
	}
	// A two-levels-deeper group (gender+age) must not appear.
	for _, r := range refs {
		if r.Group.Key.Has(cube.Gender) && r.Group.Key.Has(cube.Age) {
			t.Errorf("grandchild %v returned as refinement", r.Group.Key)
		}
	}
}

func TestRefinesBy(t *testing.T) {
	parent := cube.KeyAll.With(cube.State, 3)
	child := parent.With(cube.Gender, 1)
	attr, ok := refinesBy(parent, child)
	if !ok || attr != cube.Gender {
		t.Errorf("refinesBy = %v, %v", attr, ok)
	}
	if _, ok := refinesBy(parent, parent); ok {
		t.Error("a key does not refine itself")
	}
	if _, ok := refinesBy(parent, child.With(cube.Age, 2)); ok {
		t.Error("two added conditions accepted")
	}
	if _, ok := refinesBy(parent, cube.KeyAll.With(cube.State, 4).With(cube.Gender, 1)); ok {
		t.Error("disagreeing state accepted")
	}
	if _, ok := refinesBy(child, parent); ok {
		t.Error("parent accepted as refinement of child")
	}
}
