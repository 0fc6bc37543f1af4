package store

import (
	"reflect"
	"runtime"
	"testing"
)

// TestOpenParallelMatchesSequential pins the sharded Open's contract: the
// joined tuple log, per-item indexes and time range must be identical
// whether the join ran on one goroutine or many. The small dataset (~80k ratings) is above openParallelMin, so the
// GOMAXPROCS>1 run actually takes the sharded path on multi-core hosts;
// on a single-core host both runs take the same path and the test is a
// (still valid) identity check.
func TestOpenParallelMatchesSequential(t *testing.T) {
	ds := smallDataset(t)
	if len(ds.Ratings) < openParallelMin {
		t.Fatalf("fixture has %d ratings, below the parallel threshold %d; the test would not exercise sharding",
			len(ds.Ratings), openParallelMin)
	}

	prev := runtime.GOMAXPROCS(1)
	seq, seqErr := Open(ds, DefaultOptions())
	runtime.GOMAXPROCS(4)
	par, parErr := Open(ds, DefaultOptions())
	runtime.GOMAXPROCS(prev)
	if seqErr != nil || parErr != nil {
		t.Fatalf("Open failed: seq=%v par=%v", seqErr, parErr)
	}

	if !reflect.DeepEqual(seq.tuples, par.tuples) {
		t.Fatal("joined tuple logs differ")
	}
	if !reflect.DeepEqual(seq.itemTuples, par.itemTuples) {
		t.Fatal("per-item time indexes differ")
	}
	if seq.minUnix != par.minUnix || seq.maxUnix != par.maxUnix {
		t.Fatalf("time ranges differ: [%d,%d] vs [%d,%d]",
			seq.minUnix, seq.maxUnix, par.minUnix, par.maxUnix)
	}
	for _, m := range []struct {
		name     string
		seq, par map[string][]int
	}{
		{"byGenre", seq.byGenre, par.byGenre},
		{"byActor", seq.byActor, par.byActor},
		{"byDirector", seq.byDirector, par.byDirector},
		{"byTitle", seq.byTitle, par.byTitle},
		{"titleTerm", seq.titleTerm, par.titleTerm},
	} {
		if !reflect.DeepEqual(m.seq, m.par) {
			t.Fatalf("%s indexes differ", m.name)
		}
	}
}

// TestTimeWindowEpochBounds covers the historical bug: an explicit bound
// at Unix time 0 was read as "unbounded". The constructors mark bounds
// explicit, so the epoch is now a usable boundary.
func TestTimeWindowEpochBounds(t *testing.T) {
	w := Between(0, 100)
	if w.Contains(-1) {
		t.Error("Between(0,100) contains -1; epoch lower bound ignored")
	}
	if !w.Contains(0) || !w.Contains(100) {
		t.Error("Between(0,100) must contain its endpoints")
	}
	if w.IsAll() {
		t.Error("Between(0,100) reported as all-time")
	}

	u := Until(0)
	if u.Contains(1) {
		t.Error("Until(0) contains 1")
	}
	if !u.Contains(-5) || !u.Contains(0) {
		t.Error("Until(0) must contain pre-epoch timestamps and the epoch")
	}

	s := Since(0)
	if s.Contains(-1) {
		t.Error("Since(0) contains -1")
	}
	if s.IsAll() {
		t.Error("Since(0) reported as all-time")
	}

	// Documented legacy behaviour: a literal with zero bounds and no
	// flags is still the all-time window.
	var legacy TimeWindow
	if !legacy.IsAll() || !legacy.Contains(-1) || !legacy.Contains(1<<40) {
		t.Error("zero TimeWindow must remain all-time")
	}
	// And a non-zero literal without flags keeps its historical meaning.
	half := TimeWindow{From: 10}
	if half.Contains(9) || !half.Contains(10) {
		t.Error("TimeWindow{From: 10} must bound from 10")
	}
	if got := Between(0, 100).String(); got != "[0,100]" {
		t.Errorf("Between(0,100).String() = %q", got)
	}
	if got := Since(5).String(); got != "[5,*]" {
		t.Errorf("Since(5).String() = %q", got)
	}
}
