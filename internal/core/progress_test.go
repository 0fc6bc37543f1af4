package core

import (
	"sync"
	"testing"

	"repro/internal/cube"
)

// TestProgressSequential checks the sequential solver reports one event
// per restart with a monotonic done count and never changes the Solution.
func TestProgressSequential(t *testing.T) {
	c := buildCube(t, miningTuples(400, 1), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Workers = 1
	s.Restarts = 7

	base := solve(t, newProblem(t, SimilarityMining, c, s))

	var events [][2]int
	s.Progress = func(done, total int) { events = append(events, [2]int{done, total}) }
	got := solve(t, newProblem(t, SimilarityMining, c, s))

	if len(events) != s.Restarts {
		t.Fatalf("got %d progress events, want %d", len(events), s.Restarts)
	}
	for i, ev := range events {
		if ev[0] != i+1 || ev[1] != s.Restarts {
			t.Fatalf("event %d = %v, want {%d, %d}", i, ev, i+1, s.Restarts)
		}
	}
	if got.Objective != base.Objective || got.Coverage != base.Coverage || len(got.Groups) != len(base.Groups) {
		t.Fatalf("progress callback changed the solution: %+v vs %+v", got, base)
	}
}

// TestProgressParallel checks the parallel path reports exactly Restarts
// events with done counts covering 1..Restarts (each exactly once), and
// that the solution stays byte-identical to the sequential one.
func TestProgressParallel(t *testing.T) {
	c := buildCube(t, miningTuples(400, 1), cube.Config{RequireState: true, MinSupport: 5, MaxAVPairs: 2})
	s := DefaultSettings()
	s.Workers = 1
	s.Restarts = 12
	base := solve(t, newProblem(t, SimilarityMining, c, s))

	var mu sync.Mutex
	seen := map[int]int{}
	s.Workers = 4
	s.Progress = func(done, total int) {
		if total != 12 {
			t.Errorf("total = %d, want 12", total)
		}
		mu.Lock()
		seen[done]++
		mu.Unlock()
	}
	got := solve(t, newProblem(t, SimilarityMining, c, s))

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != s.Restarts {
		t.Fatalf("saw %d distinct done counts, want %d", len(seen), s.Restarts)
	}
	for d := 1; d <= s.Restarts; d++ {
		if seen[d] != 1 {
			t.Fatalf("done=%d reported %d times, want once", d, seen[d])
		}
	}
	if got.Objective != base.Objective || len(got.Groups) != len(base.Groups) {
		t.Fatalf("parallel+progress diverged from sequential: %+v vs %+v", got, base)
	}
}
