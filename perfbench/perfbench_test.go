package main

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro"
)

var (
	smallOnce sync.Once
	smallDS   *maprat.Dataset
	smallErr  error
)

func smallDataset(t *testing.T) *maprat.Dataset {
	t.Helper()
	smallOnce.Do(func() { smallDS, smallErr = maprat.Generate(maprat.SmallGenConfig()) })
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallDS
}

var workloads = []string{exploreSession, coldMine, liveAppend}

// runSmall builds and measures one workload at small scale for one
// second's worth of operations.
func runSmall(t *testing.T, name string, seed int64, tr *tracer) (*workload, *pass) {
	t.Helper()
	ctx := context.Background()
	ds := smallDataset(t)
	w, err := buildWorkload(ctx, ds, name, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := measure(ctx, ds, w, filepath.Join(t.TempDir(), "bench.wal"), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", name, seed, ps.failed, ps.attempted, ps.failures)
	}
	return w, ps
}

// TestSameSeedSameRun pins the benchmark's determinism: one seed gives one
// op sequence and exactly the same engine counter totals (mines, plan
// builds, evictions, invalidated/surviving plans, result-cache hits and
// misses, WAL bytes), and another seed gives another sequence.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			w1, p1 := runSmall(t, name, 7, nil)
			w2, p2 := runSmall(t, name, 7, nil)
			if !reflect.DeepEqual(w1.Ops, w2.Ops) || !reflect.DeepEqual(w1.Entries, w2.Entries) || !reflect.DeepEqual(w1.Batches, w2.Batches) {
				t.Fatal("same seed built different op sequences")
			}
			if p1.counters != p2.counters {
				t.Fatalf("same seed, different counter totals:\n%+v\n%+v", p1.counters, p2.counters)
			}
			if p1.counters.Mines == 0 && p1.counters.ResultHits == 0 {
				t.Fatalf("counters did not move: %+v", p1.counters)
			}
			if name == liveAppend && (p1.counters.WALBytes == 0 || p1.counters.PlansInvalidated == 0 || p1.counters.PlansSurviving == 0) {
				t.Fatalf("appends should log, seal some plans and leave others warm: %+v", p1.counters)
			}
			w3, err := buildWorkload(context.Background(), smallDataset(t), name, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(w1.Ops, w3.Ops) && reflect.DeepEqual(w1.Entries, w3.Entries) {
				t.Fatal("different seeds built the same op sequence")
			}
		})
	}
}

// TestRelaxAttempts pins the attempt count read off the relaxation ladder
// (α, α/2, … while above 2%, then 0) and the check for a level off it.
func TestRelaxAttempts(t *testing.T) {
	for _, c := range []struct {
		alpha, used float64
		n           int
		ok          bool
	}{
		{0.4, 0.4, 1, true},
		{0.4, 0.1, 3, true},
		{0.4, 0.0125, 6, true},
		{0.4, 0, 7, true},
		{0, 0, 1, true},
		{0.4, 0.3, 7, false},
	} {
		if n, ok := relaxAttempts(c.alpha, c.used); n != c.n || ok != c.ok {
			t.Errorf("relaxAttempts(%g, %g) = %d, %v; want %d, %v", c.alpha, c.used, n, ok, c.n, c.ok)
		}
	}
}

// TestTracedReplayMatches runs each workload through the tracing wrapper:
// every replayed stage must reproduce the engine's result, and the
// per-layer report must carry the layers the workload exercises.
func TestTracedReplayMatches(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			_, ps := runSmall(t, name, 3, tr)
			if len(tr.errs) > 0 {
				t.Fatalf("replay mismatches: %v", tr.errs)
			}
			rep := perLayer(ps, ps, tr, tr.tally.ops)
			for _, m := range []string{"api.overhead_ms", "explore.stats_ms", "core.drill_rhe_ms"} {
				if rep.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, rep.Metrics[m].Value)
				}
			}
			if name != exploreSession && rep.Metrics["cube.build_ms"].Value <= 0 {
				t.Errorf("cube.build_ms = 0 on %s", name)
			}
			if name == liveAppend && rep.Metrics["ingest.append_ms"].Value <= 0 {
				t.Error("ingest.append_ms = 0 on live-append")
			}
		})
	}
}
