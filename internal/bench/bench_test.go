package bench

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

var (
	engOnce sync.Once
	engMemo *maprat.Engine
)

func smallEngine(t *testing.T) *maprat.Engine {
	t.Helper()
	engOnce.Do(func() {
		ds, err := maprat.Generate(maprat.SmallGenConfig())
		if err != nil {
			panic(err)
		}
		engMemo, err = maprat.Open(ds, nil)
		if err != nil {
			panic(err)
		}
	})
	return engMemo
}

// runExperiment guards against panics inside an experiment so a failure
// reads as a test failure, not a crashed process.
func runExperiment(t *testing.T, name string, f func(context.Context, *maprat.Engine) Report) (rep Report) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	return f(t.Context(), smallEngine(t))
}

func TestEveryExperimentRuns(t *testing.T) {
	cases := []struct {
		id  string
		f   func(context.Context, *maprat.Engine) Report
		key string // a string the report must mention
	}{
		{"E1", E1Queries, "Toy Story"},
		{"E2", E2SimilarityToyStory, "shape check"},
		{"E3", E3Exploration, "histogram"},
		{"E4", E4Controversial, "pair gap"},
		{"E5", E5Caching, "speedup"},
		{"E6", E6QualityVsBaselines, "optimality gap"},
		{"E7", E7Scalability, "latency vs"},
		{"E8", E8Rendering, "SVG"},
		{"E9", E9TimeSlider, "yearly windows"},
		{"E10", E10Ablations, "sibling"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			rep := runExperiment(t, c.id, c.f)
			if rep.ID != c.id {
				t.Errorf("report ID = %q, want %q", rep.ID, c.id)
			}
			if len(rep.Lines) == 0 {
				t.Fatal("empty report")
			}
			joined := strings.Join(rep.Lines, "\n")
			if !strings.Contains(joined, c.key) {
				t.Errorf("report missing %q:\n%s", c.key, joined)
			}
		})
	}
}

func TestReportPrint(t *testing.T) {
	rep := Report{ID: "EX", Title: "demo", Lines: []string{"a", "b"}}
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"=== EX", "demo", "a\n", "b\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("print missing %q in %q", want, out)
		}
	}
}

func TestE2ShapeHoldsOnSmallScale(t *testing.T) {
	rep := runExperiment(t, "E2", E2SimilarityToyStory)
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "all geo-anchored: true") {
		t.Errorf("E2 lost geo anchoring:\n%s", joined)
	}
	if !strings.Contains(joined, "all positive: true") {
		t.Errorf("E2 lost positivity:\n%s", joined)
	}
}

func TestE6RHENeverLoses(t *testing.T) {
	rep := runExperiment(t, "E6", E6QualityVsBaselines)
	joined := strings.Join(rep.Lines, "\n")
	// The optimality-gap section must report a zero mean gap: RHE with the
	// default restart budget finds the optimum on these tiny instances.
	if !strings.Contains(joined, "mean optimality gap") {
		t.Fatalf("E6 missing the optimality section:\n%s", joined)
	}
	if !strings.Contains(joined, ": 0.0000") {
		t.Errorf("E6 mean optimality gap nonzero:\n%s", joined)
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(5, func() { calls++; time.Sleep(time.Microsecond) })
	if calls != 5 {
		t.Errorf("timeIt ran %d times, want 5", calls)
	}
	if d <= 0 {
		t.Errorf("median duration %v", d)
	}
	if timeIt(0, func() {}) < 0 {
		t.Error("reps clamp failed")
	}
}

func TestTruncate(t *testing.T) {
	if truncate("hello", 10) != "hello" {
		t.Error("no-op truncate failed")
	}
	if got := truncate("hello world", 8); len(got) > 10 || !strings.HasSuffix(got, "…") {
		t.Errorf("truncate = %q", got)
	}
}
