package explore

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
)

// planTuples shapes n tuples like one plan's R_I: 6040 users with skewed
// demographics over every state, each rating several times.
func planTuples(n int, seed int64) []cube.Tuple {
	rng := rand.New(rand.NewSource(seed))
	users := make([][cube.NumAttrs]int16, 6040)
	for i := range users {
		for a := 0; a < cube.NumAttrs; a++ {
			u := rng.Float64() // quadratic skew toward low indices
			users[i][a] = int16(float64(cube.Cardinality(cube.Attr(a))) * u * u)
		}
	}
	tuples := make([]cube.Tuple, n)
	for i := range tuples {
		u := rng.Intn(len(users))
		tuples[i] = cube.Tuple{Vals: users[u], Score: int8(1 + rng.Intn(5))}
	}
	return tuples
}

// BenchmarkRelated times one group click's related-groups lookup on a
// plan-shaped cube, cycling through its groups. Nothing is cached across
// calls, so every call is cold.
func BenchmarkRelated(b *testing.B) {
	c := cube.Build(planTuples(5_600, 42), cube.DefaultConfig())
	if c.Len() < 100 {
		b.Fatalf("cube has %d groups, want a plan-shaped few hundred", c.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Related(c, &c.Groups[i%c.Len()])
	}
	b.ReportMetric(float64(c.Len()), "groups")
}
