package core

import (
	"math/rand"
	"time"

	"fixture/internal/rng"
)

func wallClock() int64 {
	return time.Now().Unix() // want `time\.Now in mining code`
}

func elapsed(t time.Time) time.Duration {
	return time.Since(t) // want `time\.Since in mining code`
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn in mining code`
}

func adHocSeed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `ad-hoc math/rand\.New in mining code` `ad-hoc math/rand\.NewSource in mining code`
}

func seeded(seed int64) *rand.Rand {
	return rng.New(seed) // ok: the sanctioned seeding seam
}

func draw(gen *rand.Rand) int {
	return gen.Intn(10) // ok: method on an explicitly seeded generator
}

func annotatedSeam() int64 {
	return time.Now().Unix() //maprat:allow(determinism) fixture: annotated wall-clock seam
}
