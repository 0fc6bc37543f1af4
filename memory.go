package maprat

import (
	"runtime/metrics"

	"repro/internal/snapshot"
	"repro/internal/store"
)

// The runtime/metrics the memory report reads: the bytes in live and
// not-yet-swept heap objects, and the heap size the garbage collector
// aims to finish its current cycle at.
const (
	heapObjectsMetric = "/memory/classes/heap/objects:bytes"
	heapGoalMetric    = "/gc/heap/goal:bytes"
)

// MemoryStats is the /statsz memory section: the bytes of the engine's
// largest owners of memory (the store's rating log and index arenas),
// where the item-index arena lives, the runtime's heap-object bytes the
// owners are part of, and the collector's heap goal.
type MemoryStats struct {
	store.MemStats
	// ItemIndexMapped is set when the item-index arena lies in a mapped
	// snapshot's pages rather than on the heap.
	ItemIndexMapped bool `json:"item_index_mapped"`
	// HeapObjectsBytes is runtime/metrics' /memory/classes/heap/objects:bytes.
	HeapObjectsBytes uint64 `json:"heap_objects_bytes"`
	// HeapGoalBytes is runtime/metrics' /gc/heap/goal:bytes.
	HeapGoalBytes uint64 `json:"heap_goal_bytes"`
}

// MemoryStats returns the engine's memory report.
func (e *Engine) MemoryStats() MemoryStats {
	m := MemoryStats{MemStats: e.st.MemStats()}
	if s, ok := e.closer.(*snapshot.Snapshot); ok {
		m.ItemIndexMapped = s.IndexMapped()
	}
	sample := []metrics.Sample{{Name: heapObjectsMetric}, {Name: heapGoalMetric}}
	metrics.Read(sample)
	m.HeapObjectsBytes, m.HeapGoalBytes = uint64Value(sample[0]), uint64Value(sample[1])
	return m
}

// uint64Value returns a sample's value, or 0 when the runtime does not
// report it as a uint64.
func uint64Value(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}
