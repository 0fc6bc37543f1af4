package maprat

import (
	"runtime/metrics"

	"repro/internal/snapshot"
	"repro/internal/store"
)

// heapObjectsMetric is the runtime's count of bytes in live and
// not-yet-swept heap objects.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// MemoryStats is the /statsz memory section: the bytes of the engine's
// largest owners of memory (the store's rating log and index arenas),
// where the item-index arena lives, and the runtime's heap-object bytes
// the owners are part of.
type MemoryStats struct {
	store.MemStats
	// ItemIndexMapped is set when the item-index arena lies in a mapped
	// snapshot's pages rather than on the heap.
	ItemIndexMapped bool `json:"item_index_mapped"`
	// HeapObjectsBytes is runtime/metrics' /memory/classes/heap/objects:bytes.
	HeapObjectsBytes uint64 `json:"heap_objects_bytes"`
}

// MemoryStats returns the engine's memory report.
func (e *Engine) MemoryStats() MemoryStats {
	m := MemoryStats{MemStats: e.st.MemStats()}
	if s, ok := e.closer.(*snapshot.Snapshot); ok {
		m.ItemIndexMapped = s.IndexMapped()
	}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		m.HeapObjectsBytes = sample[0].Value.Uint64()
	}
	return m
}
