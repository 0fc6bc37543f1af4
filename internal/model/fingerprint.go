package model

import (
	"encoding/binary"
	"hash/fnv"
)

// Fingerprint returns the stable 64-bit dataset identity the engine's
// ETag machinery is built on: an FNV-64a hash of the entity counts, the
// rating time range [lo, hi], and a strided sample of the rating log.
// Two engines opened over the same data agree on it; any edit to the log
// (new ratings, different scores, reordered load) almost surely changes
// it.
//
// The engine computes it once at open, over the base log, whichever
// way that log arrived (text, snapshot); WAL replay never moves it.
func Fingerprint(ds *Dataset, lo, hi int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(ds.Users)))
	put(uint64(len(ds.Items)))
	put(uint64(len(ds.Ratings)))
	put(uint64(lo))
	put(uint64(hi))
	// A strided sample bounds the hash to ~4K ratings regardless of
	// scale while still touching the whole log.
	stride := len(ds.Ratings)/4096 + 1
	for i := 0; i < len(ds.Ratings); i += stride {
		r := &ds.Ratings[i]
		put(uint64(r.UserID))
		put(uint64(r.ItemID))
		put(uint64(r.Score))
		put(uint64(r.Unix))
	}
	return h.Sum64()
}
