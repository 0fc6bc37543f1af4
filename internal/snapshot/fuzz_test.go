package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/dataset"
	"repro/internal/store"
)

// fuzzSnapshotBytes is one small valid snapshot, encoded once: the seed
// the fuzzer mutates from.
var fuzzSnapshotBytes = func() []byte {
	cfg := dataset.SmallGenConfig()
	cfg.Users = 30
	cfg.Movies = 25
	cfg.Ratings = 300
	ds, err := dataset.Generate(cfg)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, ds, Meta{Source: "fuzz", Extra: map[string]string{"k": "v"}}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// fixCRCs recomputes the header and section checksums over (a copy of)
// b, so a mutated count or section byte survives the CRC gates and
// reaches the decoders instead of dying at the first checksum compare.
// Returns nil when b is too far from a snapshot for fixing to apply.
func fixCRCs(b []byte) []byte {
	if len(b) < headerFixedBytes+4 || string(b[0:4]) != Magic {
		return nil
	}
	out := append([]byte(nil), b...)
	nsec := int(le.Uint32(out[8:]))
	if nsec < 0 || nsec > 64 {
		return nil
	}
	hb := headerBytes(nsec)
	if len(out) < hb+4 {
		return nil
	}
	for i := 0; i < nsec; i++ {
		e := out[headerFixedBytes+i*sectionEntrySize:]
		off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
		end := off + length
		if end < off || end > uint64(len(out)) {
			continue
		}
		le.PutUint32(e[4:], crc32.Checksum(out[off:end], castagnoli))
	}
	le.PutUint32(out[hb:], crc32.Checksum(out[:hb], castagnoli))
	return out
}

// FuzzSnapshotOpen feeds corrupted snapshot files to Open: any input may
// be rejected with an error, but none may panic, over-read, or produce a
// snapshot whose artifacts disagree with its header.
func FuzzSnapshotOpen(f *testing.F) {
	valid := fuzzSnapshotBytes
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerFixedBytes+4])
	f.Add([]byte{})
	f.Add([]byte("MSNP"))
	f.Add([]byte("not a snapshot at all"))
	// A count mutation with repaired checksums, so the decoders (not the
	// CRC compare) see it.
	mut := append([]byte(nil), valid...)
	mut[16] ^= 0xff // users count low byte
	if fixed := fixCRCs(mut); fixed != nil {
		f.Add(fixed)
	}

	// One scratch dir for the whole run, reusing the same file names each
	// exec: t.TempDir() per exec creates and tears down a directory tree
	// every input, which stalls fuzz workers to a handful of execs/sec.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, variant := range [][]byte{data, fixCRCs(data)} {
			if variant == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("in%d.msnap", i))
			if err := os.WriteFile(path, variant, 0o644); err != nil {
				t.Fatal(err)
			}
			if snap, err := Open(path); err == nil {
				checkOpened(t, snap)
				if err := snap.Close(); err != nil {
					t.Errorf("Close after successful open: %v", err)
				}
			}
			if snap, err := decodeUnaligned(variant); err == nil {
				checkOpened(t, snap)
			}
		}
	})
}

// TestOpenCorruptionSweep is the deterministic cousin of
// FuzzSnapshotOpen: a seeded sweep of random byte flips and truncations,
// each tried both raw and with repaired checksums so the decoders (not
// just the CRC compares) face the corruption. It reproduces the two bug
// classes fuzzing found — unvalidated item-index arena entries, and
// header counts whose size arithmetic overflowed — without needing fuzz
// mode.
func TestOpenCorruptionSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid := fuzzSnapshotBytes
	dir := t.TempDir()
	for iter := 0; iter < 2500; iter++ {
		data := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(2) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		for i, variant := range [][]byte{data, fixCRCs(data)} {
			if variant == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("in%d.msnap", i))
			if err := os.WriteFile(path, variant, 0o644); err != nil {
				t.Fatal(err)
			}
			if snap, err := Open(path); err == nil {
				checkOpened(t, snap)
				if err := snap.Close(); err != nil {
					t.Errorf("Close after successful open: %v", err)
				}
			}
			if snap, err := decodeUnaligned(variant); err == nil {
				checkOpened(t, snap)
			}
		}
	}
}

// checkOpened asserts the cross-section invariants on a snapshot the
// decoder accepted: whatever the bytes were, an accepted file must be
// self-consistent.
func checkOpened(t *testing.T, s *Snapshot) {
	t.Helper()
	h := s.Header()
	ds := s.Dataset()
	if ds == nil {
		t.Fatal("accepted snapshot has nil dataset")
	}
	if len(ds.Users) != int(h.Users) || len(ds.Items) != int(h.Items) || len(ds.Ratings) != int(h.Ratings) {
		t.Errorf("dataset %d/%d/%d disagrees with header %d/%d/%d",
			len(ds.Users), len(ds.Items), len(ds.Ratings), h.Users, h.Items, h.Ratings)
	}
	pj := s.Prejoined()
	if len(pj.ItemIndex) != int(h.Ratings) || len(pj.ItemUsers) != int(h.Ratings) {
		t.Errorf("item index has %d entries and %d reviewer positions, header says %d ratings", len(pj.ItemIndex), len(pj.ItemUsers), h.Ratings)
	}
	// The item index, its reviewer positions and the time range are
	// exactly what store.Join derives from the decoded catalog and
	// ratings, whatever the header claims.
	want, err := store.Join(ds)
	if err != nil {
		t.Fatalf("store.Join over an accepted snapshot's dataset: %v", err)
	}
	if !samePrejoined(pj, want) {
		t.Error("item index differs from store.Join over the decoded dataset")
	}
	if gl, gh := s.TimeRange(); gl != want.MinUnix || gh != want.MaxUnix {
		t.Errorf("time range [%d,%d], store.Join derives [%d,%d]", gl, gh, want.MinUnix, want.MaxUnix)
	}

	// An accepted file must also serve: a store over it answers browse
	// and gathers a query's log, and the cube builds over that log.
	st, err := store.Open(ds, pj, store.Options{})
	if err != nil {
		t.Fatalf("store over an accepted snapshot: %v", err)
	}
	st.StateAggsAt(0)
	ids := make([]int, len(ds.Items))
	for i := range ds.Items {
		ids[i] = ds.Items[i].ID
	}
	cube.Build(st.TuplesForItems(ids, store.TimeWindow{}), cube.DefaultConfig())
}

// samePrejoined reports whether two joins hold the same item index,
// reviewer positions and time range; a nil and an empty slice compare
// equal.
func samePrejoined(a, b store.Prejoined) bool {
	return slices.Equal(a.ItemIndex, b.ItemIndex) && slices.Equal(a.ItemUsers, b.ItemUsers) &&
		slices.Equal(a.ItemOffsets, b.ItemOffsets) && a.MinUnix == b.MinUnix && a.MaxUnix == b.MaxUnix
}
