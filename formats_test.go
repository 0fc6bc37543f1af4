package maprat

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// The committed format fixtures in internal/snapshot/testdata were
// written from fixtureDataset: v2.msnap by WriteSnapshot (source
// "generated", provenance 0x41), and v1.wal by an engine opened over
// that snapshot appending fixtureBatches at epochs 2 and 3. The
// fingerprints are the ones the engine reported when it wrote them.
const (
	fixtureSnapshot = "internal/snapshot/testdata/v2.msnap"
	fixtureWAL      = "internal/snapshot/testdata/v1.wal"
	fixtureBaseFP   = 0xfee831bb6f8e37b3 // Fingerprint at epoch 1
	fixtureLastFP   = 0x20a922e3e419f1d4 // Fingerprint at epoch 3, after the WAL
)

func fixtureDataset(t testing.TB) *Dataset {
	t.Helper()
	cfg := SmallGenConfig()
	cfg.Seed = 41
	cfg.Users, cfg.Movies, cfg.Ratings = 40, 24, 300
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fixtureBatches are the two three-rating batches v1.wal holds, dated
// after the log's last rating hi.
func fixtureBatches(ds *Dataset, hi int64) [][]model.Rating {
	out := make([][]model.Rating, 2)
	for b := range out {
		for i := 0; i < 3; i++ {
			k := b*3 + i
			out[b] = append(out[b], model.Rating{
				UserID: int32(ds.Users[k%len(ds.Users)].ID),
				ItemID: ds.Items[(k*5)%len(ds.Items)].ID,
				Score:  int8(1 + k%5),
				Unix:   hi + int64(k+1),
			})
		}
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// copyFile copies src into dir and returns the copy's path.
func copyFile(t *testing.T, src, dir string) string {
	t.Helper()
	dst := filepath.Join(dir, filepath.Base(src))
	if err := os.WriteFile(dst, readFile(t, src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestCommittedFormatsByteIdentical pins the snapshot and WAL file
// formats against files an earlier build wrote: this build writes the
// same bytes from the same data, and opens and replays those files to
// the fingerprints that build reported. An in-memory layout change
// (model.Rating, cube.Tuple) must not reach either format.
func TestCommittedFormatsByteIdentical(t *testing.T) {
	ds := fixtureDataset(t)
	dir := t.TempDir()

	snap := filepath.Join(dir, "fresh.msnap")
	if err := WriteSnapshot(snap, ds, SnapshotMeta{Source: "generated", Provenance: 0x41}); err != nil {
		t.Fatal(err)
	}
	if got, want := readFile(t, snap), readFile(t, fixtureSnapshot); !bytes.Equal(got, want) {
		t.Fatalf("the snapshot writer's %d bytes differ from %s's %d", len(got), fixtureSnapshot, len(want))
	}

	text, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fp := text.Fingerprint(); fp != fixtureBaseFP {
		t.Errorf("text open fingerprint %016x, want %016x", fp, uint64(fixtureBaseFP))
	}
	committed, err := OpenSnapshot(fixtureSnapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer committed.Close()
	if fp := committed.Fingerprint(); fp != fixtureBaseFP {
		t.Errorf("committed snapshot fingerprint %016x, want %016x", fp, uint64(fixtureBaseFP))
	}
	epoch, err := committed.EnableIngest(copyFile(t, fixtureWAL, dir))
	if err != nil {
		t.Fatal(err)
	}
	if fp := committed.Fingerprint(); epoch != 3 || fp != fixtureLastFP {
		t.Errorf("committed WAL replays to epoch %d, fingerprint %016x; want 3, %016x", epoch, fp, uint64(fixtureLastFP))
	}

	// A fresh engine appending the same batches writes the same log.
	fresh, err := OpenSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	wal := filepath.Join(dir, "fresh.wal")
	if _, err := fresh.EnableIngest(wal); err != nil {
		t.Fatal(err)
	}
	_, hi := fresh.TimeRange()
	for _, b := range fixtureBatches(ds, hi) {
		if _, err := fresh.AppendRatings(t.Context(), b); err != nil {
			t.Fatal(err)
		}
	}
	if fp := fresh.Fingerprint(); fp != fixtureLastFP {
		t.Errorf("fresh engine at epoch 3: fingerprint %016x, want %016x", fp, uint64(fixtureLastFP))
	}
	if got, want := readFile(t, wal), readFile(t, fixtureWAL); !bytes.Equal(got, want) {
		t.Fatalf("the WAL writer's %d bytes differ from %s's %d", len(got), fixtureWAL, len(want))
	}
}

// TestTextAndSnapshotAgreeOnWideIDs: a text directory naming user
// 2^32+1000 must not open from text and from its packed snapshot to two
// different datasets. The snapshot's 32-bit ID column would hold user
// 1000 in its place. Such an ID is refused where it enters, naming the
// line, so neither open succeeds.
func TestTextAndSnapshotAgreeOnWideIDs(t *testing.T) {
	cfg := SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 60, 30, 600
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteDir(dir, ds); err != nil {
		t.Fatal(err)
	}
	const wide = 1<<32 + 1000
	for file, line := range map[string]string{
		"users.dat":   fmt.Sprintf("%d::M::25::12::94110\n", wide),
		"ratings.dat": fmt.Sprintf("%d::%d::5::978300000\n", wide, ds.Items[0].ID),
	} {
		f, err := os.OpenFile(filepath.Join(dir, file), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	textFP, textErr := func() (uint64, error) {
		loaded, err := LoadDir(dir)
		if err != nil {
			return 0, err
		}
		e, err := Open(loaded, nil)
		if err != nil {
			return 0, err
		}
		return e.Fingerprint(), nil
	}()
	snapFP, snapErr := func() (uint64, error) {
		loaded, err := LoadDir(dir)
		if err != nil {
			return 0, err
		}
		path := filepath.Join(t.TempDir(), "wide.msnap")
		if err := WriteSnapshot(path, loaded, SnapshotMeta{Source: "text"}); err != nil {
			return 0, err
		}
		e, err := OpenSnapshot(path, nil)
		if err != nil {
			return 0, err
		}
		defer e.Close()
		return e.Fingerprint(), nil
	}()
	if textErr == nil && snapErr == nil && textFP != snapFP {
		t.Fatalf("text open fingerprint %016x, snapshot open %016x: the two opens hold different data", textFP, snapFP)
	}
	wantLine := fmt.Sprintf("users line %d: user_id %d", len(ds.Users)+1, wide)
	if textErr == nil || !strings.Contains(textErr.Error(), wantLine) {
		t.Errorf("text open: err = %v, want one naming %q", textErr, wantLine)
	}

	// An in-memory catalog never passed a parser; the writer refuses the
	// ID before its 32-bit column would narrow it.
	users := append([]model.User(nil), ds.Users...)
	users[0].ID = wide
	mem, err := model.NewDataset(users, ds.Items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(filepath.Join(t.TempDir(), "mem.msnap"), mem, SnapshotMeta{}); err == nil || !strings.Contains(err.Error(), "user_id 4294968296") {
		t.Errorf("WriteSnapshot: err = %v, want one naming user_id 4294968296", err)
	}
}

// TestMemoryStats checks each owner in the memory report against its
// length times its element size, on a text-opened engine before and
// after an append, and on a snapshot-opened one, whose index arena is
// reported mapped exactly when the snapshot aliases it from a mapping.
func TestMemoryStats(t *testing.T) {
	ds := fixtureDataset(t)
	rating, entry := int64(unsafe.Sizeof(model.Rating{})), int64(unsafe.Sizeof(int32(0)))
	n := int64(len(ds.Ratings))
	base := store.MemStats{BaseLogBytes: n * rating, ItemIndexBytes: n * entry, ItemUsersBytes: n * entry}

	e, err := Open(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := e.MemoryStats()
	if m.MemStats != base || m.ItemIndexMapped {
		t.Errorf("text open: %+v, want %+v, unmapped", m, base)
	}
	if m.HeapObjectsBytes < uint64(m.BaseLogBytes) {
		t.Errorf("heap objects %d bytes, fewer than the %d-byte base log on the heap", m.HeapObjectsBytes, m.BaseLogBytes)
	}
	if _, err := e.EnableIngest(filepath.Join(t.TempDir(), "m.wal")); err != nil {
		t.Fatal(err)
	}
	_, hi := e.TimeRange()
	batch := fixtureBatches(ds, hi)[0]
	if _, err := e.AppendRatings(t.Context(), batch); err != nil {
		t.Fatal(err)
	}
	after := base
	after.AppendedBytes = int64(len(batch)) * rating
	if got := e.MemoryStats().MemStats; got != after {
		t.Errorf("after an append: %+v, want %+v", got, after)
	}

	snap, err := snapshot.Open(fixtureSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	mapped := snap.IndexMapped()
	snap.Close()
	se, err := OpenSnapshot(fixtureSnapshot, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if m := se.MemoryStats(); m.MemStats != base || m.ItemIndexMapped != mapped {
		t.Errorf("snapshot open: %+v, want %+v, mapped %v", m, base, mapped)
	}
}
