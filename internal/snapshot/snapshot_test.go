package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cube"
	"repro/internal/dataset"
	"repro/internal/model"
)

// testDataset builds one small synthetic dataset per process: generation
// dominates the suite's cost and every test only reads it.
var testDS = func() *model.Dataset {
	cfg := dataset.SmallGenConfig()
	cfg.Users = 300
	cfg.Movies = 120
	cfg.Ratings = 6000
	ds, err := dataset.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}()

func writeTestSnapshot(t *testing.T, meta Meta) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.msnap")
	if err := WriteFile(path, testDS, meta); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	meta := Meta{Source: "generated", Provenance: 0xdeadbeef, Extra: map[string]string{"k": "v"}}
	path := writeTestSnapshot(t, meta)
	snap, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer snap.Close()

	got := snap.Dataset()
	if !reflect.DeepEqual(got.Users, testDS.Users) {
		t.Error("users differ after round trip")
	}
	if !reflect.DeepEqual(got.Items, testDS.Items) {
		t.Error("items differ after round trip")
	}
	if !reflect.DeepEqual(got.Ratings, testDS.Ratings) {
		t.Error("ratings differ after round trip")
	}

	h := snap.Header()
	if int(h.Users) != len(testDS.Users) || int(h.Items) != len(testDS.Items) || int(h.Ratings) != len(testDS.Ratings) {
		t.Errorf("header counts %d/%d/%d != dataset %d/%d/%d",
			h.Users, h.Items, h.Ratings, len(testDS.Users), len(testDS.Items), len(testDS.Ratings))
	}
	if snap.Provenance() != 0xdeadbeef {
		t.Errorf("provenance %x != deadbeef", snap.Provenance())
	}
	if src := snap.Meta()["source"]; src != "generated" {
		t.Errorf("source %q != generated", src)
	}
	if snap.Meta()["k"] != "v" {
		t.Errorf("meta extra lost: %v", snap.Meta())
	}
	pj := snap.Prejoined()
	if len(pj.ItemUsers) != len(testDS.Ratings) {
		t.Errorf("%d reviewer positions, want %d", len(pj.ItemUsers), len(testDS.Ratings))
	}

	// Every rating must appear in its item's index exactly once, sorted
	// by timestamp, beside its reviewer's position.
	total := 0
	for i, it := range got.Items {
		last := int64(-1 << 62)
		run, users := pj.ItemRun(i)
		for k, ti := range run {
			total++
			r := got.Ratings[ti]
			if r.ItemID != it.ID {
				t.Fatalf("item index for %d points at a rating of item %d", it.ID, r.ItemID)
			}
			if r.Unix < last {
				t.Fatalf("item %d index not time-sorted", it.ID)
			}
			if got.Users[users[k]].ID != int(r.UserID) {
				t.Fatalf("item %d entry %d names reviewer %d, the rating's user is %d", it.ID, k, got.Users[users[k]].ID, r.UserID)
			}
			last = r.Unix
		}
	}
	if total != len(testDS.Ratings) {
		t.Errorf("item index covers %d tuples, want %d", total, len(testDS.Ratings))
	}
}

// decodeUnaligned decodes a heap copy of b that starts one byte past an
// aligned address, so the item-index arena cannot be aliased: the
// copying path big-endian hosts take.
func decodeUnaligned(b []byte) (*Snapshot, error) {
	buf := make([]byte, len(b)+1)
	copy(buf[1:], b)
	return decode(buf[1:], false)
}

// TestFallbackParity pins the open paths — mmap with the item-index
// arena aliased, plain read, and plain read with nothing aliased — to
// identical results.
func TestFallbackParity(t *testing.T) {
	path := writeTestSnapshot(t, Meta{Source: "generated"})
	base, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer base.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	same := func(t *testing.T, snap *Snapshot) {
		t.Helper()
		if !reflect.DeepEqual(snap.Dataset(), base.Dataset()) {
			t.Error("dataset differs from the mmap+alias open")
		}
		if !reflect.DeepEqual(snap.Prejoined(), base.Prejoined()) {
			t.Error("item index or reviewer positions differ from the mmap open")
		}
	}
	if base.Mapped() && arenaLayoutCompatible && !within(base.Prejoined().ItemIndex, base.data) {
		t.Error("mapped open copied the item-index arena instead of aliasing it")
	}
	t.Run("no-mmap", func(t *testing.T) {
		snap, err := decode(raw, false)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Mapped() {
			t.Error("heap-decoded snapshot reports mapped")
		}
		same(t, snap)
	})
	t.Run("no-mmap-no-alias", func(t *testing.T) {
		snap, err := decodeUnaligned(raw)
		if err != nil {
			t.Fatal(err)
		}
		if within(snap.Prejoined().ItemIndex, snap.data) {
			t.Error("misaligned buffer but the item-index arena is aliased")
		}
		same(t, snap)
	})
}

// within reports whether xs's first element lies inside data.
func within(xs []int32, data []byte) bool {
	if len(xs) == 0 || len(data) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&xs[0]))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p < lo+uintptr(len(data))
}

func TestWriteDeterministic(t *testing.T) {
	meta := Meta{Source: "generated", Provenance: 7, Extra: map[string]string{"b": "2", "a": "1"}}
	var one, two bytes.Buffer
	if err := Write(&one, testDS, meta); err != nil {
		t.Fatal(err)
	}
	if err := Write(&two, testDS, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("two writes of the same dataset differ byte-wise")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	path := writeTestSnapshot(t, Meta{Source: "generated"})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(t *testing.T, mutate func(b []byte) []byte) error {
		t.Helper()
		b := mutate(append([]byte(nil), raw...))
		p := filepath.Join(t.TempDir(), "bad.msnap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := Open(p)
		if err == nil {
			snap.Close()
		}
		return err
	}

	t.Run("bad-magic", func(t *testing.T) {
		err := reopen(t, func(b []byte) []byte { b[0] = 'X'; return b })
		if !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		err := reopen(t, func(b []byte) []byte {
			le.PutUint32(b[4:], Version+1)
			return b
		})
		if !errors.Is(err, ErrVersion) {
			t.Errorf("got %v, want ErrVersion", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		err := reopen(t, func(b []byte) []byte { return b[:40] })
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-body", func(t *testing.T) {
		err := reopen(t, func(b []byte) []byte { return b[:len(b)/2] })
		if err == nil {
			t.Error("half a snapshot opened cleanly")
		}
	})
	t.Run("flipped-header-byte", func(t *testing.T) {
		// Any header mutation (here: the rating count) must fail the
		// header CRC, not produce a wrong-shaped dataset.
		err := reopen(t, func(b []byte) []byte { b[32] ^= 0xff; return b })
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped-section-byte", func(t *testing.T) {
		h, err := decodeHeader(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range h.Sections {
			if sec.Length == 0 {
				continue
			}
			t.Run(sec.Name(), func(t *testing.T) {
				err := reopen(t, func(b []byte) []byte {
					b[sec.Offset+sec.Length/2] ^= 0x01
					return b
				})
				if !errors.Is(err, ErrChecksum) {
					t.Errorf("got %v, want ErrChecksum", err)
				}
			})
		}
	})
	t.Run("empty-file", func(t *testing.T) {
		err := reopen(t, func(b []byte) []byte { return nil })
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
}

// TestOpenRejectsInconsistentLog: a file whose checksums are intact but
// whose tuple log or item index disagrees with the rest of it must fail
// the open. Before these checks, a tuple whose state was set to 300
// opened cleanly and the first browse call panicked on an index out of
// range; every mine touching that item answered 500 after that.
func TestOpenRejectsInconsistentLog(t *testing.T) {
	path := writeTestSnapshot(t, Meta{Source: "generated"})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	offsetOf := func(id uint32) int {
		for _, sec := range h.Sections {
			if sec.ID == id {
				return int(sec.Offset)
			}
		}
		t.Fatalf("section %d missing", id)
		return 0
	}
	tupleOff, idxOff := offsetOf(secTuples), offsetOf(secItemIndex)
	idx := raw[idxOff:]
	nItems := len(testDS.Items)
	arena := func(k int) int { return idxOff + 4*(nItems+1) + 4*k }
	// The first two items with at least two tuples each, and their runs.
	var runs [][2]int
	for i := 0; i < nItems && len(runs) < 2; i++ {
		lo, hi := int(le.Uint32(idx[4*i:])), int(le.Uint32(idx[4*(i+1):]))
		if hi-lo >= 2 {
			runs = append(runs, [2]int{lo, hi})
		}
	}
	if len(runs) < 2 {
		t.Fatal("fixture has fewer than two items with two ratings")
	}
	swap := func(b []byte, i, j int) {
		for k := 0; k < 4; k++ {
			b[i+k], b[j+k] = b[j+k], b[i+k]
		}
	}
	usersOff, itemsOff := offsetOf(secUsers), offsetOf(secItems)
	cases := []struct {
		name   string
		mutate func(b []byte)
		want   string // a substring the error must carry, if set
	}{
		// The ID columns are 32 bits wide: a stored ID above
		// model.MaxID is refused, not read as another ID.
		{"user-id-above-max", func(b []byte) { le.PutUint32(b[usersOff:], 1<<31+5) }, "user_id 2147483653"},
		{"item-id-above-max", func(b []byte) { le.PutUint32(b[itemsOff:], 1<<31+5) }, "item_id 2147483653"},
		{"tuple-user-id-above-max", func(b []byte) { le.PutUint32(b[tupleOff+recUserID:], 1<<31+5) }, "invalid user id -2147483643"},
		{"tuple-item-id-above-max", func(b []byte) { le.PutUint32(b[tupleOff+recItemID:], 1<<31+5) }, "invalid item id -2147483643"},
		{"tuple-state-out-of-range", func(b []byte) {
			le.PutUint16(b[tupleOff+2*int(cube.State):], 300)
		}, ""},
		{"tuple-value-below-wildcard", func(b []byte) {
			le.PutUint16(b[tupleOff+2*int(cube.Gender):], uint16(0xfffe)) // -2
		}, ""},
		// A tuple is checked against its user's record, not trusted:
		// before that check both of these opened and served, and snap
		// compact over the first one failed with "unknown user".
		{"tuple-unknown-user", func(b []byte) {
			le.PutUint32(b[tupleOff+24:], 99999999)
		}, ""},
		{"tuple-vals-not-its-users", func(b []byte) {
			g := le.Uint16(b[tupleOff+2*int(cube.Gender):])
			le.PutUint16(b[tupleOff+2*int(cube.Gender):], 1-g) // the other gender, still in range
		}, ""},
		// A score outside [1,5] would index past GroupStats.Histogram on
		// the first group click over this item.
		{"tuple-score-out-of-range", func(b []byte) { b[tupleOff+10] = 9 }, ""},
		{"index-entry-of-another-item", func(b []byte) {
			swap(b, arena(runs[0][0]), arena(runs[1][0]))
		}, ""},
		{"index-run-out-of-order", func(b []byte) {
			swap(b, arena(runs[0][0]), arena(runs[0][0]+1))
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := append([]byte(nil), raw...)
			c.mutate(b)
			b = fixCRCs(b)
			p := filepath.Join(t.TempDir(), "bad.msnap")
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if snap, err := Open(p); err == nil {
				snap.Close()
				t.Error("opened cleanly")
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one naming %q", err, c.want)
			}
			if _, err := decodeUnaligned(b); err == nil {
				t.Error("decoded cleanly without aliasing")
			}
		})
	}
}

// TestOpensVersion1 keeps version-1 files readable. testdata/v1.msnap
// (300 generated ratings) was written by the version-1 writer, which also
// stored a rating-column section and two header hashes; Open never reads
// them, and the file must open to exactly what a version-2 rewrite of its
// own dataset opens to.
func TestOpensVersion1(t *testing.T) {
	v1, err := Open(filepath.Join("testdata", "v1.msnap"))
	if err != nil {
		t.Fatalf("Open(v1): %v", err)
	}
	defer v1.Close()
	if v := v1.Header().Version; v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	path := filepath.Join(t.TempDir(), "v2.msnap")
	if err := WriteFile(path, v1.Dataset(), Meta{Provenance: v1.Provenance()}); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if !reflect.DeepEqual(v1.Dataset(), v2.Dataset()) {
		t.Error("dataset differs between the v1 file and its v2 rewrite")
	}
	if !reflect.DeepEqual(v1.Prejoined(), v2.Prejoined()) {
		t.Error("joined log differs between the v1 file and its v2 rewrite")
	}
	lo1, hi1 := v1.TimeRange()
	lo2, hi2 := v2.TimeRange()
	if lo1 != lo2 || hi1 != hi2 || v1.Provenance() != v2.Provenance() {
		t.Error("time range or provenance differs between the v1 file and its v2 rewrite")
	}
	if v2.Size() >= v1.Size() {
		t.Errorf("v2 rewrite is %d bytes, not smaller than the v1 file's %d", v2.Size(), v1.Size())
	}
}

// TestCloseIdempotent guards the munmap path: double Close must not
// panic or unmap twice.
func TestCloseIdempotent(t *testing.T) {
	path := writeTestSnapshot(t, Meta{})
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTimeRange pins the snapshot's time range to the rating extremes.
func TestTimeRange(t *testing.T) {
	path := writeTestSnapshot(t, Meta{})
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	var lo, hi int64 = 1<<62 - 1, -(1 << 62)
	for _, r := range testDS.Ratings {
		if r.Unix < lo {
			lo = r.Unix
		}
		if r.Unix > hi {
			hi = r.Unix
		}
	}
	glo, ghi := snap.TimeRange()
	if glo != lo || ghi != hi {
		t.Errorf("time range [%s, %s], want [%s, %s]",
			time.Unix(glo, 0), time.Unix(ghi, 0), time.Unix(lo, 0), time.Unix(hi, 0))
	}
}
