package ingest

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
)

// testBatch builds n distinct ratings; base offsets the IDs so batches
// are distinguishable after a replay.
func testBatch(n, base int) []model.Rating {
	rs := make([]model.Rating, n)
	for i := range rs {
		rs[i] = model.Rating{
			UserID: base + i + 1,
			ItemID: base + i + 100,
			Score:  1 + (base+i)%5,
			Unix:   978300000 + int64(base+i),
		}
	}
	return rs
}

func tempWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ingest.wal")
}

func TestWALRoundTrip(t *testing.T) {
	path := tempWAL(t)
	w, batches, err := Open(path, 1)
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	if len(batches) != 0 {
		t.Fatalf("fresh log replayed %d batches", len(batches))
	}
	if w.Size() != headerLen {
		t.Fatalf("fresh log size = %d, want %d", w.Size(), headerLen)
	}
	b2, b3 := testBatch(3, 0), testBatch(5, 50)
	if err := w.Append(2, b2); err != nil {
		t.Fatalf("Append epoch 2: %v", err)
	}
	if err := w.Append(3, b3); err != nil {
		t.Fatalf("Append epoch 3: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, err := Open(path, 1)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	want := []Batch{{Epoch: 2, Ratings: b2}, {Epoch: 3, Ratings: b3}}
	if !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replay = %+v, want %+v", replayed, want)
	}
}

func TestWALEmptyBatchRejected(t *testing.T) {
	w, _, err := Open(tempWAL(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(2, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestWALCorruptTailTruncated: a record whose checksum fails is
// unacknowledged work — replay stops before it, Open truncates it away,
// and the log accepts the epoch again.
func TestWALCorruptTailTruncated(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatch(3, 0)); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()
	if err := w.Append(3, testBatch(4, 10)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip one payload byte of the second record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[goodSize+recHeaderLen+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, batches, err := Open(path, 1)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	if len(batches) != 1 || batches[0].Epoch != 2 {
		t.Fatalf("replay = %+v, want exactly the epoch-2 batch", batches)
	}
	if w2.Size() != goodSize {
		t.Fatalf("size after repair = %d, want truncated to %d", w2.Size(), goodSize)
	}
	if st, _ := os.Stat(path); st.Size() != goodSize {
		t.Fatalf("file not truncated: %d bytes", st.Size())
	}
	// The repaired log accepts epoch 3 again and replays both batches.
	b3 := testBatch(2, 40)
	if err := w2.Append(3, b3); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, batches, err = Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || !reflect.DeepEqual(batches[1].Ratings, b3) {
		t.Fatalf("replay after re-append = %+v", batches)
	}
}

// TestWALTornRecordTruncated: a crash mid-write leaves a short record;
// replay treats it as clean EOF.
func TestWALTornRecordTruncated(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatch(3, 0)); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()
	if err := w.Append(3, testBatch(3, 10)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.Truncate(path, goodSize+5); err != nil {
		t.Fatal(err)
	}
	w2, batches, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(batches) != 1 || w2.Size() != goodSize {
		t.Fatalf("torn record: %d batches, size %d (want 1, %d)", len(batches), w2.Size(), goodSize)
	}
}

// TestWALOutOfSequenceStops: replay requires consecutive epochs from
// base+1; a gap marks everything after it unacknowledged.
func TestWALOutOfSequenceStops(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, testBatch(2, 10)); err != nil { // gap: want 3
		t.Fatal(err)
	}
	w.Close()
	_, batches, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Epoch != 2 {
		t.Fatalf("out-of-sequence replay = %+v", batches)
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	path := tempWAL(t)
	if err := os.WriteFile(path, []byte("NOTAWAL_plus_padding"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, 1); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestWALShortHeaderReset: a file torn before the header finished is
// indistinguishable from fresh — Open starts it clean.
func TestWALShortHeaderReset(t *testing.T) {
	path := tempWAL(t)
	if err := os.WriteFile(path, []byte{'M', 'W'}, 0o644); err != nil {
		t.Fatal(err)
	}
	w, batches, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(batches) != 0 || w.Size() != headerLen {
		t.Fatalf("short header: %d batches, size %d", len(batches), w.Size())
	}
}

// TestWALRollbackRestoresTail: after a failed append leaves partial
// bytes at the tail, rollback truncates back to the last known-good
// offset and re-seeks, so the next Append writes a valid record there —
// replay must never stop at garbage and silently drop acknowledged
// records written after it.
func TestWALRollbackRestoresTail(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := testBatch(3, 0)
	if err := w.Append(2, b2); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()

	// Simulate a failed append's partial write: garbage lands at the
	// tail and the file offset moves past it.
	if _, err := w.f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01}); err != nil {
		t.Fatal(err)
	}
	w.rollback()
	if w.poisoned {
		t.Fatal("rollback poisoned a recoverable WAL")
	}
	if st, _ := os.Stat(path); st.Size() != goodSize {
		t.Fatalf("rollback left %d bytes, want %d", st.Size(), goodSize)
	}

	// The next Append lands at the good tail and both records replay.
	b3 := testBatch(2, 40)
	if err := w.Append(3, b3); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, batches, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Batch{{Epoch: 2, Ratings: b2}, {Epoch: 3, Ratings: b3}}
	if !reflect.DeepEqual(batches, want) {
		t.Fatalf("replay after rollback = %+v, want %+v", batches, want)
	}
}

// TestWALPoisonedAfterUnrecoverableFailure: when the rollback itself
// fails the tail state is unknown, so every later Append must refuse
// with ErrPoisoned rather than risk writing after a dirty tail.
func TestWALPoisonedAfterUnrecoverableFailure(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatch(2, 0)); err != nil {
		t.Fatal(err)
	}
	// Closing the file makes the write fail AND the rollback's truncate
	// fail — the unrecoverable case.
	w.f.Close()
	if err := w.Append(3, testBatch(2, 10)); err == nil {
		t.Fatal("append on closed file succeeded")
	}
	if !w.poisoned {
		t.Fatal("failed rollback did not poison the WAL")
	}
	if err := w.Append(3, testBatch(2, 10)); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned WAL = %v, want ErrPoisoned", err)
	}
}

// TestReadLogDoesNotRepair: the compaction-path reader tolerates a
// corrupt tail but leaves the file alone.
func TestReadLogDoesNotRepair(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := testBatch(3, 0)
	if err := w.Append(2, b2); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()
	if err := w.Append(3, testBatch(3, 10)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, _ := os.ReadFile(path)
	raw[goodSize+recHeaderLen] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sizeBefore := int64(len(raw))

	batches, err := ReadLog(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || !reflect.DeepEqual(batches[0].Ratings, b2) {
		t.Fatalf("ReadLog = %+v", batches)
	}
	if st, _ := os.Stat(path); st.Size() != sizeBefore {
		t.Fatalf("ReadLog repaired the file: %d -> %d bytes", sizeBefore, st.Size())
	}
}

// TestWALOversizedLengthIsTornTail: a record header whose length field
// claims more bytes than the file holds is a torn tail. Replay stops
// there without allocating the declared payload, so a corrupt length in
// a short file cannot cost maxPayload bytes per open.
func TestWALOversizedLengthIsTornTail(t *testing.T) {
	path := tempWAL(t)
	w, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testBatch(3, 0)); err != nil {
		t.Fatal(err)
	}
	goodSize := w.Size()
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rh [recHeaderLen + 16]byte
	binary.LittleEndian.PutUint32(rh[:4], maxPayload)
	if _, err := f.Write(rh[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches, err := ReadLog(path, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].Epoch != 2 {
		t.Fatalf("replay = %+v, want exactly the epoch-2 batch", batches)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("replay allocated %d bytes for a %d-byte log", grew, goodSize+int64(len(rh)))
	}

	w2, batches, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(batches) != 1 || w2.Size() != goodSize {
		t.Fatalf("oversized length: %d batches, size %d (want 1, %d)", len(batches), w2.Size(), goodSize)
	}
}

// FuzzWALReplay writes arbitrary bytes after a valid header and checks
// the recovery contract: Open never fails or panics on a well-formed
// header, the batches it replays carry consecutive epochs from base+1,
// reopening the repaired file replays the same batches at the same size,
// and the repaired log accepts the next epoch.
func FuzzWALReplay(f *testing.F) {
	const base = 7
	seed := filepath.Join(f.TempDir(), "seed.wal")
	w, _, err := Open(seed, base)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(base+1, testBatch(2, 0)); err != nil {
		f.Fatal(err)
	}
	one := w.Size()
	if err := w.Append(base+2, testBatch(3, 10)); err != nil {
		f.Fatal(err)
	}
	w.Close()
	raw, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	hdr, tail := raw[:headerLen], raw[headerLen:]
	f.Add([]byte{})
	f.Add(append([]byte(nil), tail...))
	f.Add(append([]byte(nil), tail[:one-headerLen+5]...)) // torn second record
	oversized := append([]byte(nil), tail...)
	binary.LittleEndian.PutUint32(oversized[one-headerLen:], maxPayload)
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, append(append([]byte(nil), hdr...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		w, batches, err := Open(path, base)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i, b := range batches {
			if want := uint64(base + 1 + i); b.Epoch != want {
				t.Fatalf("batch %d has epoch %d, want %d", i, b.Epoch, want)
			}
		}
		size := w.Size()
		w.Close()

		w, again, err := Open(path, base)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if !sameBatches(again, batches) || w.Size() != size {
			t.Fatalf("reopen replayed %d batches at size %d, first open %d at %d", len(again), w.Size(), len(batches), size)
		}
		next := testBatch(2, 50)
		if err := w.Append(uint64(base+1+len(batches)), next); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		w.Close()

		w, after, err := Open(path, base)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer w.Close()
		if len(after) != len(batches)+1 || !sameBatches(after[:len(batches)], batches) ||
			!reflect.DeepEqual(after[len(batches)].Ratings, next) {
			t.Fatalf("after append replayed %d batches, want the %d before plus the new one", len(after), len(batches))
		}
	})
}

// sameBatches compares replays element by element, so an empty replay
// equals a nil one.
func sameBatches(a, b []Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
