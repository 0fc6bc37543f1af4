// Package ingest implements the durable half of MapRat's live-append
// path: a CRC-checksummed write-ahead log of accepted rating batches.
// Each batch carries the monotonic epoch the store assigned it, so a
// restart replays the log and lands on exactly the pre-crash epoch —
// every served result stays a pure function of (query, epoch) across
// crashes. Batches are fsynced before they are acknowledged; a torn or
// corrupt tail is therefore unacknowledged work and is truncated away on
// open.
//
// On-disk layout (all integers little-endian):
//
//	header:  "MWAL" magic | u32 version (currently 1)
//	record:  u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u64 epoch | u32 count | count × (i64 user, i64 item, i64 unix, u8 score)
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/model"
)

const (
	walMagic   = "MWAL"
	walVersion = 1

	headerLen    = 8
	recHeaderLen = 8  // payloadLen + crc
	ratingLen    = 25 // user + item + unix + score

	// maxPayload bounds a record's declared payload so a corrupt length
	// field cannot drive a huge allocation (~2.6M ratings per batch, far
	// beyond any admitted batch).
	maxPayload = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch is one replayed WAL record: the epoch the batch was accepted at
// and its ratings in submission order.
type Batch struct {
	Epoch   uint64
	Ratings []model.Rating
}

// WAL is an open write-ahead log positioned at its end. It is not
// internally synchronized: the ingest layer admits one writer at a time,
// so Append must not be called concurrently (Size is safe from any
// goroutine).
type WAL struct {
	f    *os.File
	size atomic.Int64
	// poisoned is set when a failed append could not be rolled back
	// (truncate/seek to the last known-good offset failed): the file may
	// end in partial or unsynced garbage, and writing a valid record
	// after it would make replay stop at the garbage and silently drop
	// the acknowledged records behind it. Every later Append fails.
	// Only the single admitted writer touches it.
	poisoned bool
}

// ErrPoisoned reports an Append against a WAL whose earlier failed
// append could not be rolled back; the log must be reopened (Open
// repairs the tail) before it can accept writes again.
var ErrPoisoned = errors.New("ingest: wal poisoned by unrecoverable append failure; reopen to repair")

// Open opens (or creates) the log at path and replays it. base is the
// epoch of the data the log extends — the opened store's base epoch —
// and the first record must carry base+1, each further record the next
// epoch in sequence. Replay stops at the first torn, checksum-failing,
// or out-of-sequence record and truncates the file there: everything
// past the last good record was never acknowledged. The returned batches
// are ready to re-apply in order.
func Open(path string, base uint64) (*WAL, []Batch, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("ingest: stat wal: %w", err)
	}
	w := &WAL{f: f}
	if st.Size() < headerLen {
		// Fresh (or torn before the header finished): start clean.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: reset wal: %w", err)
		}
		var hdr [headerLen]byte
		copy(hdr[:4], walMagic)
		binary.LittleEndian.PutUint32(hdr[4:], walVersion)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: write wal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: sync wal header: %w", err)
		}
		if _, err := f.Seek(headerLen, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.size.Store(headerLen)
		return w, nil, nil
	}
	batches, good, err := replay(f, base)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good < st.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: truncate corrupt wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: sync truncated wal: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.size.Store(good)
	return w, batches, nil
}

// ReadLog replays the log at path read-only, with the same tail
// tolerance as Open but without repairing the file — the compaction path
// uses it against a live or copied log.
func ReadLog(path string, base uint64) ([]Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: open wal: %w", err)
	}
	defer f.Close()
	batches, _, err := replay(f, base)
	return batches, err
}

// replay validates the header and decodes records until the first bad
// one, returning the batches and the offset just past the last good
// record. Only a malformed header is an error: a bad record is the
// expected crash artifact, a bad header means this is not a WAL. A
// record whose declared length runs past the end of the file is a torn
// tail, found before its payload buffer is allocated, so a corrupt
// length field costs no more memory than the file itself holds.
func replay(f *os.File, base uint64) ([]Batch, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: stat wal: %w", err)
	}
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, fmt.Errorf("ingest: read wal header: %w", err)
	}
	if string(hdr[:4]) != walMagic {
		return nil, 0, fmt.Errorf("ingest: bad wal magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != walVersion {
		return nil, 0, fmt.Errorf("ingest: unsupported wal version %d", v)
	}

	var batches []Batch
	off := int64(headerLen)
	next := base + 1
	for {
		var rh [recHeaderLen]byte
		if _, err := f.ReadAt(rh[:], off); err != nil {
			return batches, off, nil // clean EOF or torn record header
		}
		payloadLen := binary.LittleEndian.Uint32(rh[:4])
		crc := binary.LittleEndian.Uint32(rh[4:])
		if payloadLen < 12 || payloadLen > maxPayload ||
			int64(payloadLen) > st.Size()-off-recHeaderLen {
			return batches, off, nil
		}
		payload := make([]byte, payloadLen)
		if _, err := f.ReadAt(payload, off+recHeaderLen); err != nil {
			return batches, off, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return batches, off, nil
		}
		b, ok, err := decodeBatch(payload)
		if !ok || b.Epoch != next {
			return batches, off, nil
		}
		if err != nil {
			return nil, 0, err
		}
		batches = append(batches, b)
		off += recHeaderLen + int64(payloadLen)
		next++
	}
}

// decodeBatch decodes one checksummed record's payload. ok is false for
// a payload whose shape is wrong, which replay treats as a torn tail.
// A well-formed record holding a value its Rating field cannot take (an
// ID outside [1, model.MaxID], a score byte above 127) was never written
// by an accepted append; it fails with an error naming the record's
// epoch instead of narrowing into a different rating.
func decodeBatch(payload []byte) (b Batch, ok bool, err error) {
	epoch := binary.LittleEndian.Uint64(payload[:8])
	count := binary.LittleEndian.Uint32(payload[8:12])
	if int(count) == 0 || len(payload) != 12+int(count)*ratingLen {
		return Batch{}, false, nil
	}
	rs := make([]model.Rating, count)
	p := payload[12:]
	for i := range rs {
		r, err := model.NewRating(
			int(int64(binary.LittleEndian.Uint64(p[:8]))),
			int(int64(binary.LittleEndian.Uint64(p[8:16]))),
			int(p[24]),
			int64(binary.LittleEndian.Uint64(p[16:24])))
		if err != nil {
			return Batch{Epoch: epoch}, true, fmt.Errorf("ingest: wal record at epoch %d: rating %d: %w", epoch, i, err)
		}
		rs[i] = r
		p = p[ratingLen:]
	}
	return Batch{Epoch: epoch, Ratings: rs}, true, nil
}

// Append encodes, writes, and fsyncs one batch record. The record is
// durable — and the batch may be acknowledged — when Append returns nil.
// On a failed write or sync the record is rolled back: the file is
// truncated to the last known-good offset so the next Append never lands
// a valid record after partial or unsynced garbage (replay stops at the
// first bad record, so garbage mid-log would silently discard every
// acknowledged batch after it, and an unsynced-but-persisted record
// would replay an unacknowledged batch at an epoch the live process
// reassigned). If the rollback itself fails the WAL is poisoned and all
// later appends return ErrPoisoned.
func (w *WAL) Append(epoch uint64, ratings []model.Rating) error {
	if w.poisoned {
		return ErrPoisoned
	}
	if len(ratings) == 0 {
		return errors.New("ingest: empty batch")
	}
	payloadLen := 12 + len(ratings)*ratingLen
	if payloadLen > maxPayload {
		return fmt.Errorf("ingest: batch of %d ratings exceeds the record bound", len(ratings))
	}
	buf := make([]byte, recHeaderLen+payloadLen)
	payload := buf[recHeaderLen:]
	binary.LittleEndian.PutUint64(payload[:8], epoch)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(ratings)))
	p := payload[12:]
	for _, r := range ratings {
		binary.LittleEndian.PutUint64(p[:8], uint64(int64(r.UserID)))
		binary.LittleEndian.PutUint64(p[8:16], uint64(int64(r.ItemID)))
		binary.LittleEndian.PutUint64(p[16:24], uint64(r.Unix))
		p[24] = byte(r.Score)
		p = p[ratingLen:]
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.f.Write(buf); err != nil {
		w.rollback()
		return fmt.Errorf("ingest: append wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rollback()
		return fmt.Errorf("ingest: sync wal: %w", err)
	}
	w.size.Add(int64(len(buf)))
	return nil
}

// rollback restores the file to the last known-good extent after a
// failed write or sync: whatever partial or unsynced bytes the attempt
// left are truncated away and the offset re-seeks to the good tail, so a
// later Append writes a valid log. (A sync-failed record may have partly
// persisted; truncating removes it either way, so a crash before the
// next successful sync cannot replay an unacknowledged batch.) If the
// truncate or seek fails the tail state is unknown and the WAL is
// poisoned — no record may ever be written after a dirty tail.
func (w *WAL) rollback() {
	good := w.size.Load()
	if err := w.f.Truncate(good); err != nil {
		w.poisoned = true
		return
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		w.poisoned = true
	}
}

// Size returns the log's current byte length (header included).
func (w *WAL) Size() int64 { return w.size.Load() }

// Close closes the log file.
func (w *WAL) Close() error { return w.f.Close() }
