package main

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/ingest"
	"repro/internal/model"
)

// TestSnapCompactValidatesLikeReplay: compaction writes the folded log
// through the snapshot writer's validating join, so a WAL record that
// replay refuses fails the compaction too, and no output is written.
// Before, the year-10000 record compacted into a snapshot whose evolution
// sweep mined ~8,000 yearly windows, and the score-9 record into a file
// that failed to open.
func TestSnapCompactValidatesLikeReplay(t *testing.T) {
	cfg := maprat.SmallGenConfig()
	cfg.Users, cfg.Movies, cfg.Ratings = 100, 40, 1500
	ds, err := maprat.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "base.msnap")
	if err := maprat.WriteSnapshot(base, ds, maprat.SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	good := ds.Ratings[0]
	good.Unix = 978300000
	for _, tc := range []struct {
		name  string
		r     model.Rating
		valid bool
		widen bool // add 2^32 to the logged user ID, checksum kept valid
	}{
		{"valid", good, true, false},
		// Narrowed to 32 bits, the record would name the valid user.
		{"user id beyond 32 bits", good, false, true},
		{"unknown user", model.Rating{UserID: 99999999, ItemID: good.ItemID, Score: 5, Unix: good.Unix}, false, false},
		{"timestamp past year 9999", model.Rating{UserID: good.UserID, ItemID: good.ItemID, Score: 5, Unix: 253402300800}, false, false},
		{"score 9", model.Rating{UserID: good.UserID, ItemID: good.ItemID, Score: 9, Unix: good.Unix}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub := t.TempDir()
			walPath := filepath.Join(sub, "ingest.wal")
			wal, _, err := ingest.Open(walPath, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.Append(2, []model.Rating{tc.r}); err != nil {
				t.Fatal(err)
			}
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.widen {
				b, err := os.ReadFile(walPath)
				if err != nil {
					t.Fatal(err)
				}
				// The file header and the record header are 8 bytes each;
				// the payload's user ID follows its epoch and count.
				payload := b[16:]
				binary.LittleEndian.PutUint64(payload[12:], uint64(tc.r.UserID)+1<<32)
				binary.LittleEndian.PutUint32(b[12:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
				if err := os.WriteFile(walPath, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out := filepath.Join(sub, "out.msnap")
			err = snapCompact([]string{base, walPath, out})
			if !tc.valid {
				if err == nil {
					t.Fatal("compacted a WAL record that replay refuses")
				}
				if tc.widen && !strings.Contains(err.Error(), "epoch 2: rating 0: user_id") {
					t.Errorf("compact: err = %v, want one naming epoch 2's user_id", err)
				}
				if _, serr := os.Stat(out); serr == nil {
					t.Error("a failed compaction left its output behind")
				}
				return
			}
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			eng, err := maprat.OpenSnapshot(out, nil)
			if err != nil {
				t.Fatalf("open the compacted snapshot: %v", err)
			}
			defer eng.Close()
			if n := len(eng.Dataset().Ratings); n != len(ds.Ratings)+1 {
				t.Errorf("compacted snapshot holds %d ratings, want %d", n, len(ds.Ratings)+1)
			}
		})
	}
}
