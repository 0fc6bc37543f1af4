package main

import (
	"os"
	"path/filepath"
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
	}{
		{"valid", good, true},
		{"unknown user", model.Rating{UserID: 99999999, ItemID: good.ItemID, Score: 5, Unix: good.Unix}, false},
		{"timestamp past year 9999", model.Rating{UserID: good.UserID, ItemID: good.ItemID, Score: 5, Unix: 253402300800}, false},
		{"score 9", model.Rating{UserID: good.UserID, ItemID: good.ItemID, Score: 9, Unix: good.Unix}, false},
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
			out := filepath.Join(sub, "out.msnap")
			err = snapCompact([]string{base, walPath, out})
			if !tc.valid {
				if err == nil {
					t.Fatal("compacted a WAL record that replay refuses")
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
