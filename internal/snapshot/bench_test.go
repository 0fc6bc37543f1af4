package snapshot

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// The open benchmarks measure bytes-on-disk → decoded dataset + tuple
// log, the cold path a server boot pays. BenchmarkOpenText is the
// baseline (parse 4 text files); the snapshot variants replace it.
func benchFixtures(b *testing.B) (textDir, snapPath string) {
	b.Helper()
	tmp := b.TempDir()
	textDir = filepath.Join(tmp, "text")
	snapPath = filepath.Join(tmp, "data.msnap")
	if err := dataset.WriteDir(textDir, testDS); err != nil {
		b.Fatal(err)
	}
	if err := WriteFile(snapPath, testDS, Meta{Source: "bench"}); err != nil {
		b.Fatal(err)
	}
	return textDir, snapPath
}

func BenchmarkOpenText(b *testing.B) {
	textDir, _ := benchFixtures(b)
	var size int64
	_ = filepath.Walk(textDir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			size += fi.Size()
		}
		return nil
	})
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.LoadDir(textDir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenSnapshot(b *testing.B) {
	_, snapPath := benchFixtures(b)
	fi, err := os.Stat(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := Open(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		snap.Close()
	}
}

// BenchmarkOpenSnapshotFallback times the copying path non-unix and
// big-endian hosts take: read the whole file, decode every column.
func BenchmarkOpenSnapshotFallback(b *testing.B) {
	_, snapPath := benchFixtures(b)
	fi, err := os.Stat(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := os.ReadFile(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeUnaligned(raw); err != nil {
			b.Fatal(err)
		}
	}
}
