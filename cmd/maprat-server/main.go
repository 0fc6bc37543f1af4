// Command maprat-server runs the MapRat web demo (§3 of the paper): the
// Figure-1 search form, Figure-2 tabbed choropleth results, the Figure-3
// group exploration pages, a time-slider view and a JSON API.
//
//	maprat-server -addr :8080            # synthetic small dataset
//	maprat-server -scale full            # MovieLens-1M-scale synthetic data
//	maprat-server -data /path/to/ml-1m   # real MovieLens 1M files
//
// -snapshot mounts a .msnap columnar snapshot (memory-mapped, near-instant
// open) and repeats to serve several datasets from one process; API
// requests pick one via ?dataset=<name> or the X-Maprat-Dataset header
// (the name is the snapshot's file base, the first mount is the default):
//
//	maprat-server -snapshot a.msnap -snapshot b.msnap
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/server"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("maprat-server: ")

	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataDir   = flag.String("data", "", "MovieLens-format data directory (default: synthetic)")
		scale     = flag.String("scale", "small", "synthetic data scale when -data is unset: small|full")
		seed      = flag.Int64("seed", 1, "generator seed")
		timeout   = flag.Duration("timeout", api.DefaultRequestTimeout, "per-request mining timeout")
		accessLog = flag.Bool("access-log", true, "log /api/v1 requests and the /explain, /group, /evolution and /browse pages")
		gzipOn    = flag.Bool("gzip", true, "offer gzip-compressed /api/v1 responses and HTML pages to clients that accept it")
		walPath   = flag.String("wal", "", "arm live ingestion with a write-ahead log at this path (single-dataset servers only)")
	)
	var snapshots multiFlag
	flag.Var(&snapshots, "snapshot", "mount a .msnap snapshot (repeatable; first mount is the default dataset)")
	flag.Parse()

	reg := maprat.NewRegistry()
	defer reg.Close()
	if err := mountDatasets(reg, *dataDir, snapshots, *scale, *seed); err != nil {
		log.Fatal(err)
	}
	for _, m := range reg.Mounts() {
		st := m.Engine.Dataset().Stats()
		log.Printf("dataset %q (%s) ready in %s: %d ratings, %d movies, %d reviewers, fingerprint %016x",
			m.Name, m.Info.Source, m.Info.OpenDuration.Round(time.Millisecond),
			st.Ratings, st.Items, st.Users, m.Engine.Fingerprint())
	}
	if *walPath != "" {
		// Live ingestion writes to one store; mounting several datasets
		// would leave "which one accepts writes" ambiguous.
		if reg.Len() != 1 {
			log.Fatalf("-wal requires exactly one mounted dataset (got %d)", reg.Len())
		}
		eng, ok := reg.Default().Engine.(*maprat.Engine)
		if !ok {
			log.Fatal("-wal requires a local engine mount")
		}
		epoch, err := eng.EnableIngest(*walPath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("live ingestion armed: wal %s, epoch %d", *walPath, epoch)
	}
	log.Printf("listening on %s", *addr)

	// SIGINT/SIGTERM drain in-flight requests before exiting; a second
	// signal kills the process the default way (AfterFunc restores the
	// default disposition as soon as the first signal lands).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	cfg := server.Config{
		RequestTimeout: *timeout,
		EnableGzip:     *gzipOn,
	}
	if *accessLog {
		cfg.Logger = log.Default()
	}
	srv := server.NewMulti(reg, cfg)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down cleanly")
}

// mountDatasets opens every requested dataset into reg: the text
// directory first (so -data keeps its place as the default), then each
// snapshot in flag order, falling back to synthetic data only when
// nothing else was asked for.
func mountDatasets(reg *maprat.Registry, dataDir string, snapshots []string, scale string, seed int64) error {
	if dataDir != "" {
		log.Printf("loading %s ...", dataDir)
		start := time.Now()
		ds, err := maprat.LoadDir(dataDir)
		if err != nil {
			return err
		}
		eng, err := maprat.Open(ds, nil)
		if err != nil {
			return err
		}
		info := maprat.DatasetInfo{Source: "text", Path: dataDir, OpenDuration: time.Since(start)}
		if err := reg.Add(mountName(reg, dataDir), eng, info); err != nil {
			return err
		}
	}
	for _, path := range snapshots {
		start := time.Now()
		eng, err := maprat.OpenSnapshot(path, nil)
		if err != nil {
			return fmt.Errorf("snapshot %s: %w", path, err)
		}
		info := maprat.DatasetInfo{Source: "snapshot", Path: path, OpenDuration: time.Since(start)}
		if fi, err := os.Stat(path); err == nil {
			info.FileSize = fi.Size()
		}
		if err := reg.Add(mountName(reg, path), eng, info); err != nil {
			eng.Close()
			return err
		}
	}
	if reg.Len() > 0 {
		return nil
	}
	start := time.Now()
	cfg := maprat.SmallGenConfig()
	if scale == "full" {
		log.Print("generating MovieLens-1M-scale synthetic data ...")
		cfg = maprat.DefaultGenConfig()
	}
	cfg.Seed = seed
	ds, err := maprat.Generate(cfg)
	if err != nil {
		return err
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		return err
	}
	info := maprat.DatasetInfo{Source: "generated", OpenDuration: time.Since(start)}
	return reg.Add("default", eng, info)
}

// mountName derives a mount name from a path: the file base without the
// .msnap extension, suffixed with -2, -3, ... on collision so mounting
// two same-named snapshots from different directories still works.
func mountName(reg *maprat.Registry, path string) string {
	base := strings.TrimSuffix(filepath.Base(filepath.Clean(path)), ".msnap")
	if base == "" || base == "." || base == string(filepath.Separator) {
		base = "dataset"
	}
	name := base
	for i := 2; ; i++ {
		if _, taken := reg.Lookup(name); !taken {
			return name
		}
		name = fmt.Sprintf("%s-%d", base, i)
	}
}
