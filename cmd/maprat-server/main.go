// Command maprat-server runs the MapRat web demo (§3 of the paper): the
// Figure-1 search form, Figure-2 tabbed choropleth results, the Figure-3
// group exploration pages, a time-slider view and a JSON API.
//
//	maprat-server -addr :8080            # synthetic small dataset
//	maprat-server -scale full            # MovieLens-1M-scale synthetic data
//	maprat-server -data /path/to/ml-1m   # real MovieLens 1M files
//
// A server serves one dataset. -snapshot serves a .msnap columnar
// snapshot instead (memory-mapped, near-instant open); giving it with
// -data is an error:
//
//	maprat-server -snapshot a.msnap
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
		snapshot  = flag.String("snapshot", "", "serve a .msnap snapshot instead of -data or synthetic data")
		walPath   = flag.String("wal", "", "arm live ingestion with a write-ahead log at this path")
	)
	flag.Parse()

	if *dataDir != "" && *snapshot != "" {
		log.Fatal("-data and -snapshot both given: a server serves one dataset")
	}
	eng, info, err := openDataset(*dataDir, *snapshot, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	name := "default"
	if info.Path != "" {
		name = strings.TrimSuffix(filepath.Base(filepath.Clean(info.Path)), ".msnap")
	}
	st := eng.Dataset().Stats()
	log.Printf("dataset %q (%s) ready in %s: %d ratings, %d movies, %d reviewers, fingerprint %016x",
		name, info.Source, info.OpenDuration.Round(time.Millisecond),
		st.Ratings, st.Items, st.Users, eng.Fingerprint())
	if *walPath != "" {
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
	srv := server.NewMulti(maprat.NewSingleRegistry(name, eng, info), cfg)
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down cleanly")
}

// openDataset opens the one dataset the flags name: the text directory,
// the snapshot, or else synthetic data.
func openDataset(dataDir, snapshot, scale string, seed int64) (*maprat.Engine, maprat.DatasetInfo, error) {
	start := time.Now()
	if snapshot != "" {
		eng, err := maprat.OpenSnapshot(snapshot, nil)
		if err != nil {
			return nil, maprat.DatasetInfo{}, fmt.Errorf("snapshot %s: %w", snapshot, err)
		}
		info := maprat.DatasetInfo{Source: "snapshot", Path: snapshot, OpenDuration: time.Since(start)}
		if fi, err := os.Stat(snapshot); err == nil {
			info.FileSize = fi.Size()
		}
		return eng, info, nil
	}
	var ds *maprat.Dataset
	info := maprat.DatasetInfo{Source: "generated"}
	if dataDir != "" {
		log.Printf("loading %s ...", dataDir)
		loaded, err := maprat.LoadDir(dataDir)
		if err != nil {
			return nil, info, err
		}
		ds, info = loaded, maprat.DatasetInfo{Source: "text", Path: dataDir}
	} else {
		cfg := maprat.SmallGenConfig()
		if scale == "full" {
			log.Print("generating MovieLens-1M-scale synthetic data ...")
			cfg = maprat.DefaultGenConfig()
		}
		cfg.Seed = seed
		generated, err := maprat.Generate(cfg)
		if err != nil {
			return nil, info, err
		}
		ds = generated
	}
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		return nil, info, err
	}
	info.OpenDuration = time.Since(start)
	return eng, info, nil
}
