// Command maprat is the terminal front-end to the MapRat engine: it runs a
// query, mines the Similarity and Diversity interpretations, and renders
// the choropleth maps as text (optionally ANSI-colored).
//
// Examples:
//
//	maprat -q 'movie:"Toy Story"'
//	maprat -q 'actor:"Tom Hanks" AND genre:Thriller' -k 4 -coverage 0.25
//	maprat -q 'movie:"The Twilight Saga: Eclipse"' -framework -coverage 0.1 -k 2
//	maprat -q 'movie:"Toy Story"' -explore 'gender=male,state=CA'
//	maprat -q 'movie:"Toy Story"' -evolution
//
// With -server the same requests run against a live maprat-server
// through the pkg/client SDK instead of opening a local dataset, and
// print the same output:
//
//	maprat -server http://localhost:8080 -q 'movie:"Toy Story"'
//	maprat -server http://localhost:8080 -q 'genre:Drama' -drill state=CA
//
// The snap subcommand manages columnar dataset snapshots:
//
//	maprat snap pack ./ml-1m ./ml-1m.msnap   # pack a MovieLens directory
//	maprat snap info ./ml-1m.msnap           # print header and sections
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/internal/api"
	"repro/pkg/client"
)

// drillCoverage is the α -drill mines at: city sub-groups partition the
// parent, so a quarter of its ratings is a realistic coverage target.
const drillCoverage = 0.25

// exploreRefinements caps the refinement list -explore prints.
const exploreRefinements = 6

func main() {
	log.SetFlags(0)
	log.SetPrefix("maprat: ")

	// The snap subcommand family has positional arguments, so it is
	// dispatched before the main flag set parses.
	if len(os.Args) > 1 && os.Args[1] == "snap" {
		runSnap(os.Args[2:])
		return
	}
	cfg, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels the mine or the upload.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// `maprat -server URL append <file.json>` posts a batch of new
	// ratings; the file (or stdin via "-") holds a JSON array of
	// {"user_id","item_id","score","unix"} objects.
	if len(cfg.args) > 0 && cfg.args[0] == "append" {
		if cfg.serverURL == "" {
			log.Fatal("append requires -server")
		}
		if err := runRemoteAppend(ctx, cfg.serverURL, cfg.args[1:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if cfg.serverURL != "" {
		if err := runRemote(ctx, os.Stdout, cfg.serverURL, cfg.run); err != nil {
			log.Fatal(err)
		}
		return
	}
	eng, err := openEngine(cfg.dataDir, cfg.scale, cfg.seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := runLocal(ctx, os.Stdout, eng, cfg.run); err != nil {
		log.Fatal(err)
	}
}

// cliConfig is one parsed command line.
type cliConfig struct {
	dataDir, scale string
	seed           int64
	serverURL      string
	run            runOpts
	args           []string // positional arguments after the flags
}

// runOpts is one CLI request: the op to run, its knob set, and the
// output switches.
type runOpts struct {
	op     string
	params client.Params
	color  bool
}

// parseFlags turns the command line into one request. Both modes send
// the same request: local mode runs it through the v1 op table in
// process, -server mode over HTTP.
func parseFlags(args []string, onError flag.ErrorHandling) (cliConfig, error) {
	fs := flag.NewFlagSet("maprat", onError)
	var (
		cfg       cliConfig
		queryStr  = fs.String("q", `movie:"Toy Story"`, "item query, e.g. 'actor:\"Tom Hanks\" AND genre:Thriller'")
		k         = fs.Int("k", 3, "maximum number of groups per interpretation")
		coverage  = fs.Float64("coverage", 0.20, "minimum fraction of ratings the groups must cover")
		fromYear  = fs.Int("from", 0, "restrict ratings to years >= this")
		toYear    = fs.Int("to", 0, "restrict ratings to years <= this")
		profile   = fs.String("profile", "", "demographic profile, e.g. 'gender=female,age=under 18'")
		framework = fs.Bool("framework", false, "framework mode: groups need no geo-condition")
		exploreK  = fs.String("explore", "", "explore one group key, e.g. 'gender=male,state=CA'")
		drillK    = fs.String("drill", "", "drill-mine city sub-groups inside one group key, e.g. 'state=CA'")
		evolution = fs.Bool("evolution", false, "show the best SM groups per year (time slider)")
	)
	fs.StringVar(&cfg.dataDir, "data", "", "MovieLens-format data directory (default: generate synthetic data)")
	fs.StringVar(&cfg.scale, "scale", "small", "synthetic data scale when -data is unset: small|full")
	fs.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	fs.BoolVar(&cfg.run.color, "color", false, "ANSI-colored choropleth tiles")
	fs.StringVar(&cfg.serverURL, "server", "", "remote mode: run against a live maprat-server at this base URL")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.args = fs.Args()

	o := &cfg.run
	o.op = "explain"
	o.params = client.Params{Q: *queryStr, K: k, Coverage: coverage, Profile: *profile}
	if *fromYear != 0 {
		o.params.From = fromYear
	}
	if *toYear != 0 {
		o.params.To = toYear
	}
	if *framework {
		o.params.Geo = "off"
	}
	switch {
	case *exploreK != "":
		o.op = "group"
		o.params.Key = *exploreK
		limit := exploreRefinements
		o.params.Limit = &limit
	case *drillK != "":
		o.op = "drill"
		o.params.Key = *drillK
		alpha := drillCoverage
		o.params.Coverage = &alpha
	case *evolution:
		o.op = "evolution"
		o.params.Tasks = []string{"sm"}
	}
	return cfg, nil
}

// runLocal runs the request against an in-process engine through the
// same op table the server's endpoints use, and renders the response
// document exactly as -server mode renders the wire copy.
func runLocal(ctx context.Context, w io.Writer, eng maprat.Miner, o runOpts) error {
	call, err := api.Op(o.op, o.params)
	if err != nil {
		return err
	}
	v, err := call(ctx, eng)
	if err != nil {
		return err
	}
	render(w, v, o.color)
	return nil
}

func openEngine(dataDir, scale string, seed int64) (*maprat.Engine, error) {
	var (
		ds  *maprat.Dataset
		err error
	)
	switch {
	case dataDir != "":
		fmt.Fprintf(os.Stderr, "loading %s ...\n", dataDir)
		ds, err = maprat.LoadDir(dataDir)
	case scale == "full":
		fmt.Fprintln(os.Stderr, "generating MovieLens-1M-scale synthetic data ...")
		cfg := maprat.DefaultGenConfig()
		cfg.Seed = seed
		ds, err = maprat.Generate(cfg)
	default:
		cfg := maprat.SmallGenConfig()
		cfg.Seed = seed
		ds, err = maprat.Generate(cfg)
	}
	if err != nil {
		return nil, err
	}
	return maprat.Open(ds, nil)
}
