// Command perfbench is the repository's benchmark. It runs one workload as
// a fixed, seeded sequence of operations against an in-process MapRat
// server on loopback, driven through pkg/client by one closed-loop client,
// checks every response against a reference engine, and prints its
// metrics; the last line of standard output is one JSON object. See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro"
)

func main() {
	ctx := context.Background()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// outDir holds the run's write-ahead log and the traced run's span dump,
// relative to the working directory (the repository root).
const outDir = ".bench_build"

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "explore-session, cold-mine or live-append")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: picks the catalog, the op order, mining seeds and append batches")
	fs.IntVar(&o.seconds, "seconds", 10, "run length: the op count is this times the workload's calibrated rate")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch {
	case o.workload == "":
		return o, fmt.Errorf("--workload is required")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object on the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced run sets the stack up; setup_s
// is the median.
const setupReps = 5

func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	ds, err := maprat.Generate(maprat.DefaultGenConfig())
	if err != nil {
		return err
	}
	w, err := buildWorkload(ctx, ds, o.workload, o.seed, o.seconds)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "wal"), 0o755); err != nil {
		return err
	}
	wal := filepath.Join(outDir, "wal", fmt.Sprintf("%s-%d.wal", o.workload, os.Getpid()))
	defer os.Remove(wal) // the run's own log; nothing reads it afterwards

	if !o.trace {
		ps, setups, err := measure(ctx, ds, w, wal, setupReps, nil)
		if err != nil {
			return err
		}
		rep := endToEnd(ps, setups, len(w.Ops))
		printInfo(stdout, w, ps, rep)
		return printReport(stdout, rep)
	}
	base, _, err := measure(ctx, ds, w, wal, 1, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, _, err := measure(ctx, ds, w, wal, 1, tr)
	if err != nil {
		return err
	}
	path, err := tr.dump(filepath.Join(outDir, "trace"), o.workload, o.seed)
	if err != nil {
		return err
	}
	rep := perLayer(base, traced, tr, len(w.Ops))
	for _, e := range tr.errs {
		fmt.Fprintln(stdout, "replay mismatch:", e)
	}
	if len(tr.errs) > 0 {
		rep.Correct = false
	}
	printInfo(stdout, w, traced, rep)
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	return printReport(stdout, rep)
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(ps *pass, setups []float64, ops int) report {
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {float64(ops) / ps.elapsed, "ops/s"},
		"heap_live_mb":     {ps.heapMB, "MB"},
	}
	for _, c := range []int{classExplain, classClick, classDrill} {
		m[classNames[c]+"_p50_ms"] = metric{quantile(ps.lat[c], 0.5), "ms"}
		m[classNames[c]+"_p90_ms"] = metric{quantile(ps.lat[c], 0.9), "ms"}
	}
	return report{Correct: ps.failed == 0, Attempted: ps.attempted, Failed: ps.failed, Metrics: m}
}

// perLayer assembles the traced run's metrics: the per-layer figures from
// the traced pass, the runtime and write-path figures from the untraced
// pass of the same sequence, and the throughput gap between the two. The
// gap leaves out the time the client spent replaying stages between
// operations, so it is what the wrapper and its counter reads add.
func perLayer(base, traced *pass, tr *tracer, ops int) report {
	t := &tr.tally
	c := t.c
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	self := tr.selfTimes()
	fops := float64(ops)
	m := map[string]metric{
		"api.overhead_ms":             {quantile(t.overhead, 0.5), "ms"},
		"api.resp_bytes":              {ratio(float64(t.bytes), float64(t.ops)), "bytes"},
		"api.append_overhead_ms":      {quantile(t.appendOverhead, 0.5), "ms"},
		"maprat.result_hit_ratio":     {ratio(float64(c.ResultHits), float64(c.ResultHits+c.ResultMisses)), "ratio"},
		"maprat.result_lookups":       {float64(c.ResultHits + c.ResultMisses), "count"},
		"maprat.mines_per_explain":    {ratio(float64(c.Mines), float64(t.explains)), "ratio"},
		"store.plan_hit_ratio":        {ratio(float64(c.PlanHits), float64(c.PlanHits+c.PlanMisses)), "ratio"},
		"store.plan_fetches":          {float64(c.PlanHits + c.PlanMisses), "count"},
		"store.plan_builds":           {float64(c.PlanBuilds), "count"},
		"store.plan_evictions":        {float64(c.PlanEvictions), "count"},
		"store.plans_invalidated":     {float64(c.PlansInvalidated), "count"},
		"store.plans_surviving":       {float64(c.PlansSurviving), "count"},
		"store.plan_mb":               {traced.planMB, "MB"},
		"core.evals_per_solve":        {ratio(float64(t.evals), float64(t.solves)), "count"},
		"core.feasible_ratio":         {ratio(float64(t.feasible), float64(t.attempts)), "ratio"},
		"core.solve_attempts":         {float64(t.attempts), "count"},
		"ingest.wal_bytes_per_rating": {ratio(float64(t.walBytes), float64(t.ratings)), "bytes"},
		"runtime.alloc_bytes_per_op":  {ratio(float64(base.allocs), fops), "bytes"},
		"runtime.gc_cycles":           {float64(base.gcCycles), "count"},
		"runtime.gc_pause_ms":         {float64(base.gcPauseNS) / 1e6, "ms"},
		"append_p50_ms":               {quantile(base.lat[classAppend], 0.5), "ms"},
		"append_p90_ms":               {quantile(base.lat[classAppend], 0.9), "ms"},
		"error_rate":                  {ratio(float64(base.failed), float64(base.attempted)), "ratio"},
		"trace.overhead_pct":          {100 * (1 - base.elapsed/(traced.elapsed-tr.replay.Seconds())), "%"},
		"trace.spans":                 {float64(len(tr.spans)), "count"},
	}
	for _, name := range []string{
		"store.gather_ms", "store.tuples_per_plan", "query.resolve_ms", "query.items_per_query",
		"cube.build_ms", "cube.bits_ms", "cube.groups_per_plan", "cube.drill_build_ms",
		"core.rhe_ms", "core.drill_rhe_ms", "explore.stats_ms", "explore.related_ms", "explore.refine_ms",
		"ingest.append_ms", "ingest.apply_ms",
	} {
		unit := "ms"
		if name == "store.tuples_per_plan" || name == "query.items_per_query" || name == "cube.groups_per_plan" {
			unit = "count"
		}
		m[name] = metric{t.mean(name), unit}
	}
	for _, layer := range []string{"api", "maprat", "query", "store", "cube", "core", "explore", "ingest"} {
		m["self."+layer+"_ms_per_op"] = metric{self[layer] / fops, "ms"}
	}
	return report{
		Correct:   base.failed == 0 && traced.failed == 0,
		Attempted: base.attempted + traced.attempted,
		Failed:    base.failed + traced.failed,
		Metrics:   m,
	}
}

// printInfo writes the human-readable lines: every metric with its unit,
// latency sample counts, the write path, failures and engine counters.
func printInfo(out io.Writer, w *workload, ps *pass, rep report) {
	fmt.Fprintf(out, "workload %s seed %d: %d ops (%d catalog entries, %d append batches)\n",
		w.Name, w.Seed, len(w.Ops), len(w.Entries), len(w.Batches))
	for c := 0; c < numClasses; c++ {
		if n := len(ps.lat[c]); n > 0 {
			fmt.Fprintf(out, "  %-7s n=%-6d p50=%.3f ms p90=%.3f ms\n", classNames[c], n,
				quantile(ps.lat[c], 0.5), quantile(ps.lat[c], 0.9))
		}
	}
	fmt.Fprintf(out, "  error_rate %d/%d\n", ps.failed, ps.attempted)
	for _, f := range ps.failures {
		fmt.Fprintln(out, "  failure:", f)
	}
	fmt.Fprintf(out, "  counters %+v\n", ps.counters)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

func printReport(out io.Writer, rep report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
