package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
	"repro/pkg/client"
)

// Latency classes of the end-to-end metrics.
const (
	classExplain = iota
	classClick   // group + refine: the plan-served follow-ups
	classDrill
	classAppend
	numClasses
)

var classNames = [numClasses]string{"explain", "click", "drill", "append"}

func classOf(k opKind) int {
	switch k {
	case opExplain:
		return classExplain
	case opGroup, opRefine:
		return classClick
	case opDrill:
		return classDrill
	}
	return classAppend
}

// counters are the engine's public monitoring counters; the benchmark
// reports their change over a pass.
type counters struct {
	Mines            uint64
	ResultHits       uint64
	ResultMisses     uint64
	PlanHits         uint64
	PlanMisses       uint64
	PlanBuilds       uint64
	PlanEvictions    uint64
	PlansInvalidated uint64
	PlansSurviving   uint64
	WALBytes         int64
	Epoch            uint64
}

// readCounters snapshots the counters. The ingest figures (WAL bytes, and
// the apply time it also returns) cost a second plan-tier scan, so they
// are read only when asked for.
func readCounters(eng *maprat.Engine, ingest bool) (counters, float64) {
	ps := eng.PlanStats()
	c := counters{
		Mines:            eng.MineCount(),
		PlanHits:         ps.Hits,
		PlanMisses:       ps.Misses,
		PlanBuilds:       ps.Builds,
		PlanEvictions:    ps.Evictions,
		PlansInvalidated: ps.Invalidated,
		PlansSurviving:   ps.Surviving,
		Epoch:            eng.CurrentEpoch(),
	}
	if lru := eng.Store().Cache(); lru != nil {
		c.ResultHits, c.ResultMisses = lru.Stats()
	}
	if !ingest {
		return c, 0
	}
	st, _ := eng.IngestStats() // zero-valued when the write path is off
	c.WALBytes = st.WALBytes
	return c, st.ApplyTotalMS
}

func (c counters) sub(o counters) counters {
	return counters{
		Mines:            c.Mines - o.Mines,
		ResultHits:       c.ResultHits - o.ResultHits,
		ResultMisses:     c.ResultMisses - o.ResultMisses,
		PlanHits:         c.PlanHits - o.PlanHits,
		PlanMisses:       c.PlanMisses - o.PlanMisses,
		PlanBuilds:       c.PlanBuilds - o.PlanBuilds,
		PlanEvictions:    c.PlanEvictions - o.PlanEvictions,
		PlansInvalidated: c.PlansInvalidated - o.PlansInvalidated,
		PlansSurviving:   c.PlansSurviving - o.PlansSurviving,
		WALBytes:         c.WALBytes - o.WALBytes,
		Epoch:            c.Epoch - o.Epoch,
	}
}

// byteMeter is the client's transport; it counts response body bytes.
type byteMeter struct {
	rt    http.RoundTripper
	bytes atomic.Int64
}

func (m *byteMeter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := m.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{rc: resp.Body, n: &m.bytes}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// instance is one serving stack: engine, server on a loopback port, and
// the single closed-loop client.
type instance struct {
	eng    *maprat.Engine
	cl     *client.Client
	hc     *http.Client
	meter  *byteMeter
	stop   context.CancelFunc
	served chan error
}

// start opens the engine (arming ingestion at wal when the workload
// appends), mounts it — through the tracing wrapper when tr is set — and
// serves it on a loopback port.
func start(ctx context.Context, ds *maprat.Dataset, w *workload, wal string, tr *tracer) (*instance, error) {
	eng, err := maprat.Open(ds, nil)
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	if w.appends() {
		if err := os.Remove(wal); err != nil && !errors.Is(err, fs.ErrNotExist) {
			_ = eng.Close()
			return nil, err
		}
		if _, err := eng.EnableIngest(wal); err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("enable ingest: %w", err)
		}
	}
	var m maprat.Miner = eng
	if tr != nil {
		tr.eng = eng
		m = &tracedMiner{Engine: eng, tr: tr}
	}
	srv := server.NewMulti(maprat.NewSingleRegistry("bench", m, maprat.DatasetInfo{Source: "generated"}), server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	sctx, stop := context.WithCancel(ctx)
	in := &instance{eng: eng, stop: stop, served: make(chan error, 1)}
	go func() { in.served <- srv.Serve(sctx, ln) }()
	in.meter = &byteMeter{rt: http.DefaultTransport.(*http.Transport).Clone()}
	in.hc = &http.Client{Transport: in.meter}
	// One attempt, no backoff: a retry would hide a failure and add its
	// backoff to the measured latency.
	in.cl, err = client.New("http://"+ln.Addr().String(), client.WithRetry(1, 0), client.WithHTTPClient(in.hc))
	if err != nil {
		_ = in.close()
		return nil, err
	}
	return in, nil
}

// close shuts the server down, waits for it, and closes the engine.
func (in *instance) close() error {
	in.stop()
	err := <-in.served
	in.hc.CloseIdleConnections()
	if cerr := in.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// setUp builds an instance and runs the workload's warm-up pass through
// the client. Its duration, timed after a forced GC, is one setup_s
// sample.
func setUp(ctx context.Context, ds *maprat.Dataset, w *workload, wal string, tr *tracer) (*instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := start(ctx, ds, w, wal, tr)
	if err != nil {
		return nil, 0, err
	}
	for _, o := range w.Warm {
		if _, _, err := in.do(ctx, w, o, 0); err != nil {
			_ = in.close()
			return nil, 0, fmt.Errorf("warm-up %s %s: %w", o.Kind, w.Entries[o.Entry].Q, err)
		}
	}
	return in, time.Since(t0).Seconds(), nil
}

// do sends one operation. It returns the round-trip time and either the
// digest of the decoded read response or the epoch an append was
// accepted at. epoch pins a read (0 = latest).
func (in *instance) do(ctx context.Context, w *workload, o op, epoch uint64) (time.Duration, uint64, error) {
	if o.Kind == opAppend {
		batch := w.Batches[o.Batch]
		t0 := time.Now()
		resp, err := in.cl.AppendRatings(ctx, "", batch)
		rtt := time.Since(t0)
		if err != nil {
			return rtt, 0, err
		}
		if resp.Accepted != len(batch) {
			return rtt, 0, fmt.Errorf("append accepted %d of %d ratings", resp.Accepted, len(batch))
		}
		return rtt, resp.Epoch, nil
	}
	p := w.Entries[o.Entry].params(o.Kind, epoch)
	var v any
	var err error
	t0 := time.Now()
	switch o.Kind {
	case opExplain:
		v, err = in.cl.Explain(ctx, p)
	case opGroup:
		v, err = in.cl.Group(ctx, p)
	case opRefine:
		v, err = in.cl.Refine(ctx, p)
	case opDrill:
		v, err = in.cl.Drill(ctx, p)
	}
	rtt := time.Since(t0)
	if err != nil {
		return rtt, 0, err
	}
	return rtt, digestWire(o.Kind, v), nil
}

// observation is a read response with no precomputed expectation (a
// live-append read past epoch 1): checked after the run.
type observation struct {
	digest uint64
	n      int
}

// pass is one measured execution of the op sequence.
type pass struct {
	lat       [numClasses][]float64 // round trips, ms
	attempted int
	failed    int
	failures  []string
	elapsed   float64 // seconds
	counters  counters
	allocs    uint64 // bytes allocated during the pass
	gcCycles  uint32
	gcPauseNS uint64
	heapMB    float64 // live heap after a forced GC at the end
	planMB    float64
	observed  map[readKey]*observation
}

func (ps *pass) fail(format string, args ...any) {
	ps.failed++
	if len(ps.failures) < 5 {
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
}

// check compares a read's digest with the reference's epoch-1 digest,
// or holds it for the post-run rebuild when the read saw a later epoch.
func (ps *pass) check(w *workload, k readKey, digest uint64) {
	if want, ok := w.expect[k]; ok {
		if digest != want {
			ps.fail("%s %q at epoch %d: response differs from the reference engine", k.Kind, w.Entries[k.Entry].Q, k.Epoch)
		}
		return
	}
	ob := ps.observed[k]
	if ob == nil {
		ps.observed[k] = &observation{digest: digest, n: 1}
		return
	}
	ob.n++
	if ob.digest != digest {
		ps.fail("%s %q at epoch %d: two reads disagree", k.Kind, w.Entries[k.Entry].Q, k.Epoch)
	}
}

// run executes the measured sequence with one closed-loop client: each
// operation is sent when the previous one has answered.
func (in *instance) run(ctx context.Context, w *workload, tr *tracer) *pass {
	ps := &pass{observed: map[readKey]*observation{}}
	for c := range ps.lat {
		ps.lat[c] = make([]float64, 0, len(w.Ops))
	}
	epoch := in.eng.CurrentEpoch()
	before, _ := readCounters(in.eng, true)
	// Every pass starts from a collected heap, so the first GC cycles fall
	// at the same points of the sequence on every run.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if tr != nil {
		tr.startPass()
	}
	t0 := time.Now()
	for i, o := range w.Ops {
		if tr != nil {
			tr.beginOp(int32(i))
		}
		b0 := in.meter.bytes.Load()
		start := time.Now()
		rtt, v, err := in.do(ctx, w, o, 0)
		if tr != nil {
			tr.endOp(ctx, o.Kind, start, rtt, in.meter.bytes.Load()-b0)
		}
		ps.attempted++
		ps.lat[classOf(o.Kind)] = append(ps.lat[classOf(o.Kind)], float64(rtt.Nanoseconds())/1e6)
		switch {
		case err != nil:
			ps.fail("op %d %s: %v", i, o.Kind, err)
		case o.Kind == opAppend:
			if v != epoch+1 {
				ps.fail("op %d append: accepted at epoch %d, want %d", i, v, epoch+1)
			}
			epoch = v
		default:
			ps.check(w, readKey{o.Kind, o.Entry, epoch}, v)
		}
	}
	ps.elapsed = time.Since(t0).Seconds()
	if tr != nil {
		tr.stopPass()
	}
	runtime.ReadMemStats(&ms1)
	after, _ := readCounters(in.eng, true)
	ps.counters = after.sub(before)
	ps.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	ps.gcCycles = ms1.NumGC - ms0.NumGC
	ps.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	ps.planMB = float64(in.eng.PlanStats().Bytes) / (1 << 20)
	return ps
}

// pinnedReads re-reads, after the run, the first read of every epoch
// with the epoch pinned: old versions must still answer exactly as they
// did when they were current.
func (in *instance) pinnedReads(ctx context.Context, w *workload, ps *pass) {
	epoch := uint64(1)
	seen := map[uint64]bool{}
	for _, o := range w.Ops {
		if o.Kind == opAppend {
			epoch++
			continue
		}
		if seen[epoch] {
			continue
		}
		seen[epoch] = true
		ps.attempted++
		_, v, err := in.do(ctx, w, o, epoch)
		if err != nil {
			ps.fail("pinned %s at epoch %d: %v", o.Kind, epoch, err)
			continue
		}
		ps.check(w, readKey{o.Kind, o.Entry, epoch}, v)
	}
}

// verifyObserved checks every held read against a reference engine
// rebuilt from the dataset plus the batches the run logged.
func verifyObserved(ctx context.Context, ds *maprat.Dataset, w *workload, ps *pass, wal string) error {
	if len(ps.observed) == 0 {
		return nil
	}
	replay := wal + ".replay"
	defer os.Remove(replay) // scratch copy; a leftover is overwritten next run
	ref, err := rebuildFromWAL(ds, wal, replay)
	if err != nil {
		return err
	}
	defer ref.close()
	keys := make([]readKey, 0, len(ps.observed))
	for k := range ps.observed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.Epoch != y.Epoch {
			return x.Epoch < y.Epoch
		}
		if x.Entry != y.Entry {
			return x.Entry < y.Entry
		}
		return x.Kind < y.Kind
	})
	for _, k := range keys {
		v, err := ref.read(ctx, &w.Entries[k.Entry], k.Kind, k.Epoch)
		if err != nil {
			return fmt.Errorf("reference %s at epoch %d: %w", k.Kind, k.Epoch, err)
		}
		if digestEngine(k.Kind, v) != ps.observed[k].digest {
			for i := 0; i < ps.observed[k].n; i++ {
				ps.fail("%s %q at epoch %d: response differs from the rebuilt engine", k.Kind, w.Entries[k.Entry].Q, k.Epoch)
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// measure sets the stack up reps times (setup_s samples, each torn down
// but the last), runs the sequence on the last one, and checks every
// response. tr, when set, traces the measured sequence.
func measure(ctx context.Context, ds *maprat.Dataset, w *workload, wal string, reps int, tr *tracer) (*pass, []float64, error) {
	var setups []float64
	var in *instance
	for r := 0; r < reps; r++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, fmt.Errorf("tear down: %w", err)
			}
		}
		var secs float64
		var err error
		if in, secs, err = setUp(ctx, ds, w, wal, tr); err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
	}
	ps := in.run(ctx, w, tr)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	if w.appends() {
		in.pinnedReads(ctx, w, ps)
	}
	if err := in.close(); err != nil {
		return nil, nil, fmt.Errorf("tear down: %w", err)
	}
	if err := verifyObserved(ctx, ds, w, ps, wal); err != nil {
		return nil, nil, err
	}
	return ps, setups, nil
}
