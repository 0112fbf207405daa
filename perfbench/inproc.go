package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"minaret/internal/batch"
	"minaret/internal/cache"
	"minaret/internal/core"
	"minaret/internal/fetch"
	"minaret/internal/ontology"
	"minaret/internal/sources"
)

// The two in-process workloads run the system under test inside this
// process, against simweb in its own process.

// serverFetchOptions are the fetch options minaret-server uses with its
// in-process web: all six sites share one listener, so per-host
// politeness is off.
func serverFetchOptions() fetch.Options {
	return fetch.Options{Timeout: 20 * time.Second, BaseBackoff: 10 * time.Millisecond, PerHostRate: -1}
}

// system is the in-process system under test: the ontology, fetch
// client and source registries minaret-server wires at boot.
type system struct {
	ont     *ontology.Ontology
	fetcher *fetch.Client
	plain   *sources.Registry
	traced  *sources.Registry
}

// wireSystem builds the system as minaret-server does at boot, reading
// the simweb at base.
func wireSystem(base string) *system {
	f := fetch.New(serverFetchOptions())
	reg := sources.DefaultRegistry(f, sources.SingleHost(base))
	return &system{ont: ontology.Default(), fetcher: f, plain: reg, traced: tracedRegistry(reg)}
}

// window is the bookkeeping shared by the closed-loop workloads.
type window struct {
	rc       runConfig
	sys      *system
	web      *proc
	t        *tracer
	verdict  verdict
	phases   phaseTotals
	shared   core.SharedStats
	counts   httpCounts
	plainLat []float64 // ms, untraced ops
	traceLat []float64 // ms, traced ops
	traced   int
	ops      int
	items    int // manuscripts recommended
	failed   int

	start      time.Time
	cpu0, web0 time.Duration
	fetch0     fetch.Stats
	mem0       memCounters
}

func newWindow(rc runConfig, sys *system, web *proc) *window {
	win := &window{rc: rc, sys: sys, web: web}
	if rc.trace {
		win.t = newTracer()
	}
	return win
}

// begin snapshots the counters the window reports deltas of, and
// restarts this process's peak-RSS count so that rss_peak_mb covers the
// window only, not the generation of the inputs before it.
func (win *window) begin() error {
	var err error
	win.web0, err = procCPU(win.web.pid())
	if err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	win.fetch0 = win.sys.fetcher.Stats()
	win.mem0 = readMem()
	win.cpu0 = selfCPU()
	win.start = time.Now()
	return nil
}

// more reports whether the closed loop should issue another op: the
// window is not over, or too few ops ran to report a p90.
func (win *window) more() bool {
	return time.Since(win.start) < win.rc.window || win.ops < minOps
}

// tracedOp reports whether op i is traced: in a traced run ops
// alternate between traced and untraced in runs of period (the length
// of the workload's input rotation, so both halves see every input),
// and the untraced ones measure the tracing overhead.
func (win *window) tracedOp(i, period int) bool { return win.t != nil && (i/period)%2 == 0 }

func (win *window) observe(d time.Duration, traced bool) {
	win.ops++
	if traced {
		win.traced++
		win.traceLat = append(win.traceLat, ms(d))
	} else {
		win.plainLat = append(win.plainLat, ms(d))
	}
}

// finish turns the window into a result.
func (win *window) finish(setups []float64) (*result, error) {
	elapsed := time.Since(win.start)
	cpu := selfCPU() - win.cpu0
	mem := readMem()
	fetchD := fetchDelta(win.fetch0, win.sys.fetcher.Stats())
	webCPU, err := procCPU(win.web.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res := &result{attempted: win.ops, failed: win.failed, tracer: win.t, metrics: map[string]float64{}}
	res.gates = win.verdict.gateErrors()
	if win.phases.coiExclusions == 0 {
		res.gates = append(res.gates, "COI filtering excluded no candidate in the whole run: the engine is not configured like minaret-server")
	}
	m := res.metrics
	lat := append(append([]float64(nil), win.plainLat...), win.traceLat...)
	if !win.rc.trace {
		lat = win.plainLat
	}
	sum, err := summarize(lat)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	m["setup_s"] = median(setups)
	m["latency_p50_ms"] = sum.P50
	m["latency_p90_ms"] = sum.P90
	m["throughput_per_s"] = float64(win.items) / elapsed.Seconds()
	m["cpu_ms_per_op"] = perOp(ms(cpu), win.ops)
	m["rss_peak_mb"] = rss
	m["recall_at_k"] = win.verdict.recall()

	m["harness.latency_samples"] = float64(sum.N)
	m["harness.error_rate"] = ratio(float64(win.failed), float64(win.ops))
	m["simweb.cpu_ms_per_op"] = perOp(ms(webCPU-win.web0), win.ops)
	// simweb serves exactly the HTTP calls the fetch client makes.
	m["simweb.requests_per_op"] = perOp(float64(fetchD.HTTPCalls), win.ops)
	for k, v := range fetchMetrics(fetchD, win.ops) {
		m[k] = v
	}
	for k, v := range memMetrics(win.mem0, mem, win.ops) {
		m[k] = v
	}
	for k, v := range win.phases.metrics(win.ops) {
		m[k] = v
	}
	for k, v := range win.verdict.countMetrics(win.ops) {
		m[k] = v
	}
	for k, v := range sharedMetrics(win.shared) {
		m[k] = v
	}
	if win.t != nil {
		m["harness.trace_overhead_ratio"] = ratio(median(win.traceLat), median(win.plainLat)) - 1
		m["fetch.conn_new_per_op"] = perOp(float64(win.counts.connNew), win.traced)
		m["fetch.conn_wait_ms_per_op"] = perOp(ms(win.counts.connWait), win.traced)
		m["fetch.ttfb_ms_per_op"] = perOp(ms(win.counts.ttfb), win.traced)
		for k, v := range spanMetrics(win.t.spans, win.traced) {
			m[k] = v
		}
	}
	return res, nil
}

// spanMetrics reports the source-client spans per traced op: wall time
// and calls per method, and self time (the call minus its HTTP round
// trips: body read, parsing and fetch bookkeeping).
func spanMetrics(spans []span, traced int) map[string]float64 {
	calls := map[string]int{}
	wall := map[string]time.Duration{}
	for _, s := range spans {
		if rest, ok := strings.CutPrefix(s.Name, "sources."); ok {
			method := rest[strings.IndexByte(rest, '.')+1:]
			calls[method]++
			wall[method] += s.End - s.Start
		}
	}
	self := selfByName(spans)
	var parse, dblp, extract time.Duration
	for name, d := range self {
		switch {
		case strings.HasPrefix(name, "sources.dblp."):
			dblp += d
			parse += d
		case strings.HasPrefix(name, "sources."):
			parse += d
		case name == "core.extract":
			extract += d
		}
	}
	m := map[string]float64{
		"sources.parse_self_ms_per_op":      perOp(ms(parse), traced),
		"sources.dblp.parse_self_ms_per_op": perOp(ms(dblp), traced),
		"core.extract_self_ms_per_op":       perOp(ms(extract), traced),
	}
	for _, method := range []string{"search_author", "search_interest", "profile"} {
		m["sources."+method+".ms_per_op"] = perOp(ms(wall[method]), traced)
		m["sources."+method+".calls_per_op"] = perOp(float64(calls[method]), traced)
	}
	return m
}

// phaseSpans attaches a Result's phase times as spans under parent:
// extraction from start (under the reserved extractID), then filtering
// and ranking back to back.
func phaseSpans(t *tracer, op, parent, extractID int64, start time.Time, st core.PhaseStats) {
	at := t.at(start)
	t.add(span{ID: extractID, Parent: parent, Op: op, Name: "core.extract", Start: at, End: at + st.ExtractionTime})
	at += st.ExtractionTime
	t.add(span{ID: t.id(), Parent: parent, Op: op, Name: "filter", Start: at, End: at + st.FilterTime})
	at += st.FilterTime
	t.add(span{ID: t.id(), Parent: parent, Op: op, Name: "ranking", Start: at, End: at + st.RankTime})
}

func addShared(a, b core.SharedStats) core.SharedStats {
	add := func(x, y cache.Stats) cache.Stats {
		return cache.Stats{Hits: x.Hits + y.Hits, Misses: x.Misses + y.Misses, Shares: x.Shares + y.Shares,
			Evictions: x.Evictions + y.Evictions, Expired: x.Expired + y.Expired}
	}
	return core.SharedStats{
		Profiles: add(a.Profiles, b.Profiles), Verifies: add(a.Verifies, b.Verifies),
		Expansions: add(a.Expansions, b.Expansions), Retrievals: add(a.Retrievals, b.Retrievals),
	}
}

// editorSetupReps is how many times editor-cold wires the system; its
// set-up is short, so the median needs more samples than the others'.
const editorSetupReps = 101

// startWeb runs simweb on the run's corpus, outside any timed set-up:
// it is the harness, not the system.
func startWeb(rc runConfig, w *world) (*proc, string, error) {
	probe := &http.Client{Timeout: 10 * time.Second}
	return startSimweb(rc.workDir, filepath.Join(rc.binDir, "simweb"), w.corpusPath, false, probe)
}

// editorGenerated is how many generated cases editor-cold cycles
// through: fewer than a run's ops on the reference host.
const editorGenerated = 100

// runEditorCold: closed loop, one client; each op is one Recommend for
// a distinct manuscript from a fresh core.Shared and an emptied fetch
// cache, with live retrieval and no index.
func runEditorCold(rc runConfig, w *world) (*result, error) {
	web, base, err := startWeb(rc, w)
	if err != nil {
		return nil, err
	}
	defer web.stop(5 * time.Second)
	var sys *system
	var setups []float64
	for rep := 0; rep < editorSetupReps; rep++ {
		t0 := time.Now()
		sys = wireSystem(base)
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Scenario cases first, so every run meets the planted conflicts;
	// then the first editorGenerated generated cases in seeded order. A
	// run covers them all (and repeats some), so its figures do not
	// hinge on which cases it happened to reach.
	order := make([]*gtCase, 0, len(w.cases))
	var generated []*gtCase
	for _, cs := range w.cases {
		if !strings.HasPrefix(cs.Name, "generated/") {
			order = append(order, cs)
		} else if len(generated) < editorGenerated {
			generated = append(generated, cs)
		}
	}
	for _, i := range w.rng.Perm(len(generated)) {
		order = append(order, generated[i])
	}

	cfg := w.engineConfig()
	win := newWindow(rc, sys, web)
	if err := win.begin(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; win.more(); i++ {
		cs := order[i%len(order)]
		traced := win.tracedOp(i, 1)
		reg, opCtx := sys.plain, ctx
		var op, root, extract int64
		if traced {
			reg = sys.traced
			op, root, extract = int64(i+1), win.t.id(), win.t.id()
			opCtx = context.WithValue(withScope(ctx, scope{t: win.t, op: op, parent: extract}), countsKey{}, &win.counts)
		}
		sys.fetcher.InvalidateCache()
		eng := core.NewWithShared(reg, sys.ont, cfg, core.NewShared(core.SharedOptions{}))
		t0 := time.Now()
		res, err := eng.Recommend(opCtx, cs.Manuscript)
		d := time.Since(t0)
		win.observe(d, traced)
		if err != nil {
			win.failed++
			continue
		}
		win.items++
		if traced {
			win.t.add(span{ID: root, Op: op, Name: "op", Start: win.t.at(t0), End: win.t.at(t0) + d})
			phaseSpans(win.t, op, root, extract, t0, res.Stats)
		}
		win.verdict.check(w, cs, res)
		win.phases.add(res)
		win.shared = addShared(win.shared, eng.Shared().Stats())
	}
	return win.finish(setups)
}

// rankedIDs is a result's recommendation list as site-ID maps, the
// identity the warm/cold comparison is made on.
func rankedIDs(res *core.Result) []map[string]string {
	out := make([]map[string]string, len(res.Recommendations))
	for i, rec := range res.Recommendations {
		out[i] = rec.Reviewer.SiteIDs
	}
	return out
}

// venue-batch-warm processes up to venueQueues queues of venueQueue
// manuscripts each, in rotation.
const (
	venueQueue  = 6
	venueQueues = 24
)

// runVenueBatchWarm: closed loop, one client; each op is one
// batch.Processor.Process of a venue's submission queue over a
// core.Shared the set-up warmed with a cold pass over every queue.
func runVenueBatchWarm(rc runConfig, w *world) (*result, error) {
	all := w.venueQueues(venueQueue)
	if len(all) < 2 {
		return nil, fmt.Errorf("the world yields %d venue queues of %d manuscripts (need 2)", len(all), venueQueue)
	}
	var batches [][]*gtCase
	for _, i := range w.rng.Perm(len(all)) {
		batches = append(batches, all[i])
	}
	if len(batches) > venueQueues {
		batches = batches[:venueQueues]
	}
	fmt.Printf("# %d venue queues of %d manuscripts\n", len(batches), venueQueue)
	manuscripts := make([][]core.Manuscript, len(batches))
	for b, cases := range batches {
		for _, cs := range cases {
			manuscripts[b] = append(manuscripts[b], cs.Manuscript)
		}
	}
	cfg := w.engineConfig()
	ctx := context.Background()
	web, base, err := startWeb(rc, w)
	if err != nil {
		return nil, err
	}
	defer web.stop(5 * time.Second)

	// Set-up wires the system and warms its shared memos with a cold
	// pass over every queue, from an empty fetch cache each time.
	var sys *system
	var shared *core.Shared
	var setups []float64
	var cold [][][]map[string]string // [batch][item] ranked site IDs of the cold pass
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		sys = wireSystem(base)
		shared = core.NewShared(core.SharedOptions{})
		proc := batch.New(core.NewWithShared(sys.plain, sys.ont, cfg, shared), batch.Options{Workers: 2})
		cold = make([][][]map[string]string, len(batches))
		for b, ms := range manuscripts {
			sum := proc.Process(ctx, ms)
			if sum.Succeeded != len(ms) {
				return nil, fmt.Errorf("cold pass: venue queue %d: %d of %d manuscripts failed", b, len(ms)-sum.Succeeded, len(ms))
			}
			for _, it := range sum.Items {
				cold[b] = append(cold[b], rankedIDs(it.Result))
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	plainProc := batch.New(core.NewWithShared(sys.plain, sys.ont, cfg, shared), batch.Options{Workers: 2})
	win := newWindow(rc, sys, web)
	if err := win.begin(); err != nil {
		return nil, err
	}
	shared0 := shared.Stats()
	var mismatches []string
	for i := 0; win.more(); i++ {
		b := i % len(batches)
		traced := win.tracedOp(i, len(batches))
		proc, opCtx := plainProc, ctx
		var op, root int64
		if traced {
			op, root = int64(i+1), win.t.id()
			opCtx = context.WithValue(withScope(ctx, scope{t: win.t, op: op, parent: root}), countsKey{}, &win.counts)
			proc = batch.New(core.NewWithShared(sys.traced, sys.ont, cfg, shared), batch.Options{Workers: 2,
				OnItem: func(it batch.Item) {
					if it.Result == nil {
						return
					}
					end := time.Now()
					start := end.Add(-it.Elapsed)
					item := win.t.record(op, root, "batch.item", start, end)
					phaseSpans(win.t, op, item, win.t.id(), start, it.Result.Stats)
				}})
		}
		t0 := time.Now()
		sum := proc.Process(opCtx, manuscripts[b])
		d := time.Since(t0)
		win.observe(d, traced)
		if traced {
			win.t.add(span{ID: root, Op: op, Name: "op", Start: win.t.at(t0), End: win.t.at(t0) + d})
		}
		if sum.Succeeded != len(manuscripts[b]) {
			win.failed++
			continue
		}
		win.items += len(manuscripts[b])
		for j, it := range sum.Items {
			win.verdict.check(w, batches[b][j], it.Result)
			win.phases.add(it.Result)
			if got := rankedIDs(it.Result); !reflect.DeepEqual(got, cold[b][j]) && len(mismatches) < 10 {
				mismatches = append(mismatches, fmt.Sprintf("venue queue %d item %d: warm ranking differs from the cold set-up pass", b, j))
			}
		}
	}
	win.shared = shared.Stats().Sub(shared0)
	res, err := win.finish(setups)
	if err != nil {
		return nil, err
	}
	res.gates = append(res.gates, mismatches...)
	return res, nil
}
