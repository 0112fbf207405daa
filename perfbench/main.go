// Command perfbench is MINARET's benchmark: it generates a scholarly
// world from a seed, drives one named workload against the code in
// this checkout for a fixed time, checks every output against the
// ground truth and prints its metrics, one per line, then as one JSON
// object on the last line.
//
//	bash perfbench/run.sh --workload editor-cold --seed 1 --seconds 32 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (see README.md). A run that breaks a correctness gate exits 1
// and prints no result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// metric is one reported figure and its unit.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the system sees, per workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
	{"recall_at_k", "ratio"},
}

// perLayer are the traced run's figures. A layer that is not on a
// workload's path reports 0.
var perLayer = []metric{
	{"filter.ms_per_op", "ms"},
	{"filter.excluded_per_op", "count"},
	{"ranking.ms_per_op", "ms"},
	{"core.extract_ms_per_op", "ms"},
	{"core.extract_self_ms_per_op", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"fetch.http_calls_per_op", "count"},
	{"fetch.cache_hit_ratio", "ratio"},
	{"fetch.flight_share_ratio", "ratio"},
	{"fetch.bytes_per_op", "B"},
	{"fetch.retries_per_op", "count"},
	{"fetch.conn_new_per_op", "count"},
	{"fetch.conn_wait_ms_per_op", "ms"},
	{"fetch.ttfb_ms_per_op", "ms"},
	{"sources.search_author.ms_per_op", "ms"},
	{"sources.search_author.calls_per_op", "count"},
	{"sources.search_interest.ms_per_op", "ms"},
	{"sources.search_interest.calls_per_op", "count"},
	{"sources.profile.ms_per_op", "ms"},
	{"sources.profile.calls_per_op", "count"},
	{"sources.parse_self_ms_per_op", "ms"},
	{"sources.dblp.parse_self_ms_per_op", "ms"},
	{"core.profiles.hit_ratio", "ratio"},
	{"core.verifies.hit_ratio", "ratio"},
	{"core.retrievals.hit_ratio", "ratio"},
	{"core.expansions.hit_ratio", "ratio"},
	{"core.candidates_retrieved_per_op", "count"},
	{"core.profiles_assembled_per_op", "count"},
	{"core.invalidated_per_delta", "count"},
	{"index.served_ratio", "ratio"},
	{"jobs.submit_ack_p50_ms", "ms"},
	{"jobs.submit_ack_p90_ms", "ms"},
	{"jobs.ack_growth_ratio", "ratio"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.run_p50_ms", "ms"},
	{"jobs.shed_ratio", "ratio"},
	{"jobs.store_mb", "MiB"},
	{"jobs.backlog_at_end", "count"},
	{"feed.deltas_per_op", "count"},
	{"simweb.cpu_ms_per_op", "ms"},
	{"simweb.requests_per_op", "count"},
	{"harness.generator_lag_p90_ms", "ms"},
	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.latency_samples", "count"},
	{"harness.error_rate", "ratio"},
	{"nameres.twin_merges_per_op", "count"},
	{"coi.unseen_conflicts_per_op", "count"},
}

// setupReps is how many times a run sets the system up; setup_s is the
// median.
const setupReps = 3

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration
	trace   bool
	binDir  string
	workDir string
}

// result is a workload's outcome. Metrics holds both kinds; the printer
// picks the kind the run was asked for.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// gates lists violated correctness gates; any entry fails the run.
	gates []string
	// spans, when tracing, are written out at the end of the run.
	tracer *tracer
}

type workloadFunc func(rc runConfig, w *world) (*result, error)

var workloads = map[string]workloadFunc{
	"editor-cold":        runEditorCold,
	"venue-batch-warm":   runVenueBatchWarm,
	"durable-jobs-drift": runDurableJobsDrift,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: editor-cold, venue-batch-warm or durable-jobs-drift")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 32, "length of the timed window")
		traceOn = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
		binDir  = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the simweb and minaret-server binaries")
		runDir  = flag.String("work", filepath.Join(".bench_build", "run"), "directory for per-run files")
		poll    = flag.Bool("idle-poll", false, "run as the benchmark's idle poller (internal)")
	)
	flag.Parse()
	if *poll {
		idlePoll()
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceOn)
		os.Exit(2)
	}
	if err := run(*name, fn, runConfig{
		seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceOn == 1,
		binDir: *binDir,
	}, *runDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, fn workloadFunc, rc runConfig, runRoot string) error {
	dir := filepath.Join(runRoot, fmt.Sprintf("%s-seed%d-pid%d", name, rc.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc.workDir = dir

	poller, err := startIdlePoll(dir)
	if err != nil {
		return err
	}
	defer poller.stop(5 * time.Second)

	started := time.Now()
	w, err := makeWorld(rc.seed, dir)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	fmt.Printf("# %s seed %d: %d cases, corpus of %d scholars, inputs in %.2fs\n",
		name, rc.seed, len(w.cases), len(w.corpus.Scholars), time.Since(started).Seconds())

	res, err := fn(rc, w)
	if err != nil {
		return err
	}
	if len(res.gates) > 0 {
		for _, g := range res.gates {
			fmt.Fprintln(os.Stderr, "gate:", g)
		}
		return fmt.Errorf("%d correctness gate(s) failed; no result reported", len(res.gates))
	}
	if res.tracer != nil {
		traceDir := filepath.Join(filepath.Dir(runRoot), "traces")
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, rc.seed))
		if err := res.tracer.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans: %s (%d)\n", path, len(res.tracer.spans))
	}
	return report(res, rc.trace)
}

// report prints every metric of the requested kind as "name value unit"
// lines, then the JSON result as the last line.
func report(res *result, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := map[string]map[string]any{}
	for _, m := range want {
		v, ok := res.metrics[m.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		fmt.Printf("%-40s %14s %s\n", m.name, strconv.FormatFloat(v, 'g', 8, 64), m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	// error_rate is carried by attempted/failed; print it for readers.
	fmt.Printf("%-40s %14s %s\n", "error_rate", strconv.FormatFloat(ratio(float64(res.failed), float64(res.attempted)), 'g', 8, 64), "ratio")
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{true, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
