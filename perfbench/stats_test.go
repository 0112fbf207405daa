package main

import (
	"math"
	"testing"
	"time"

	"minaret/internal/cache"
	"minaret/internal/fetch"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if vals[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7, 1, 4}, 50); got != 4 {
		t.Errorf("median of three = %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestSummarizeNeedsTenBeyondP90(t *testing.T) {
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, err := summarize(mk(99)); err == nil {
		t.Error("99 samples leave 9 beyond p90; summarize must refuse")
	}
	s, err := summarize(mk(100))
	if err != nil {
		t.Fatalf("100 samples: %v", err)
	}
	if s.N != 100 || s.P50 != 50 || s.P90 != 90 {
		t.Errorf("summary = %+v", s)
	}
	if b := beyond(100, 90); b != 10 {
		t.Errorf("beyond(100, p90) = %d, want 10", b)
	}
	if b := beyond(109, 90); b != 10 {
		t.Errorf("beyond(109, p90) = %d, want 10", b)
	}
}

func TestPerOpAndRatioBases(t *testing.T) {
	if perOp(10, 0) != 0 || ratio(3, 0) != 0 {
		t.Error("empty bases must give 0, not NaN or Inf")
	}
	before := fetch.Stats{Requests: 100, CacheHits: 40, HTTPCalls: 60, Retries: 1, FlightShares: 5, BytesFetched: 1000}
	after := fetch.Stats{Requests: 300, CacheHits: 90, HTTPCalls: 210, Retries: 3, FlightShares: 25, BytesFetched: 5000}
	d := fetchDelta(before, after)
	if d.Requests != 200 || d.HTTPCalls != 150 || d.CacheHits != 50 {
		t.Fatalf("delta = %+v", d)
	}
	m := fetchMetrics(d, 10)
	want := map[string]float64{
		"fetch.http_calls_per_op":  15,
		"fetch.cache_hit_ratio":    0.25, // 50 hits over 200 logical Gets
		"fetch.flight_share_ratio": 0.1,  // 20 shares over 200 Gets
		"fetch.bytes_per_op":       400,
		"fetch.retries_per_op":     0.2,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	// Memo hit ratio: hits and shares over every lookup.
	if got := hitRatio(cache.Stats{Hits: 6, Shares: 2, Misses: 2}); got != 0.8 {
		t.Errorf("hit ratio = %v, want 0.8", got)
	}
	if got := hitRatio(cache.Stats{}); got != 0 {
		t.Errorf("hit ratio of no lookups = %v", got)
	}
	mem := memMetrics(memCounters{Mallocs: 10, TotalAlloc: 1 << 20}, memCounters{Mallocs: 110, TotalAlloc: 5 << 20}, 4)
	if mem["runtime.allocs_per_op"] != 25 || mem["runtime.alloc_mb_per_op"] != 1 {
		t.Errorf("mem metrics = %v", mem)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50]; a third covers [60,70].
		{ID: 2, Parent: 1, Name: "sources.dblp.profile", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "sources.acm.profile", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "sources.acm.profile", Start: 60 * ms, End: 70 * ms},
		// A grandchild is charged to its parent only; one sticking out
		// of its parent counts only inside it.
		{ID: 5, Parent: 2, Name: "fetch.http", Start: 15 * ms, End: 25 * ms},
		{ID: 6, Parent: 4, Name: "fetch.http", Start: 65 * ms, End: 80 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 5 * ms, 5: 10 * ms, 6: 15 * ms}
	for id, d := range want {
		if self[id] != d {
			t.Errorf("self(%d) = %v, want %v", id, self[id], d)
		}
	}
	byName := selfByName(spans)
	if byName["sources.acm.profile"] != 25*ms || byName["fetch.http"] != 25*ms {
		t.Errorf("self by name = %v", byName)
	}
}

func TestCoverageMergesAndClips(t *testing.T) {
	within := interval{10, 100}
	ivs := []interval{{0, 20}, {15, 30}, {50, 60}, {55, 58}, {90, 200}, {300, 400}}
	// [10,30] + [50,60] + [90,100] = 20 + 10 + 10.
	if got := coverage(within, ivs); got != 40 {
		t.Errorf("coverage = %v, want 40", got)
	}
	if got := coverage(within, nil); got != 0 {
		t.Errorf("coverage of nothing = %v", got)
	}
}

func TestSpanMetricsPerTracedOp(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "core.extract", Start: 0, End: 80 * ms},
		{ID: 3, Parent: 2, Name: "sources.dblp.search_author", Start: 0, End: 20 * ms},
		{ID: 4, Parent: 3, Name: "fetch.http", Start: 5 * ms, End: 15 * ms},
		{ID: 5, Parent: 2, Name: "sources.scholar.search_interest", Start: 20 * ms, End: 60 * ms},
	}
	m := spanMetrics(spans, 2)
	want := map[string]float64{
		"sources.search_author.calls_per_op": 0.5,
		"sources.search_author.ms_per_op":    10,
		"sources.search_interest.ms_per_op":  20,
		"sources.profile.calls_per_op":       0,
		"sources.parse_self_ms_per_op":       25, // (10 + 40) / 2
		"sources.dblp.parse_self_ms_per_op":  5,
		"core.extract_self_ms_per_op":        10, // (80 - 60) / 2
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}
