package main

import (
	"runtime"

	"minaret/internal/cache"
	"minaret/internal/core"
	"minaret/internal/fetch"
)

// The per-layer counters are cumulative in the program; the benchmark
// reads them before and after the timed window and reports the delta
// per op, or as a ratio whose base is named next to it.

// fetchDelta is after minus before, field by field.
func fetchDelta(before, after fetch.Stats) fetch.Stats {
	return fetch.Stats{
		Requests:     after.Requests - before.Requests,
		CacheHits:    after.CacheHits - before.CacheHits,
		HTTPCalls:    after.HTTPCalls - before.HTTPCalls,
		Retries:      after.Retries - before.Retries,
		Failures:     after.Failures - before.Failures,
		RateWaits:    after.RateWaits - before.RateWaits,
		FlightShares: after.FlightShares - before.FlightShares,
		BytesFetched: after.BytesFetched - before.BytesFetched,
	}
}

// fetchMetrics turns a window's fetch.Client delta into per-op figures.
func fetchMetrics(d fetch.Stats, ops int) map[string]float64 {
	return map[string]float64{
		"fetch.http_calls_per_op": perOp(float64(d.HTTPCalls), ops),
		// Base: logical Gets (fetch.Stats.Requests), hits and misses alike.
		"fetch.cache_hit_ratio":    ratio(float64(d.CacheHits), float64(d.Requests)),
		"fetch.flight_share_ratio": ratio(float64(d.FlightShares), float64(d.Requests)),
		"fetch.bytes_per_op":       perOp(float64(d.BytesFetched), ops),
		"fetch.retries_per_op":     perOp(float64(d.Retries), ops),
	}
}

// hitRatio is the share of lookups answered without computing: hits
// plus shares (piggybacked on an in-flight computation) over every
// lookup (hits + shares + misses).
func hitRatio(s cache.Stats) float64 {
	return ratio(float64(s.Hits+s.Shares), float64(s.Hits+s.Shares+s.Misses))
}

// sharedMetrics reports the core.Shared memo hit ratios of a window.
func sharedMetrics(d core.SharedStats) map[string]float64 {
	return map[string]float64{
		"core.profiles.hit_ratio":   hitRatio(d.Profiles),
		"core.verifies.hit_ratio":   hitRatio(d.Verifies),
		"core.retrievals.hit_ratio": hitRatio(d.Retrievals),
		"core.expansions.hit_ratio": hitRatio(d.Expansions),
	}
}

// memCounters are the Go runtime's cumulative allocation counters.
type memCounters struct {
	Mallocs    uint64
	TotalAlloc uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc}
}

// memMetrics reports allocations per op of the benchmark process.
func memMetrics(before, after memCounters, ops int) map[string]float64 {
	return map[string]float64{
		"runtime.allocs_per_op":   perOp(float64(after.Mallocs-before.Mallocs), ops),
		"runtime.alloc_mb_per_op": perOp(float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), ops),
	}
}

// phaseTotals accumulates core.Result.Stats over the ops of a window.
type phaseTotals struct {
	extract, filter, rank float64 // ms
	excluded, retrieved   int
	assembled             int
	coiExclusions         int
}

func (p *phaseTotals) add(r *core.Result) {
	p.extract += ms(r.Stats.ExtractionTime)
	p.filter += ms(r.Stats.FilterTime)
	p.rank += ms(r.Stats.RankTime)
	p.excluded += r.Stats.CandidatesFiltered
	p.retrieved += r.Stats.CandidatesRetrieved
	p.assembled += r.Stats.ProfilesAssembled
	for _, ex := range r.ExcludedCandidates {
		for _, reason := range ex.Reasons {
			if reason.Kind == "coi" {
				p.coiExclusions++
				break
			}
		}
	}
}

func (p *phaseTotals) metrics(ops int) map[string]float64 {
	return map[string]float64{
		"core.extract_ms_per_op":           perOp(p.extract, ops),
		"filter.ms_per_op":                 perOp(p.filter, ops),
		"filter.excluded_per_op":           perOp(float64(p.excluded), ops),
		"ranking.ms_per_op":                perOp(p.rank, ops),
		"core.candidates_retrieved_per_op": perOp(float64(p.retrieved), ops),
		"core.profiles_assembled_per_op":   perOp(float64(p.assembled), ops),
	}
}
