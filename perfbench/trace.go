package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"time"

	"minaret/internal/sources"
)

// span is one traced interval. Times are offsets from the tracer's
// start; Parent 0 marks an op's root span.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span of a run in memory; write dumps them once
// the run is over.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, for spans whose interval is known only later.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant into a tracer offset.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.t0) }

// record adds a span with a fresh ID and returns that ID.
func (t *tracer) record(op, parent int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scope is what a traced call finds in its context: the tracer, the op
// and the span new spans hang under.
type scope struct {
	t      *tracer
	op     int64
	parent int64
}

type scopeKey struct{}

func withScope(ctx context.Context, sc scope) context.Context {
	return context.WithValue(ctx, scopeKey{}, sc)
}

func scopeFrom(ctx context.Context) (scope, bool) {
	sc, ok := ctx.Value(scopeKey{}).(scope)
	return sc, ok
}

// httpCounts are the per-op transport figures the httptrace hooks
// gather.
type httpCounts struct {
	mu       sync.Mutex
	connNew  int
	connWait time.Duration
	ttfb     time.Duration
}

type countsKey struct{}

// roundTrips attaches httptrace hooks that record one "fetch.http" span
// per round trip ([GetConn, first response byte]) under sc.parent and
// add connection and first-byte figures to counts.
func roundTrips(ctx context.Context, sc scope, counts *httpCounts) context.Context {
	var mu sync.Mutex
	var getConn, gotConn time.Time
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GetConn: func(string) {
			mu.Lock()
			getConn = time.Now()
			mu.Unlock()
		},
		GotConn: func(info httptrace.GotConnInfo) {
			now := time.Now()
			mu.Lock()
			gotConn = now
			wait := now.Sub(getConn)
			mu.Unlock()
			counts.mu.Lock()
			if !info.Reused {
				counts.connNew++
			}
			counts.connWait += wait
			counts.mu.Unlock()
		},
		GotFirstResponseByte: func() {
			now := time.Now()
			mu.Lock()
			start, conn := getConn, gotConn
			mu.Unlock()
			counts.mu.Lock()
			counts.ttfb += now.Sub(conn)
			counts.mu.Unlock()
			sc.t.record(sc.op, sc.parent, "fetch.http", start, now)
		},
	})
}

// tracedClient wraps a source client: in a traced context each call
// becomes a "sources.<site>.<method>" span whose HTTP round trips are
// its children.
type tracedClient struct {
	inner sources.Client
}

type tracedSearcher struct {
	tracedClient
	is sources.InterestSearcher
}

// tracedRegistry builds a registry over the same clients as reg, each
// wrapped for tracing, keeping interest-search capability.
func tracedRegistry(reg *sources.Registry) *sources.Registry {
	var out []sources.Client
	for _, c := range reg.All() {
		if is, ok := c.(sources.InterestSearcher); ok {
			out = append(out, &tracedSearcher{tracedClient{c}, is})
		} else {
			out = append(out, &tracedClient{c})
		}
	}
	return sources.NewRegistry(out...)
}

func (c *tracedClient) Source() string { return c.inner.Source() }

// call runs fn inside a span named after the site and method.
func (c *tracedClient) call(ctx context.Context, method string, fn func(context.Context) error) {
	sc, ok := scopeFrom(ctx)
	counts, _ := ctx.Value(countsKey{}).(*httpCounts)
	if !ok || counts == nil {
		_ = fn(ctx)
		return
	}
	id := sc.t.id()
	child := scope{t: sc.t, op: sc.op, parent: id}
	start := time.Now()
	_ = fn(roundTrips(withScope(ctx, child), child, counts))
	end := time.Now()
	sc.t.add(span{ID: id, Parent: sc.parent, Op: sc.op, Name: "sources." + c.inner.Source() + "." + method,
		Start: sc.t.at(start), End: sc.t.at(end)})
}

func (c *tracedClient) SearchAuthor(ctx context.Context, name string) (hits []sources.Hit, err error) {
	c.call(ctx, "search_author", func(ctx context.Context) error {
		hits, err = c.inner.SearchAuthor(ctx, name)
		return err
	})
	return hits, err
}

func (c *tracedClient) Profile(ctx context.Context, siteID string) (rec *sources.Record, err error) {
	c.call(ctx, "profile", func(ctx context.Context) error {
		rec, err = c.inner.Profile(ctx, siteID)
		return err
	})
	return rec, err
}

func (c *tracedSearcher) SearchInterest(ctx context.Context, topic string) (hits []sources.Hit, err error) {
	c.call(ctx, "search_interest", func(ctx context.Context) error {
		hits, err = c.is.SearchInterest(ctx, topic)
		return err
	})
	return hits, err
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// coverage is the length of the union of ivs clipped to within.
func coverage(within interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < within.lo {
			iv.lo = within.lo
		}
		if iv.hi > within.hi {
			iv.hi = within.hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns each span's duration minus the part of it its
// children cover, keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		own := interval{s.Start, s.End}
		out[s.ID] = (s.End - s.Start) - coverage(own, children[s.ID])
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
