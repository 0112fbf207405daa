package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"minaret/internal/core"
	"minaret/internal/fetch"
	"minaret/internal/httpapi"
	"minaret/internal/index"
	"minaret/internal/jobs"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/sources"
)

// durable-jobs-drift drives the real minaret-server binary: durable
// job store, retrieval index and change feed on, against simweb in
// mutation mode. The offered load is fixed: jobCount jobs spread evenly
// over the window less drainTail, one manuscript each (durableCase),
// with a corpus mutation before every mutateEvery-th job.
const (
	jobCount    = 100
	drainTail   = 3 * time.Second
	mutateEvery = 4
	jobWait     = "1s" // long-poll per follower request
	drainLimit  = 60 * time.Second
)

// durableCase is the case every job carries: the planted co-author
// ring and institution cluster, so the drift keeps meeting the COI
// gate. One case keeps the latency distribution narrow enough for a
// steady p50 from the hundred-odd jobs the store's growth allows in a
// run.
const durableCase = "coi-web/0"

// serverHandle is one minaret-server process and its client.
type serverHandle struct {
	p     *proc
	base  string
	store string
}

// bootServer builds the retrieval index for the simweb at webBase (the
// crawl -index-build would do, at full speed instead of the server's
// 50 requests/s politeness) and starts minaret-server on it.
func bootServer(rc runConfig, w *world, webBase string, probe *http.Client) (*serverHandle, error) {
	scope := "sources=" + webBase // the scope minaret-server derives from -sources-url
	f := fetch.New(serverFetchOptions())
	ix, _, err := index.Build(context.Background(), sources.DefaultRegistry(f, sources.SingleHost(webBase)),
		w.ont.Labels(), index.BuildOptions{Scope: scope, Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("index build: %w", err)
	}
	ixPath := filepath.Join(rc.workDir, "retrieval.index")
	if err := ix.Save(ixPath); err != nil {
		return nil, err
	}
	store := filepath.Join(rc.workDir, "jobs.store")
	if err := os.Remove(store); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	p, err := start(rc.workDir, "minaret-server", filepath.Join(rc.binDir, "minaret-server"),
		"-addr", addr, "-sources-url", webBase,
		"-jobs-store", store, "-retrieval-index", ixPath, "-feed")
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	if err := waitHTTP(probe, p, base+"/api/health", 60*time.Second); err != nil {
		p.stop(5 * time.Second)
		return nil, fmt.Errorf("minaret-server: %w", err)
	}
	return &serverHandle{p: p, base: base, store: store}, nil
}

// oneConn is an HTTP client that holds at most one connection per host.
func oneConn() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON posts v and returns the status and body.
func postJSON(c *http.Client, url string, v any) (int, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// submission is one scheduled job of the open loop.
type submission struct {
	i    int
	due  time.Time
	sent time.Time
	ack  time.Duration
	id   string
}

// snapshot is what is read from the server and the processes at one
// instant.
type snapshot struct {
	at     time.Time
	stats  httpapi.StatsResponse
	cpu    time.Duration
	webCPU time.Duration
}

func takeSnapshot(c *http.Client, srv *serverHandle, web *proc) (snapshot, error) {
	s := snapshot{at: time.Now()}
	var err error
	if s.cpu, err = procCPU(srv.p.pid()); err != nil {
		return s, err
	}
	if s.webCPU, err = procCPU(web.pid()); err != nil {
		return s, err
	}
	return s, getJSON(c, srv.base+"/api/stats", &s.stats)
}

// mutations yields the seeded corpus writes. Each names a scholar the
// priming job recommended, so it evicts a profile the server holds and
// the next jobs assemble again, and takes a keyword of the case:
// alternately a new interest and a new single-author paper. Scholars
// and keywords are cycled in an order the seed draws, so every run
// mutates each of them about equally often. Neither
// changes a case's conflicted or forbidden set, which follow
// co-authorship and institution history, nor its relevant set, which
// follows the scholars' true topics.
type mutations struct {
	w        *world
	keywords []string
	targets  []*scholarly.Scholar
	n        int
}

// newMutations picks the targets among the scholars res recommends:
// uniquely named (mutations address scholars by name) and no case's
// author.
func newMutations(w *world, cs *gtCase, res *core.Result) (*mutations, error) {
	authors := map[scholarly.ScholarID]bool{}
	for _, c := range w.cases {
		for id := range c.Authors {
			authors[id] = true
		}
	}
	m := &mutations{w: w, keywords: cs.Manuscript.Keywords}
	for _, rec := range res.Recommendations {
		ids := simweb.ScholarIDsOf(rec.Reviewer.SiteIDs)
		if len(ids) != 1 || authors[ids[0]] {
			continue
		}
		if s := w.corpus.Scholar(ids[0]); len(w.corpus.ScholarsByName(s.Name.Full())) == 1 {
			m.targets = append(m.targets, s)
		}
	}
	if len(m.targets) == 0 {
		return nil, fmt.Errorf("case %s: no uniquely named recommended scholar to mutate", cs.Name)
	}
	m.w.rng.Shuffle(len(m.targets), func(i, j int) { m.targets[i], m.targets[j] = m.targets[j], m.targets[i] })
	m.keywords = append([]string(nil), m.keywords...)
	m.w.rng.Shuffle(len(m.keywords), func(i, j int) { m.keywords[i], m.keywords[j] = m.keywords[j], m.keywords[i] })
	return m, nil
}

func (m *mutations) next() simweb.Mutation {
	kw := m.keywords[m.n%len(m.keywords)]
	s := m.targets[m.n%len(m.targets)]
	m.n++
	if m.n%2 == 1 {
		return simweb.Mutation{Op: "add_interests", Name: s.Name.Full(), Interests: []string{kw}}
	}
	return simweb.Mutation{Op: "add_publication", Name: s.Name.Full(),
		Title: fmt.Sprintf("Drift study %d on %s", m.n, kw), Keywords: []string{kw}}
}

// followed is a terminal job the follower read back.
type followed struct {
	sub *submission
	job jobs.Job
}

func runDurableJobsDrift(rc runConfig, w *world) (*result, error) {
	probe := &http.Client{Timeout: 10 * time.Second}
	var cs *gtCase
	for _, c := range w.cases {
		if c.Name == durableCase {
			cs = c
		}
	}
	if cs == nil {
		return nil, fmt.Errorf("the world lacks the case %s", durableCase)
	}

	web, webBase, err := startSimweb(rc.workDir, filepath.Join(rc.binDir, "simweb"), w.corpusPath, true, probe)
	if err != nil {
		return nil, err
	}
	defer web.stop(5 * time.Second)

	var srv *serverHandle
	var boots []float64
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.p.stop(10 * time.Second)
		}
		t0 := time.Now()
		if srv, err = bootServer(rc, w, webBase, probe); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	defer srv.p.stop(10 * time.Second)

	var v verdict
	var phases phaseTotals
	submitC, followC := oneConn(), oneConn()
	defer submitC.CloseIdleConnections()
	defer followC.CloseIdleConnections()

	// Priming: the case once, so the window starts from the warm state a
	// running server is in. Rate-limited by the server's politeness
	// toward the single simweb host.
	var primeV verdict
	var primePhases phaseTotals
	primeStart := time.Now()
	primed, err := submitAndWait(submitC, srv.base, cs)
	if err != nil {
		return nil, fmt.Errorf("priming: %w", err)
	}
	if !checkJob(w, &primeV, &primePhases, cs, primed) {
		return nil, fmt.Errorf("priming: job %s has failed items", primed.ID)
	}
	priming := time.Since(primeStart).Seconds()

	// The schedule: n jobs due at even intervals over the arrival
	// phase; the seed draws the mutations.
	arrival := rc.window - drainTail
	if arrival < 10*time.Second {
		return nil, fmt.Errorf("window %v leaves less than 10s for arrivals", rc.window)
	}
	n := jobCount
	offeredRate := float64(n) / arrival.Seconds()
	slot := arrival / time.Duration(n)
	subs := make([]*submission, n)
	for i := range subs {
		subs[i] = &submission{i: i}
	}
	muts, err := newMutations(w, cs, primed.Result.Items[0].Result)
	if err != nil {
		return nil, err
	}
	var t *tracer
	if rc.trace {
		t = newTracer()
	}

	begin, err := takeSnapshot(submitC, srv, web)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	windowEnd := start.Add(rc.window)
	for _, s := range subs {
		s.due = start.Add(time.Duration(s.i) * slot)
	}

	accepted := make(chan *submission, n) // one slot per possible send
	var end snapshot
	var endErr error
	var shed, sendErrs, mutErrs, mutationsSent int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the submitting connection
		defer wg.Done()
		defer close(accepted)
		for _, s := range subs {
			time.Sleep(time.Until(s.due))
			if s.i%mutateEvery == mutateEvery-1 {
				t0 := time.Now()
				status, _, err := postJSON(submitC, webBase+"/_feed/mutate", muts.next())
				if err != nil || status != http.StatusOK {
					mutErrs++
				}
				mutationsSent++
				if t != nil {
					t.record(int64(s.i+1), 0, "harness.mutate", t0, time.Now())
				}
			}
			s.sent = time.Now()
			req := httpapi.JobRequest{Manuscripts: []core.Manuscript{cs.Manuscript}}
			req.TopK = topK
			status, body, err := postJSON(submitC, srv.base+"/v1/jobs", req)
			s.ack = time.Since(s.sent)
			switch {
			case err != nil:
				sendErrs++
			case status == http.StatusTooManyRequests:
				shed++
			case status == http.StatusAccepted:
				var j jobs.Job
				if json.Unmarshal(body, &j) == nil && j.ID != "" {
					s.id = j.ID
					accepted <- s
				} else {
					sendErrs++
				}
			default:
				sendErrs++
			}
		}
		time.Sleep(time.Until(windowEnd))
		end, endErr = takeSnapshot(submitC, srv, web)
	}()

	var done []followed
	var followErrs int
	wg.Add(1)
	go func() { // the following connection
		defer wg.Done()
		deadline := windowEnd.Add(drainLimit)
		for s := range accepted {
			for {
				var j jobs.Job
				err := getJSON(followC, srv.base+"/v1/jobs/"+s.id+"?wait="+jobWait, &j)
				if err == nil && (j.State == jobs.StateDone || j.State == jobs.StateFailed || j.State == jobs.StateCanceled) {
					done = append(done, followed{s, j})
					break
				}
				if time.Now().After(deadline) {
					followErrs++
					break
				}
			}
		}
	}()
	wg.Wait()
	if endErr != nil {
		return nil, endErr
	}
	elapsed := end.at.Sub(start)

	res := &result{attempted: n, metrics: map[string]float64{}, tracer: t}
	var lat, latTraced, queueWait, runTime, acks, lags []float64
	completedInWindow, failedJobs := 0, 0
	for _, f := range done {
		s, j := f.sub, f.job
		if j.State != jobs.StateDone || j.FinishedAt == nil || j.StartedAt == nil {
			failedJobs++
			continue
		}
		if !checkJob(w, &v, &phases, cs, j) {
			failedJobs++
			continue
		}
		doneAt := *j.FinishedAt
		d := ms(doneAt.Sub(s.due))
		// Blocks of mutateEvery jobs alternate, so traced and untraced
		// jobs meet the same share of fresh mutations.
		traced := t != nil && (s.i/mutateEvery)%2 == 0
		if traced {
			latTraced = append(latTraced, d)
			op := int64(s.i + 1)
			root := t.record(op, 0, "op", s.due, doneAt)
			t.record(op, root, "harness.submit", s.sent, s.sent.Add(s.ack))
			t.record(op, root, "jobs.queue_wait", j.SubmittedAt, *j.StartedAt)
			t.record(op, root, "jobs.run", *j.StartedAt, *j.FinishedAt)
		} else {
			lat = append(lat, d)
		}
		if !doneAt.After(windowEnd) {
			completedInWindow++
		}
		queueWait = append(queueWait, ms(j.StartedAt.Sub(j.SubmittedAt)))
		runTime = append(runTime, ms(j.FinishedAt.Sub(*j.StartedAt)))
	}
	for _, s := range subs {
		if !s.sent.IsZero() {
			acks = append(acks, ms(s.ack))
			lags = append(lags, ms(s.sent.Sub(s.due)))
		}
	}
	res.failed = shed + sendErrs + followErrs + failedJobs
	res.gates = append(primeV.gateErrors(), v.gateErrors()...)
	if phases.coiExclusions == 0 {
		res.gates = append(res.gates, "COI filtering excluded no candidate in the whole run")
	}
	if mutErrs > 0 {
		res.gates = append(res.gates, fmt.Sprintf("%d of %d corpus mutations failed", mutErrs, mutationsSent))
	}
	all := append(append([]float64(nil), lat...), latTraced...)
	if !rc.trace {
		all = lat
	}
	sum, err := summarize(all)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	if completedInWindow == 0 {
		return nil, fmt.Errorf("no job finished inside the window")
	}
	rss, err := peakRSSMB(srv.p.pid())
	if err != nil {
		return nil, err
	}
	storeInfo, err := os.Stat(srv.store)
	if err != nil {
		return nil, err
	}

	m := res.metrics
	m["setup_s"] = median(boots) + priming
	m["latency_p50_ms"] = sum.P50
	m["latency_p90_ms"] = sum.P90
	m["throughput_per_s"] = float64(completedInWindow) / elapsed.Seconds()
	m["cpu_ms_per_op"] = perOp(ms(end.cpu-begin.cpu), completedInWindow)
	m["rss_peak_mb"] = rss
	m["recall_at_k"] = v.recall()

	ops := len(done)
	st0, st1 := begin.stats, end.stats
	fetchD := fetchDelta(*st0.Fetch, *st1.Fetch)
	for k, val := range fetchMetrics(fetchD, ops) {
		m[k] = val
	}
	for k, val := range sharedMetrics(st1.Shared.SharedStats.Sub(st0.Shared.SharedStats)) {
		m[k] = val
	}
	for k, val := range v.countMetrics(ops) {
		m[k] = val
	}
	for k, val := range phases.metrics(ops) {
		m[k] = val
	}
	if inv0, inv1 := st0.Shared.Invalidation, st1.Shared.Invalidation; inv0 != nil && inv1 != nil {
		dropped := (inv1.Profiles + inv1.Verifies + inv1.Retrievals) - (inv0.Profiles + inv0.Verifies + inv0.Retrievals)
		m["core.invalidated_per_delta"] = ratio(float64(dropped), float64(inv1.Deltas-inv0.Deltas)) // base: deltas applied
	}
	if ix0, ix1 := st0.Shared.RetrievalIndex, st1.Shared.RetrievalIndex; ix0 != nil && ix1 != nil {
		served, missed := ix1.Served-ix0.Served, ix1.Missed-ix0.Missed
		m["index.served_ratio"] = ratio(float64(served), float64(served+missed)) // base: index lookups
	}
	if st0.Feed != nil && st1.Feed != nil {
		m["feed.deltas_per_op"] = perOp(float64(st1.Feed.Applied-st0.Feed.Applied), ops)
	}
	m["jobs.backlog_at_end"] = float64(st1.Jobs.Queued + st1.Jobs.Running)
	m["jobs.submit_ack_p50_ms"] = percentile(acks, 50)
	m["jobs.submit_ack_p90_ms"] = percentile(acks, 90)
	if len(acks) >= 20 {
		m["jobs.ack_growth_ratio"] = ratio(median(acks[len(acks)-10:]), median(acks[:10])) // last ten over first ten
	}
	m["jobs.queue_wait_p50_ms"] = percentile(queueWait, 50)
	m["jobs.run_p50_ms"] = percentile(runTime, 50)
	m["jobs.shed_ratio"] = ratio(float64(shed), float64(n)) // base: submissions attempted
	m["jobs.store_mb"] = float64(storeInfo.Size()) / (1 << 20)
	m["simweb.cpu_ms_per_op"] = perOp(ms(end.webCPU-begin.webCPU), ops)
	m["simweb.requests_per_op"] = perOp(float64(fetchD.HTTPCalls)+float64(mutationsSent), ops)
	m["harness.generator_lag_p90_ms"] = percentile(lags, 90)
	m["harness.latency_samples"] = float64(sum.N)
	m["harness.error_rate"] = ratio(float64(res.failed), float64(n))
	if t != nil {
		m["harness.trace_overhead_ratio"] = ratio(median(latTraced), median(lat)) - 1
	}
	fmt.Printf("# offered %.1f jobs/s: %d jobs, %d mutations, %d shed; server boots %v s, priming %.2f s; ack first/last ten p50 %.1f/%.1f ms; store %.1f MiB\n",
		offeredRate, n, mutationsSent, shed, boots, priming, median(acks[:min(10, len(acks))]),
		median(acks[max(0, len(acks)-10):]), m["jobs.store_mb"])
	return res, nil
}

// submitAndWait submits one manuscript as a job and waits for it.
func submitAndWait(c *http.Client, base string, cs *gtCase) (jobs.Job, error) {
	req := httpapi.JobRequest{Manuscripts: []core.Manuscript{cs.Manuscript}}
	req.TopK = topK
	status, body, err := postJSON(c, base+"/v1/jobs", req)
	if err != nil {
		return jobs.Job{}, err
	}
	var j jobs.Job
	if status != http.StatusAccepted || json.Unmarshal(body, &j) != nil {
		return j, fmt.Errorf("submit: %d %s", status, body)
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if err := getJSON(c, base+"/v1/jobs/"+j.ID+"?wait=10s", &j); err != nil {
			return j, err
		}
		switch j.State {
		case jobs.StateDone:
			return j, nil
		case jobs.StateFailed, jobs.StateCanceled:
			return j, fmt.Errorf("job %s %s: %s", j.ID, j.State, j.Error)
		}
	}
	return j, fmt.Errorf("job %s did not finish in time", j.ID)
}

// checkJob scores a finished job's result against its case; false
// means the job has no result or a failed item.
func checkJob(w *world, v *verdict, phases *phaseTotals, cs *gtCase, j jobs.Job) bool {
	if j.Result == nil || j.Result.Succeeded != len(j.Result.Items) {
		return false
	}
	for _, it := range j.Result.Items {
		v.check(w, cs, it.Result)
		phases.add(it.Result)
	}
	return true
}
