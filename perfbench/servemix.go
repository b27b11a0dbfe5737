package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"crncompose/internal/benchcrn"
	"crncompose/internal/httpx"
	"crncompose/internal/metrics"
	"crncompose/internal/trace"
)

// runServeMix replays a seeded open-loop schedule of /v1/check and
// /v1/jobs requests against a freshly started crnserve, so its cache
// starts cold every run.
func runServeMix(b *bench) error {
	pop, job := population(), jobGrid()
	d := b.seconds
	if b.traced {
		d /= 2 // an untraced and a traced pass
	}
	n := max(serveJobEvery, int(serveRate*d.Seconds()))
	sched := makeSchedule(b.seed, n, serveRate, len(pop), serveJobEvery, serveZipfS)
	var refs mixRefs
	var srv *server
	// The last setup's server serves the untraced pass, which stops it.
	_, err := b.repeatSetup(setupReps["serve_mix"], func() (func(), error) {
		var err error
		if refs, err = mixReferences(pop, job); err != nil {
			return nil, err
		}
		s, err := b.startMixServer(false)
		if err != nil {
			return nil, err
		}
		srv = s
		return func() { s.stop() }, nil
	})
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	cl := newClient(reg)
	plain, err := b.pass(cl, srv, sched, pop, job, refs, false)
	if err != nil {
		return err
	}
	lagP99, err := checkLag(plain.lag)
	if err != nil {
		return err
	}
	if !b.traced {
		// verdict_s is the sync p50. The job latency is not used: a job runs
		// 16 rectangles back to back on one core, so it follows the VM's
		// speed swings more closely than the cache-hit path.
		b.record("verdict_s", "s", scale(plain.sync, 1e-3))
		b.record("req_p50_ms", "ms", plain.sync)
		b.note("req_p99_ms", "ms", "%.6g (nearest-rank p99 of n=%d)", percentile(plain.sync, 99), len(plain.sync))
		b.record("job_p50_ms", "ms", plain.jobs)
		b.record("cpu_s", "s", []float64{plain.cpuS})
		b.record("peak_rss_mb", "MB", plain.peaks)
		b.note("run_peak_mb", "MB", "%.6g (peak RSS over the whole run)", slices.Max(plain.peaks))
		b.note("lag_p99_ms", "ms", "%.6g (generator lateness, bound %v)", lagP99, serveLagBound)
		return nil
	}

	tsrv, err := b.startMixServer(true)
	if err != nil {
		return err
	}
	traced, err := b.pass(cl, tsrv, sched, pop, job, refs, true)
	if err != nil {
		return err
	}
	tracedLag, err := checkLag(traced.lag)
	if err != nil {
		return err
	}
	delta := traced.counters
	hits, misses, dedups := delta["crn_cache_hits_total"], delta["crn_cache_misses_total"], delta["crn_cache_dedups_total"]
	b.layers["serve.hit_p50_ms"] = median(traced.hit)
	b.layers["serve.miss_p50_ms"] = median(traced.miss)
	b.layers["serve.cache_hit_ratio"] = hits / max(1, hits+misses+dedups)
	b.layers["serve.cache_evictions"] = delta["crn_cache_evictions_total"]
	b.layers["serve.cache_dedups"] = dedups
	b.serveSpanLayers(traced.spans)
	b.layers["loadgen.lag_p99_ms"] = max(lagP99, tracedLag)
	b.layers["trace.overhead"] = median(traced.sync)/median(plain.sync) - 1
	b.layers["trace.spans_dropped"] = 0 // fetchSpans refuses otherwise
	if err := b.clientLayers(reg); err != nil {
		return err
	}
	// Entries differing only in budget explore the same graphs.
	grids, bodies := []grid{job.grid}, [][]byte{refs.job}
	for i, e := range pop {
		if e.MaxConfigs == defaultMaxConfigs {
			grids = append(grids, e.grid)
			bodies = append(bodies, refs.sync[i])
		}
	}
	if err := b.measureEngine(grids, 1, bodies); err != nil {
		return err
	}
	b.notCrossed("dist.", "reach.rect_loop_s", "reach.unmarshal_us")
	return nil
}

// checkLag returns the p99 of how late the generator handed requests off,
// in milliseconds, or an error declaring the pass invalid when it is
// beyond serveLagBound: latencies are timed from due times, so a late
// generator would be charged to the server.
func checkLag(lag []float64) (float64, error) {
	p99 := percentile(lag, 99)
	if p99 > float64(serveLagBound.Milliseconds()) {
		return p99, fmt.Errorf("run invalid: the load generator's p99 lateness was %.3g ms, above the %v bound", p99, serveLagBound)
	}
	return p99, nil
}

// pass drives the schedule against srv and stops it; when traced it also
// reads srv's counter deltas and spans.
func (b *bench) pass(cl *httpx.Client, srv *server, sched []op, pop []entry, job entry, refs mixRefs, traced bool) (mixResult, error) {
	defer srv.stop()
	if !traced {
		return b.drive(cl, srv, sched, pop, job, refs)
	}
	before, err := scrapeMetrics(cl, srv.base)
	if err != nil {
		return mixResult{}, err
	}
	r, err := b.drive(cl, srv, sched, pop, job, refs)
	if err != nil {
		return r, err
	}
	after, err := scrapeMetrics(cl, srv.base)
	if err != nil {
		return r, err
	}
	r.counters = after.sub(before)
	r.spans, err = fetchSpans(cl, srv.debugBase)
	return r, err
}

// mixRefs are serve_mix's reference bodies: one per population entry and
// the one every job must return.
type mixRefs struct {
	sync [][]byte
	job  []byte
}

func mixReferences(pop []entry, job entry) (mixRefs, error) {
	refs := mixRefs{sync: make([][]byte, len(pop))}
	var err error
	for i, e := range pop {
		if refs.sync[i], err = allVerified(e); err != nil {
			return refs, err
		}
	}
	refs.job, err = allVerified(job)
	return refs, err
}

// allVerified is e's reference body, after checking the known answer for
// every branchy and max grid: every input verified, none inconclusive.
func allVerified(e entry) ([]byte, error) {
	body, res, err := reference(e.grid)
	if err == nil {
		points := int(e.Hi - e.Lo + 1)
		err = answer{Checked: points * points}.check(res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	return body, nil
}

// startMixServer starts serve_mix's crnserve and warms it with one check
// outside the population.
func (b *bench) startMixServer(traced bool) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0",
		"-cache-max", strconv.Itoa(serveCacheMax),
		"-sync-grid", strconv.Itoa(serveSyncGrid),
		"-max-jobs", strconv.Itoa(serveMaxJobs), "-workers", "1"}
	if traced {
		args = append(args, traceServerArgs...)
	}
	s, err := startServer(b.bin, traced, args...)
	if err != nil {
		return nil, err
	}
	warm := grid{CRN: benchcrn.Max(), Func: "max", Lo: 0, Hi: 2}.request(4096)
	ctx, cancel := opCtx()
	defer cancel()
	if _, err := (&httpx.Client{}).PostRaw(ctx, s.base+"/v1/check", warm); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return s, nil
}

// mixResult is what a pass over the schedule measured. Latencies are
// milliseconds from each request's due time until its verdict body was in
// hand.
type mixResult struct {
	sync, hit, miss, jobs []float64
	lag                   []float64 // how late the generator handed each request off
	cpuS                  float64   // crnserve's CPU over the pass
	peaks                 []float64 // crnserve's peak RSS in each rssWindow, MB
	counters              counters  // traced: crnserve's counter deltas
	spans                 []trace.SpanData
}

// drive sends sched open-loop: a dispatcher hands each request to the
// senders at its due time whether or not earlier ones have finished, over
// at most nproc connections. Accepted jobs are polled to completion by
// one poller over the same connections.
func (b *bench) drive(cl *httpx.Client, srv *server, sched []op, pop []entry, job entry, refs mixRefs) (mixResult, error) {
	type outcome struct {
		ms    float64
		cache string // X-Cache of a sync request
		ok    bool
	}
	outs := make([]outcome, len(sched))
	lags := make([]float64, len(sched))
	jobIDs := make([]string, len(sched))
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return mixResult{}, err
	}
	stopPeaks := make(chan struct{})
	var peaks []float64
	var peakErr error
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		peaks, peakErr = peakWindows(srv.pid(), rssWindow, stopPeaks)
	}()
	start := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(sched[i].Due) }
	fail := func(i int, format string, args ...any) {
		name := job.Name
		if !sched[i].Job {
			name = pop[sched[i].Entry].Name
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s: "+format+"\n", append([]any{name}, args...)...)
	}

	// Both channels are sized to the number of sends, so the dispatcher and
	// the senders never block on them.
	queue := make(chan int, len(sched))
	accepted := make(chan int, len(sched))
	var senders sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range queue {
				ctx, cancel := opCtx()
				if o := sched[i]; !o.Job {
					e := pop[o.Entry]
					raw, err := cl.PostRaw(ctx, srv.base+"/v1/check", e.request(e.MaxConfigs))
					ms := msSince(due(i))
					switch {
					case err != nil:
						fail(i, "%v", err)
					case !bytes.Equal(raw.Body, refs.sync[o.Entry]):
						fail(i, "body differs from the reference:\n%s", raw.Body)
					default:
						outs[i] = outcome{ms: ms, cache: raw.Header.Get("X-Cache"), ok: true}
					}
				} else {
					var st struct{ ID string }
					if err := cl.PostJSON(ctx, srv.base+"/v1/jobs", job.request(jobBudget(i)), &st); err != nil {
						fail(i, "%v", err)
					} else {
						jobIDs[i] = st.ID
						accepted <- i
					}
				}
				cancel()
			}
		}()
	}
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		pollJobs(cl, srv.base, accepted, jobIDs, due, func(i int, body []byte, err error) {
			switch {
			case err != nil:
				fail(i, "%v", err)
			case !bytes.Equal(body, refs.job):
				fail(i, "job result differs from the reference:\n%s", body)
			default:
				outs[i] = outcome{ms: msSince(due(i)), ok: true}
			}
		})
	}()

	for i := range sched {
		waitUntil(due(i))
		lags[i] = msSince(due(i))
		queue <- i
	}
	close(queue)
	senders.Wait()
	close(accepted)
	poller.Wait()
	close(stopPeaks)
	sampler.Wait()
	if peakErr != nil {
		return mixResult{}, peakErr
	}

	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return mixResult{}, err
	}
	r := mixResult{cpuS: (cpu1 - cpu0).Seconds(), lag: lags, peaks: peaks}
	for i, o := range outs {
		b.attempted++
		if !o.ok {
			b.failed++
			continue
		}
		switch {
		case sched[i].Job:
			r.jobs = append(r.jobs, o.ms)
		case o.cache == "hit":
			r.sync, r.hit = append(r.sync, o.ms), append(r.hit, o.ms)
		default:
			r.sync, r.miss = append(r.sync, o.ms), append(r.miss, o.ms)
		}
	}
	return r, nil
}

// pollJobs polls every accepted job's status until it is done, then
// fetches its result and hands it to finish. It returns once accepted is
// closed and every job has finished.
func pollJobs(cl *httpx.Client, base string, accepted <-chan int, ids []string, due func(int) time.Time, finish func(i int, body []byte, err error)) {
	var live []int
	open := true
	for open || len(live) > 0 {
		if len(live) == 0 {
			i, ok := <-accepted
			if !ok {
				return
			}
			live = append(live, i)
		}
	drain:
		for open {
			select {
			case i, ok := <-accepted:
				if !ok {
					open = false
					break drain
				}
				live = append(live, i)
			default:
				break drain
			}
		}
		next := live[:0]
		for _, i := range live {
			ctx, cancel := opCtx()
			var st struct{ State, Error string }
			err := cl.GetJSON(ctx, base+"/v1/jobs/"+ids[i], &st)
			switch {
			case err != nil:
				finish(i, nil, err)
			case st.State == "done":
				raw, err := cl.GetRaw(ctx, base+"/v1/jobs/"+ids[i]+"/result")
				finish(i, raw.Body, err)
			case st.State == "failed" || st.State == "canceled":
				finish(i, nil, fmt.Errorf("job %s: %s", st.State, st.Error))
			case time.Since(due(i)) > 120*time.Second:
				finish(i, nil, fmt.Errorf("job still %s after 120s", st.State))
			default:
				next = append(next, i)
			}
			cancel()
		}
		live = next
		if len(live) > 0 {
			time.Sleep(jobPoll)
		}
	}
}

// serveSpanLayers derives the serve layer's self times from crnserve's
// spans.
func (b *bench) serveSpanLayers(spans []trace.SpanData) {
	named := func(name string) func(trace.SpanData) bool {
		return func(s trace.SpanData) bool { return s.Name == name }
	}
	// Request self time is taken over the requests that carry a check: the
	// status polls of async jobs would otherwise dominate the median.
	submit := func(s trace.SpanData) bool {
		return s.Name == "serve.request" && s.Attrs["method"] == "POST" &&
			(s.Attrs["endpoint"] == "/v1/check" || s.Attrs["endpoint"] == "/v1/jobs")
	}
	b.layers["serve.request_self_ms"] = median(scale(selfTimes(spans, submit), 1e-6))
	b.layers["serve.cache_lookup_us"] = median(scale(selfTimes(spans, named("serve.cache.lookup")), 1e-3))
	b.layers["serve.admission_wait_ms"] = median(durationsMs(spans, "serve.job.admission"))
	b.layers["serve.job_self_ms"] = median(scale(selfTimes(spans, named("serve.job")), 1e-6))
}

// clientLayers reads the benchmark's own httpx counters.
func (b *bench) clientLayers(reg *metrics.Registry) error {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return err
	}
	c, err := parseCounters(buf.Bytes())
	if err != nil {
		return err
	}
	b.layers["httpx.attempts"] = c["crn_httpx_attempts_total"]
	b.layers["httpx.retries"] = retryableAttempts(buf.Bytes())
	return nil
}

// retryableAttempts counts the attempts whose outcome was retryable, i.e.
// those the client retried or gave up after.
func retryableAttempts(page []byte) float64 {
	var n float64
	for _, line := range bytes.Split(page, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("crn_httpx_attempts_total{")) && bytes.Contains(line, []byte(`outcome="retryable"`)) {
			f := bytes.Fields(line)
			v, _ := strconv.ParseFloat(string(f[len(f)-1]), 64)
			n += v
		}
	}
	return n
}

// waitUntil returns at t: it sleeps until a millisecond before and yields
// for the rest, because a sleeping goroutine wakes up to a millisecond
// late, and by more when the machine is busy; that lateness would be
// charged to every request's latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
