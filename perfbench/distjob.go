package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand/v2"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"crncompose/internal/benchcrn"
	"crncompose/internal/httpx"
	"crncompose/internal/metrics"
	"crncompose/internal/trace"
)

// runDistJob submits the branchy max grid as one /v1/jobs job to a
// crnserve running its jobs through a dist coordinator, with two fresh
// `crncheck -join -workers 1` processes per job, one job after another.
func runDistJob(b *bench) error {
	g := grid{CRN: benchcrn.Branchy(), Func: "max", Lo: 0, Hi: distHi, MaxConfigs: defaultMaxConfigs}
	if b.tiny {
		g.Hi = 5
	}
	var ref []byte
	var srv *server
	var coord string
	stop, err := b.repeatSetup(setupReps["dist_job"], func() (func(), error) {
		body, err := allVerified(entry{grid: g, Name: "dist job"})
		if err != nil {
			return nil, err
		}
		ref = body
		s, addr, err := b.startDistServer(false)
		if err != nil {
			return nil, err
		}
		srv, coord = s, addr
		return func() { s.stop() }, nil
	})
	if err != nil {
		return err
	}
	// Each job needs its own content address, or crnserve would replay the
	// finished body: the budget varies by a seeded offset that no input
	// comes near (the largest input explores 38,760 configs).
	r := mrand.New(mrand.NewPCG(b.seed, 0xD157))
	offsets := r.Perm(1 << 16)
	job := 0
	nextBudget := func() int { job++; return defaultMaxConfigs - 1 - offsets[job%len(offsets)] }

	reg := metrics.NewRegistry()
	cl := newClient(reg)
	d := b.seconds
	if b.traced {
		d /= 2
	}
	plain := b.distPass(cl, srv, coord, g, ref, d, nextBudget, false)
	stop()
	if !b.traced {
		b.record("verdict_s", "s", plain.verdict)
		b.record("cpu_s", "s", plain.cpu)
		b.record("peak_rss_mb", "MB", plain.peak)
		return nil
	}

	tsrv, tcoord, err := b.startDistServer(true)
	if err != nil {
		return err
	}
	defer tsrv.stop()
	before, err := scrapeMetrics(cl, tsrv.base)
	if err != nil {
		return err
	}
	traced := b.distPass(cl, tsrv, tcoord, g, ref, d, nextBudget, true)
	after, err := scrapeMetrics(cl, tsrv.base)
	if err != nil {
		return err
	}
	spans, err := fetchSpans(cl, tsrv.debugBase)
	if err != nil {
		return err
	}
	if len(plain.verdict) == 0 || len(traced.verdict) == 0 {
		return fmt.Errorf("no successful job to compare traced against untraced")
	}
	jobs := float64(len(traced.verdict))
	delta := after.sub(before)
	leases := delta["crn_dist_leases_granted_total"]
	b.layers["dist.leases_granted"] = leases / jobs
	b.layers["dist.useful_lease_ratio"] = float64(distShards) * jobs / max(1, leases)
	b.layers["dist.lease_expired"] = delta["crn_dist_lease_expired_total"] / jobs
	b.distSpanLayers(spans, traced.bodyAt)
	b.serveSpanLayers(spans)
	b.layers["trace.overhead"] = median(traced.verdict)/median(plain.verdict) - 1
	b.layers["trace.spans_dropped"] = 0 // fetchSpans refuses otherwise
	if err := b.clientLayers(reg); err != nil {
		return err
	}
	if err := b.measureEngine([]grid{g}, 1, [][]byte{ref}); err != nil {
		return err
	}
	if err := b.measureRectLoop(g, distShards, 1); err != nil {
		return err
	}
	b.notCrossed("serve.hit_p50_ms", "serve.miss_p50_ms", "serve.cache_", "loadgen.")
	return nil
}

// startDistServer starts crnserve with a dist coordinator address for its
// jobs and returns the server and that address.
func (b *bench) startDistServer(traced bool) (*server, string, error) {
	coord, err := freePort()
	if err != nil {
		return nil, "", err
	}
	args := []string{"-addr", "127.0.0.1:0", "-dist-coordinator", coord, "-shards", strconv.Itoa(distShards)}
	if traced {
		args = append(args, traceServerArgs...)
	}
	s, err := startServer(b.bin, traced, args...)
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := opCtx()
	defer cancel()
	if _, err := (&httpx.Client{}).GetRaw(ctx, s.base+"/healthz"); err != nil {
		s.stop()
		return nil, "", fmt.Errorf("warm-up request: %w", err)
	}
	return s, coord, nil
}

// distResult is one pass of back-to-back jobs.
type distResult struct {
	verdict []float64 // seconds from POST /v1/jobs until the result body is in hand
	cpu     []float64 // crnserve's CPU during the job plus the workers' CPU
	peak    []float64 // crnserve's peak RSS plus the workers' peak RSS
	// bodyAt maps each job's trace id to when its body was in hand (traced
	// passes only).
	bodyAt map[string]time.Time
}

// distPass runs jobs back to back for about d (at least one).
// With traced, each submission carries a traceparent so the job's spans
// can be matched to the client's timing.
func (b *bench) distPass(cl *httpx.Client, srv *server, coord string, g grid, ref []byte, d time.Duration, budget func() int, traced bool) distResult {
	res := distResult{bodyAt: map[string]time.Time{}}
	for start, n := time.Now(), 0; another(start, d, n, res.verdict); n++ {
		b.attempted++
		ctx, cancel := opCtx()
		var tid string
		if traced {
			var sc trace.SpanContext
			_, _ = rand.Read(sc.TraceID[:])
			_, _ = rand.Read(sc.SpanID[:])
			ctx = trace.ContextWith(ctx, sc)
			tid = sc.TraceID.String()
		}
		body, at, u, err := b.oneJob(ctx, cl, srv, coord, g, budget())
		cancel()
		switch {
		case err != nil:
			b.opFailed("dist job: %v", err)
			continue
		case !bytes.Equal(body, ref):
			b.opFailed("dist job body differs from the reference:\n%s", body)
			continue
		}
		res.verdict = append(res.verdict, u.Wall.Seconds())
		res.cpu = append(res.cpu, u.CPU.Seconds())
		res.peak = append(res.peak, u.PeakMB)
		if traced {
			res.bodyAt[tid] = at
		}
	}
	return res
}

// oneJob submits one job, starts the workers once its coordinator is up,
// waits for the result and then for the workers to exit. The usage it
// returns is the job's: wall from submission to body, crnserve's CPU over
// the job plus the workers', and crnserve's peak RSS during the job plus
// the workers'.
func (b *bench) oneJob(ctx context.Context, cl *httpx.Client, srv *server, coord string, g grid, budget int) ([]byte, time.Time, usage, error) {
	var u usage
	cpu0, err := procCPU(srv.pid())
	if err == nil {
		err = resetPeak(srv.pid())
	}
	if err != nil {
		return nil, time.Time{}, u, err
	}
	req := g.request(budget)
	start := time.Now()
	var st struct{ ID, State, Error string }
	if err := cl.PostJSON(ctx, srv.base+"/v1/jobs", req, &st); err != nil {
		return nil, time.Time{}, u, err
	}
	status := func() error { return cl.GetJSON(ctx, srv.base+"/v1/jobs/"+st.ID, &st) }
	// Workers join once the job's coordinator listens (state running), so
	// the join does not ride a retry backoff.
	for st.State == "queued" {
		time.Sleep(time.Millisecond)
		if err := status(); err != nil {
			return nil, time.Time{}, u, err
		}
	}
	var workers []*exec.Cmd
	waits := make(chan error, distWorkers) // one result per worker
	for range distWorkers {
		w := exec.Command(filepath.Join(b.bin, "crncheck"), "-join", coord, "-workers", "1")
		if err = w.Start(); err != nil {
			break
		}
		workers = append(workers, w)
		go func() { waits <- w.Wait() }()
	}
	// reap waits for every worker, killing any still running at the deadline.
	reap := func() error {
		var first error
		deadline := time.After(60 * time.Second)
		for range workers {
			select {
			case err := <-waits:
				if err != nil && first == nil {
					first = fmt.Errorf("worker: %w", err)
				}
			case <-deadline:
				for _, w := range workers {
					_ = w.Process.Kill()
				}
				deadline = nil
				if first == nil {
					first = fmt.Errorf("worker still running 60s after its job")
				}
				<-waits
			}
		}
		return first
	}
	for err == nil && st.State != "done" {
		switch st.State {
		case "failed", "canceled":
			err = fmt.Errorf("job %s: %s", st.State, st.Error)
			continue
		}
		time.Sleep(5 * time.Millisecond)
		err = status()
	}
	var raw httpx.Raw
	if err == nil {
		raw, err = cl.GetRaw(ctx, srv.base+"/v1/jobs/"+st.ID+"/result")
	}
	at := time.Now()
	u.Wall = at.Sub(start)
	if werr := reap(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, at, u, err
	}
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, at, u, err
	}
	u.CPU = cpu1 - cpu0
	if u.PeakMB, err = procPeakMB(srv.pid()); err != nil {
		return nil, at, u, err
	}
	for _, w := range workers {
		wu := rusageOf(w.ProcessState, 0)
		u.CPU += wu.CPU
		u.PeakMB += wu.PeakMB
	}
	return raw.Body, at, u, nil
}

// distSpanLayers derives the dist layer's timings from the coordinator's
// spans and the rectangle spans the workers shipped back with results.
func (b *bench) distSpanLayers(spans []trace.SpanData, bodyAt map[string]time.Time) {
	leases := map[string]trace.SpanData{}
	for _, s := range spans {
		if s.Name == "dist.lease" {
			leases[s.SpanID] = s
		}
	}
	var rect, handoff []float64
	type key struct{ trace, worker string }
	byWorker := map[key][]trace.SpanData{}
	lastEnd := map[string]int64{}
	for _, s := range spans {
		if s.Name != "dist.rect" {
			continue
		}
		rect = append(rect, float64(s.End-s.Start)/1e6)
		if l, ok := leases[s.Parent]; ok {
			handoff = append(handoff, float64((l.End-l.Start)-(s.End-s.Start))/1e6)
		}
		k := key{s.TraceID, s.Attrs["worker"]}
		byWorker[k] = append(byWorker[k], s)
		lastEnd[s.TraceID] = max(lastEnd[s.TraceID], s.End)
	}
	var idle []float64
	for _, rs := range byWorker {
		slices.SortFunc(rs, func(a, b trace.SpanData) int { return cmp.Compare(a.Start, b.Start) })
		for i := 1; i < len(rs); i++ {
			idle = append(idle, float64(rs[i].Start-rs[i-1].End)/1e6)
		}
	}
	var tail []float64
	for tid, at := range bodyAt {
		if end, ok := lastEnd[tid]; ok {
			tail = append(tail, float64(at.UnixNano()-end)/1e6)
		}
	}
	b.layers["dist.rect_ms"] = median(rect)
	b.layers["dist.handoff_ms"] = median(handoff)
	b.layers["dist.worker_idle_ms"] = median(idle)
	b.layers["dist.merge_ms"] = median(durationsMs(spans, "dist.merge"))
	b.layers["dist.tail_ms"] = median(tail)
}
