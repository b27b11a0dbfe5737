package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"crncompose/internal/dist"
	"crncompose/internal/metrics"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// Async grid jobs. A job is a whole /v1/check computation too large for a
// synchronous response: it is content-addressed by the same canonical
// request key as the cache (so the job id doubles as the cache key, and
// re-submitting an identical job attaches to the running one instead of
// recomputing), executed off the request path, and its finished body —
// byte-identical to the synchronous /v1/check response — is inserted into
// the response cache so later checks of the same request are plain hits.
//
// Up to Config.MaxJobs jobs execute concurrently — distinct content
// addresses are independent computations, and a server with spare worker
// budget can overlap them — with further submissions queuing in order.
// Every job runs under its own context (derived from the server's):
// DELETE /v1/jobs/{id} cancels it, and the engine unwinds at its next
// rectangle/chunk boundary, leaving the job in the terminal "canceled"
// state with no partial result. Every job is a dist.Coordinator (see
// runGrid), so progress is counted in its completed rectangles.
//
// Terminal jobs (done, failed, canceled) are garbage-collected from the
// table after Config.JobTTL. A done job's body survives in the response
// cache under the same key, so its result remains reachable: re-submitting
// yields a fresh pre-completed job instantly.

// Job states.
const (
	jobQueued   = "queued"
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// terminalState reports whether a job state is final.
func terminalState(state string) bool {
	switch state {
	case jobDone, jobFailed, jobCanceled:
		return true
	}
	return false
}

// JobStatus is the status document of GET /v1/jobs/{id} (and the 202 body
// of submissions). Progress is counted in completed grid rectangles.
// Degraded is set when the remaining rectangles of a dist handoff were
// finished locally (DegradedReason says why); the body is byte-identical
// either way, so degradation is an operational signal, not a correctness
// one.
type JobStatus struct {
	ID             string `json:"id"`
	State          string `json:"state"`
	Rects          int    `json:"rects"`
	RectsDone      int    `json:"rects_done"`
	Error          string `json:"error,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// asyncJob is one grid job. Mutable fields are guarded by the owning
// jobTable's mutex; done closes when the job reaches a terminal state.
type asyncJob struct {
	id    string
	check *checkJob

	// ctx governs the job's computation; cancel is what DELETE calls. Both
	// are immutable after getOrCreate (cancel is safe to call repeatedly).
	ctx    context.Context
	cancel context.CancelFunc

	// parent is the span context of the submitting request (zero when that
	// request was untraced) and submittedAt the admission instant — together
	// they let the runner open a serve.job span that covers queue wait plus
	// execution, in the submitter's trace. span is that open span; it is set
	// by runJob before execution and read only on the runner goroutine.
	parent      trace.SpanContext
	submittedAt time.Time
	span        *trace.Span

	state          string
	co             *dist.Coordinator // the job's coordinator, once running; progress source
	body           []byte            // finished /v1/check body (state == jobDone)
	errMsg         string            // state == jobFailed or jobCanceled
	degraded       bool              // remaining rectangles finished locally
	degradedReason string            // why (degraded only)
	finishedAt     time.Time         // when the job reached a terminal state (for GC)

	done chan struct{}
}

// jobTable owns every submitted job and the execution queue.
type jobTable struct {
	mu    sync.Mutex
	jobs  map[string]*asyncJob
	queue chan *asyncJob
	now   func() time.Time // injectable for TTL tests
	// addrJob is the last job whose coordinator listened on
	// Config.DistCoordinator. That coordinator closes after the job ends,
	// so every later submission ends its joins (the workers started for
	// the new job wait for that job), and runGrid closes it before
	// listening there once the job is over.
	addrJob *asyncJob
}

func newJobTable() *jobTable {
	return &jobTable{
		jobs:  make(map[string]*asyncJob),
		queue: make(chan *asyncJob, 256),
		now:   time.Now,
	}
}

// getOrCreate returns the job for j's content address, creating and
// enqueueing it if new. A request whose result is already cached gets a
// pre-completed job, so submitting a job for a finished computation is
// instantaneous at any later time. A previously failed or canceled job is
// replaced by a fresh submission — failures (a full queue, a coordinator
// that could not bind, an enumeration error) and cancellations must not
// poison the content address for the server's lifetime.
func (jt *jobTable) getOrCreate(j *checkJob, s *Server, parent trace.SpanContext) *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jb, ok := jt.jobs[j.key]; ok && jb.state != jobFailed && jb.state != jobCanceled {
		// Identical re-submissions attach to the existing job; the first
		// submitter's trace keeps it.
		return jb
	}
	jb := &asyncJob{
		id: j.key, check: j, state: jobQueued, done: make(chan struct{}),
		parent: parent, submittedAt: jt.now(),
	}
	base := s.baseCtx
	if base == nil { // bare Server in table-level tests
		base = context.Background()
	}
	jb.ctx, jb.cancel = context.WithCancel(base)
	s.met.submitted()
	if val, ok := s.cache.get(j.key); ok {
		jb.state = jobDone
		jb.body = val.body
		jb.finishedAt = jt.now()
		jb.cancel()
		close(jb.done)
		jt.jobs[j.key] = jb
		s.met.jobTransition("", jobDone)
		return jb
	}
	select {
	case jt.queue <- jb:
		s.met.jobTransition("", jobQueued)
		if jt.addrJob != nil {
			jt.addrJob.co.EndJoins()
		}
	default:
		jb.state = jobFailed
		jb.errMsg = "job queue full"
		jb.finishedAt = jt.now()
		jb.cancel()
		close(jb.done)
		s.met.jobTransition("", jobFailed)
	}
	jt.jobs[j.key] = jb
	return jb
}

func (jt *jobTable) get(id string) *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.jobs[id]
}

// unfinished returns a job not yet in a terminal state, or nil once there
// is none — the drain loop's exit condition.
func (jt *jobTable) unfinished() *asyncJob {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	for _, jb := range jt.jobs {
		if !terminalState(jb.state) {
			return jb
		}
	}
	return nil
}

// gc removes terminal jobs whose finishedAt is at least ttl old and
// returns how many were dropped. Done jobs' bodies stay in the response
// cache; only the table entry expires.
func (jt *jobTable) gc(now time.Time, ttl time.Duration) int {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	n := 0
	for id, jb := range jt.jobs {
		if terminalState(jb.state) && !jb.finishedAt.IsZero() && now.Sub(jb.finishedAt) >= ttl {
			delete(jt.jobs, id)
			n++
		}
	}
	return n
}

// statusDoc snapshots the job for clients.
func (jb *asyncJob) statusDoc() JobStatus {
	// jb.id and check are immutable; the rest is read under the table lock
	// by the accessors below.
	st := JobStatus{
		ID:             jb.id,
		State:          jb.state,
		Error:          jb.errMsg,
		Degraded:       jb.degraded,
		DegradedReason: jb.degradedReason,
	}
	if jb.co != nil {
		st.RectsDone, st.Rects = jb.co.Progress()
	}
	return st
}

// status returns a consistent snapshot under the table lock.
func (jt *jobTable) status(jb *asyncJob) JobStatus {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jb.statusDoc()
}

// gcJobs is the job-table janitor goroutine: it expires terminal jobs
// older than Config.JobTTL until the server shuts down.
func (s *Server) gcJobs() {
	interval := s.cfg.JobTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.jobs.gc(s.jobs.now(), s.cfg.JobTTL); n > 0 {
				s.logf("job gc: expired %d terminal job(s)", n)
			}
		case <-s.baseCtx.Done():
			return
		}
	}
}

// runJobs is the server's job dispatcher goroutine: it admits queued jobs
// into runner goroutines under the MaxJobs budget until the server shuts
// down. Each runner is tracked on jobWG so Drain can await them.
func (s *Server) runJobs() {
	sem := make(chan struct{}, s.cfg.MaxJobs)
	for {
		select {
		case jb := <-s.jobs.queue:
			select {
			case sem <- struct{}{}:
			case <-s.baseCtx.Done():
				return
			}
			s.jobWG.Add(1)
			go func() {
				defer s.jobWG.Done()
				defer func() { <-sem }()
				s.runJob(jb)
			}()
		case <-s.baseCtx.Done():
			return
		}
	}
}

// runJob executes one job to a terminal state and publishes its body to the
// response cache. A job canceled before or during execution lands in
// "canceled" with no partial result. The job's coordinator closes only
// after the body is out, so its drain never delays the result.
func (s *Server) runJob(jb *asyncJob) {
	// The serve.job span opens at the admission instant, so it covers queue
	// wait plus execution; the admission child makes the wait visible on its
	// own. Both live in the submitting request's trace (jb.parent).
	runStart := time.Now()
	jb.span = s.tr.StartSpan(jb.submittedAt, "serve.job", jb.parent,
		trace.String("job", jb.id[:min(12, len(jb.id))]))
	s.tr.StartSpan(jb.submittedAt, "serve.job.admission", jb.span.Context()).End(runStart)
	var body []byte
	var err error
	if err = jb.ctx.Err(); err == nil {
		s.computed("job")
		body, err = s.runGrid(jb)
	}
	s.jobs.mu.Lock()
	from := jb.state
	switch {
	case err != nil && jb.ctx.Err() != nil:
		jb.state = jobCanceled
		jb.errMsg = err.Error()
	case err != nil:
		jb.state = jobFailed
		jb.errMsg = err.Error()
	default:
		jb.state = jobDone
		jb.body = body
		s.cache.put(jb.id, cached{status: http.StatusOK, contentType: contentTypeJSON, body: body})
	}
	s.met.jobTransition(from, jb.state)
	jb.finishedAt = s.jobs.now()
	terminal := jb.state
	degraded := jb.degraded
	s.jobs.mu.Unlock()
	jb.span.End(time.Now(),
		trace.String("state", terminal),
		trace.Bool("degraded", degraded))
	jb.cancel()
	close(jb.done)
	trace.Logf(s.logf, jb.span.Context())("job %.12s…: %s", jb.id, terminal)
	if jb.co != nil { // set by this goroutine
		jb.co.Close()
	}
}

// runGrid computes jb's grid through a dist.Coordinator whose spans join
// jb's trace. A local job's coordinator keeps its registry and log private
// (crn_dist_* and the lease log lines describe remote handoffs only, and
// concurrent local jobs cannot overwrite each other's gauges) and an
// in-process worker checks its rectangles. A dist job's coordinator serves
// Config.DistCoordinator for `crncheck -join` workers; if it cannot start
// there, or no rectangle completes for CoordinatorGrace, the job degrades
// (unless the grace is negative): the listener closes, outstanding leases
// are reclaimed, and the in-process worker finishes the remaining
// rectangles. The body is the same bytes either way.
func (s *Server) runGrid(jb *asyncJob) ([]byte, error) {
	cc, addr := jb.check.cc, s.cfg.DistCoordinator
	cfg := dist.CoordinatorConfig{
		CRN: jb.check.c, Func: cc.Func, Lo: cc.Lo, Hi: cc.Hi,
		MaxConfigs: cc.MaxConfigs, MaxCount: cc.MaxCount,
		Shards: s.cfg.Shards, LeaseTTL: s.cfg.LeaseTTL,
		Metrics: metrics.NewRegistry(),
		Tracer:  s.tr, TraceContext: jb.span.Context(),
	}
	if addr != "" {
		cfg.Metrics, cfg.Logf = s.cfg.Metrics, s.cfg.Logf
	}
	co, err := dist.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	var reason string
	if addr != "" {
		s.jobs.mu.Lock()
		prev := s.jobs.addrJob
		over := prev != nil && (terminalState(prev.state) || prev.co.Changed() == nil)
		s.jobs.mu.Unlock()
		if over {
			prev.co.Close()
		}
		if err := co.Start(addr); err != nil {
			if s.cfg.CoordinatorGrace < 0 {
				return nil, fmt.Errorf("starting coordinator on %s: %w", addr, err)
			}
			reason = fmt.Sprintf("coordinator could not start on %s: %v", addr, err)
		}
	}
	s.jobs.mu.Lock()
	s.met.jobTransition(jb.state, jobRunning)
	jb.state, jb.co = jobRunning, co
	if co.Addr() != nil {
		s.jobs.addrJob = jb
	}
	s.jobs.mu.Unlock()
	if addr != "" && reason == "" {
		reason = s.watchHandoff(jb, co)
	}
	if addr == "" || reason != "" {
		var sp *trace.Span
		if reason != "" {
			trace.Logf(s.logf, jb.span.Context())("job %.12s…: finishing the remaining rectangles locally: %s", jb.id, reason)
			s.met.degraded()
			s.jobs.mu.Lock()
			jb.degraded, jb.degradedReason = true, reason
			s.jobs.mu.Unlock()
			sp = s.tr.StartSpan(time.Now(), "serve.degrade", jb.span.Context(), trace.String("reason", reason))
		}
		err := co.Work(jb.ctx, "crnserve", func(ctx context.Context, r dist.Rect) (reach.GridResult, error) {
			rep, finish := s.reporterFor(trace.FromContext(ctx)) // under the dist.rect span
			defer finish()
			return reach.CheckRectCtx(ctx, jb.check.c, jb.check.f, r.Lo, r.Hi,
				reach.WithMaxConfigs(cc.MaxConfigs),
				reach.WithMaxCount(cc.MaxCount),
				reach.WithWorkers(s.cfg.Workers),
				reach.WithProgress(rep))
		})
		sp.End(time.Now())
		if err != nil {
			return nil, err
		}
	}
	res, err := co.Wait(jb.ctx)
	if err != nil {
		return nil, err
	}
	return reach.MarshalGridResultIndent(res)
}

// watchHandoff waits for remote workers to finish co's grid, restarting
// the CoordinatorGrace window at every recorded rectangle. When a window
// passes with none it closes co — which reclaims the outstanding leases —
// and returns the degrade reason; it returns "" once the grid is
// finished or the job canceled.
func (s *Server) watchHandoff(jb *asyncJob, co *dist.Coordinator) string {
	grace := s.cfg.CoordinatorGrace
	t := time.NewTimer(grace)
	defer t.Stop()
	stall := t.C
	if grace <= 0 {
		stall = nil // fallback disabled
	}
	for changed := co.Changed(); changed != nil; changed = co.Changed() {
		select {
		case <-jb.ctx.Done():
			return ""
		case <-changed:
			t.Reset(grace)
		case <-stall:
			co.Close() // unfinished: no drain, just the shutdown
			done, total := co.Progress()
			return fmt.Sprintf("no rectangle completed for %s (%d/%d done); workers presumed lost", grace, done, total)
		}
	}
	return ""
}

// handleJobSubmit serves POST /v1/jobs: the body is a CheckRequest; the
// response is 202 with the job's status document (Location points at the
// status URL). Identical submissions — concurrent or later — share one job.
// A draining server admits nothing and answers 503.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	var req CheckRequest
	if !readJSON(w, r, &req) {
		return
	}
	j, err := resolveCheck(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jb := s.jobs.getOrCreate(j, s, trace.FromContext(r.Context()))
	w.Header().Set("Location", "/v1/jobs/"+jb.id)
	writeJSON(w, http.StatusAccepted, s.jobs.status(jb))
}

// handleJobStatus serves GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.status(jb))
}

// handleJobDelete serves DELETE /v1/jobs/{id}. Deleting a queued or
// running job cancels its context — the engine unwinds at its next
// rectangle/chunk boundary and the job transitions to "canceled" — and
// answers 200 with the (possibly not yet terminal) status document.
// Deleting a terminal job removes it from the table and answers 200; a
// done job's result body remains reachable through the response cache.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb := s.jobs.get(id)
	if jb == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	s.jobs.mu.Lock()
	if terminalState(jb.state) {
		delete(s.jobs.jobs, id)
		st := jb.statusDoc()
		s.jobs.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.jobs.mu.Unlock()
	jb.cancel()
	writeJSON(w, http.StatusOK, s.jobs.status(jb))
}

// handleJobResult serves GET /v1/jobs/{id}/result: the finished body, byte
// -identical to the synchronous /v1/check response (and to crncheck -json).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	st := s.jobs.status(jb)
	switch st.State {
	case jobDone:
		s.jobs.mu.Lock()
		body := jb.body
		s.jobs.mu.Unlock()
		writeCached(w, cached{status: http.StatusOK, contentType: contentTypeJSON, body: body}, cacheHit)
	case jobFailed, jobCanceled:
		writeError(w, http.StatusUnprocessableEntity, errors.New(st.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; poll /v1/jobs/%s", st.State, st.ID))
	}
}
