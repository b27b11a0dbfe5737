package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/metrics"
	"crncompose/internal/reach"
	"crncompose/internal/trace"
)

// Defaults for CoordinatorConfig zero values.
const (
	DefaultShards   = 16
	DefaultLeaseTTL = 30 * time.Second
)

// joinWindow covers the first two join retries of a worker refused before
// its coordinator listened: at the default Poll they back off at most 50ms,
// then 100ms. See Close.
const joinWindow = 200 * time.Millisecond

// CoordinatorConfig describes a distributed CheckGrid job.
type CoordinatorConfig struct {
	// CRN is the network under verification; its text form is shipped to
	// workers and it rebinds decoded witness configurations.
	CRN *crn.CRN
	// Func names the function the CRN should compute. Workers resolve the
	// name themselves (cmd/crncheck uses core.Library on both sides).
	Func string
	// Lo, Hi bound the grid, per coordinate (lo ≤ x ≤ hi).
	Lo, Hi []int64
	// MaxConfigs and MaxCount are the per-input exploration budgets — part
	// of the job, since verdicts depend on them. Nonpositive values pick
	// reach's own defaults (1<<18 configs, 1<<40 max count), so an unset
	// config stays byte-identical to a reach.CheckGrid with unset options.
	MaxConfigs int
	MaxCount   int64
	// Shards is the number of grid rectangles to lease out (default
	// DefaultShards, clamped to the grid size). More shards than workers
	// keeps the tail balanced; rectangles are cheap.
	Shards int
	// LeaseTTL bounds how long a silent worker holds a rectangle before it
	// is reassigned (default DefaultLeaseTTL). Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// Checkpoint, when nonempty, is a file the coordinator rewrites after
	// every completed rectangle and loads on startup, so an interrupted run
	// resumes from the completed set (see checkpoint.go for the format and
	// its cross-version promises).
	Checkpoint string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Metrics is the registry the coordinator's GET /metrics renders
	// (lease-table gauges, lease-churn counters, per-rectangle
	// completion histogram). Nil gets a private registry; inject one to
	// aggregate coordinator metrics with a host process's.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records the coordinator's spans: a dist.job
	// root for the whole run, a dist.lease span per grant (ended when the
	// result lands or the lease expires), a dist.merge span for the final
	// fold, plus whatever finished spans workers ship with their results.
	// Inject the host process's tracer (serve does) to see one trace
	// across the request, the coordinator, and the workers. Counting its
	// spans (metrics.SpanHook) is up to whoever created it.
	Tracer *trace.Tracer
	// TraceContext, when valid, parents the dist.job span — the serving
	// layer passes the span context of the request or async job that
	// started this run, stitching the job into that trace.
	TraceContext trace.SpanContext
}

type rectStatus int

const (
	rectPending rectStatus = iota
	rectLeased
	rectDone
)

// rectState is the lease-table entry of one rectangle.
type rectState struct {
	status   rectStatus
	worker   string      // current lease holder (status == rectLeased)
	deadline time.Time   // lease expiry (status == rectLeased)
	leasedAt time.Time   // when the current lease was granted (completion histogram)
	attempts int         // times leased (lease span attribute and log)
	span     *trace.Span // open dist.lease span (status == rectLeased; nil untraced)
	result   reach.GridResult
	raw      json.RawMessage // wire form of result, for the checkpoint file
	errMsg   string          // deterministic enumeration error, if any
}

// Coordinator shards one CheckGrid call across workers and merges their
// rectangle results deterministically. Create with NewCoordinator, then
// either Run (serve + wait + Close) or Start/Wait/Close separately. Work
// attaches an in-process worker, with or without a listener.
type Coordinator struct {
	cfg    CoordinatorConfig
	job    JobSpec
	jobSum string // sha256 of the JobSpec JSON; checkpoint compatibility key
	rects  []Rect
	ttl    time.Duration
	now    func() time.Time // injectable for lease tests
	met    *distMetrics
	tr     *trace.Tracer
	// jobSpan is the dist.job root span, open from construction until
	// checkFinishedLocked; nil when untraced.
	jobSpan *trace.Span

	mu        sync.Mutex
	states    []rectState
	doneRects int // kept by syncRectsLocked
	finished  bool
	merged    reach.GridResult
	mergedErr error
	doneCh    chan struct{}
	changed   chan struct{}   // closed and replaced at each change (see Changed)
	peers     map[string]bool // worker seen on the protocol -> answered Done
	joinsDone bool            // EndJoins: unseen workers are refused

	closeOnce sync.Once
	closingCh chan struct{} // closed on Shutdown; wakes parked /lease long-polls

	srv    *http.Server
	ln     net.Listener
	window <-chan time.Time // fires joinWindow after Start (see Close)
}

// NewCoordinator validates the job, splits the grid, and (if configured)
// loads the checkpoint. It does not listen yet.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.CRN == nil {
		return nil, errors.New("dist: coordinator needs a CRN")
	}
	if cfg.Func == "" {
		return nil, errors.New("dist: coordinator needs a function name")
	}
	d := cfg.CRN.Dim()
	if len(cfg.Lo) != d || len(cfg.Hi) != d {
		return nil, fmt.Errorf("dist: grid arity %d/%d does not match CRN arity %d", len(cfg.Lo), len(cfg.Hi), d)
	}
	for i := range cfg.Lo {
		if cfg.Hi[i] < cfg.Lo[i] {
			return nil, fmt.Errorf("dist: empty grid axis %d: lo %d > hi %d", i, cfg.Lo[i], cfg.Hi[i])
		}
	}
	if cfg.MaxConfigs <= 0 {
		cfg.MaxConfigs = 1 << 18 // reach.buildOptions' default
	}
	if cfg.MaxCount <= 0 {
		cfg.MaxCount = 1 << 40 // reach.buildOptions' default
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	if n := gridSize(cfg.Lo, cfg.Hi); int64(cfg.Shards) > n {
		cfg.Shards = int(n)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	rects := SplitGrid(cfg.Lo, cfg.Hi, cfg.Shards)
	job := JobSpec{
		Version:    ProtocolVersion,
		CRN:        cfg.CRN.String(),
		Func:       cfg.Func,
		Lo:         cfg.Lo,
		Hi:         cfg.Hi,
		MaxConfigs: cfg.MaxConfigs,
		MaxCount:   cfg.MaxCount,
		Rects:      len(rects),
	}
	jb, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(jb)
	co := &Coordinator{
		cfg:       cfg,
		job:       job,
		jobSum:    hex.EncodeToString(sum[:]),
		rects:     rects,
		ttl:       cfg.LeaseTTL,
		now:       time.Now,
		states:    make([]rectState, len(rects)),
		doneCh:    make(chan struct{}),
		changed:   make(chan struct{}),
		peers:     make(map[string]bool),
		closingCh: make(chan struct{}),
		met:       newDistMetrics(cfg.Metrics),
		tr:        cfg.Tracer,
	}
	// The job root span opens before the checkpoint load: a checkpoint that
	// already completes the run finishes inside checkFinishedLocked below,
	// which ends this span.
	co.jobSpan = co.tr.StartSpan(co.now(), "dist.job", cfg.TraceContext,
		trace.String("func", cfg.Func),
		trace.Int("rects", int64(len(rects))))
	co.mu.Lock()
	if cfg.Checkpoint != "" {
		co.loadCheckpointLocked()
		co.checkFinishedLocked()
	}
	co.syncRectsLocked()
	co.mu.Unlock()
	return co, nil
}

// Rects returns the grid partition, in canonical grid order.
func (co *Coordinator) Rects() []Rect { return co.rects }

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// lease hands out the lowest-indexed pending rectangle, after reclaiming
// expired leases. Rectangles past the first decided (failed or errored) one
// can no longer affect the merged result and are never handed out.
func (co *Coordinator) lease(worker string) LeaseResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	if co.finished {
		return LeaseResponse{Done: true}
	}
	bound := co.firstDecidedLocked()
	for id := 0; id < len(co.states) && id <= bound; id++ {
		st := &co.states[id]
		if st.status != rectPending {
			continue
		}
		st.status = rectLeased
		st.worker = worker
		st.leasedAt = co.now()
		st.deadline = st.leasedAt.Add(co.ttl)
		st.attempts++
		st.span = co.tr.StartSpan(st.leasedAt, "dist.lease", co.jobSpan.Context(),
			trace.Int("rect", int64(id)),
			trace.String("worker", worker),
			trace.Int("attempt", int64(st.attempts)))
		co.met.leasesGranted.Inc()
		co.syncRectsLocked()
		r := co.rects[id]
		trace.Logf(co.logf, st.span.Context())("lease: rect %d -> %s (attempt %d)", id, worker, st.attempts)
		return LeaseResponse{
			Rect:        &r,
			TTLMillis:   co.ttl.Milliseconds(),
			Traceparent: st.span.Context().Traceparent(),
		}
	}
	return LeaseResponse{Wait: true}
}

// leaseWait is lease with long-polling: when no rectangle is immediately
// available it parks the request for up to wait (clamped to the lease TTL,
// the protocol's bound on how long a single poll may hang) and answers as
// soon as one could be — the job finishing, the server shutting down, or an
// outstanding lease expiring, which is the only event that returns a
// rectangle to the pending set and is purely time-driven, so the park sleeps
// exactly until the earliest outstanding deadline rather than spinning. A
// Wait answer therefore means "the window closed empty; poll again", and
// replaces the old worker-side 50ms polling loop with one parked request per
// TTL-bounded window. The park also wakes when ctx — the HTTP request's
// context — is canceled, so a worker that hangs up (or is SIGTERMed) frees
// its handler goroutine immediately instead of holding it for the window.
func (co *Coordinator) leaseWait(ctx context.Context, worker string, wait time.Duration) LeaseResponse {
	return co.awaitLease(ctx, worker, min(wait, co.ttl), co.closingCh)
}

// awaitLease is leaseWait's park; closing ends it early (nil never does:
// the in-process worker outlives the listener).
func (co *Coordinator) awaitLease(ctx context.Context, worker string, wait time.Duration, closing <-chan struct{}) LeaseResponse {
	resp := co.lease(worker)
	if wait <= 0 || !resp.Wait {
		return resp
	}
	deadline := co.now().Add(wait)
	for {
		// Sleep until the earliest outstanding lease deadline (the soonest a
		// rectangle can free up) or the end of the window, whichever is first.
		wake := deadline
		co.mu.Lock()
		for id := range co.states {
			st := &co.states[id]
			if st.status == rectLeased && st.deadline.Before(wake) {
				wake = st.deadline
			}
		}
		co.mu.Unlock()
		d := max(wake.Sub(co.now()), time.Millisecond)
		t := time.NewTimer(d)
		select {
		case <-co.doneCh:
		case <-closing:
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
		resp = co.lease(worker)
		if !resp.Wait || !co.now().Before(deadline) {
			return resp
		}
		select {
		case <-closing:
			return resp // shutting down; don't re-park
		case <-ctx.Done():
			return resp // caller gone; the answer is discarded anyway
		default:
		}
	}
}

// Progress reports how many rectangles have completed out of the total —
// the unit async job progress is surfaced in (internal/serve reports it for
// every job).
func (co *Coordinator) Progress() (done, total int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.doneRects, len(co.states)
}

// renew extends worker's lease on rectID. A false response means the lease
// was lost (expired and possibly reassigned).
func (co *Coordinator) renew(worker string, rectID int) RenewResponse {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	if rectID < 0 || rectID >= len(co.states) {
		return RenewResponse{}
	}
	st := &co.states[rectID]
	if st.status != rectLeased || st.worker != worker {
		co.met.renewFailures.Inc()
		return RenewResponse{}
	}
	st.deadline = co.now().Add(co.ttl)
	return RenewResponse{OK: true}
}

// result decodes and records one reported rectangle. Duplicate reports (a
// lease expired and both the old and the new holder finished) are
// identical by the engine's determinism; the first one recorded wins and
// the rest are acknowledged without effect. A decode failure is a protocol
// error. The ack says whether the job is finished, so the worker that posts
// the last result needs no further /lease round trip.
func (co *Coordinator) result(req ResultRequest) (ResultResponse, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if req.RectID < 0 || req.RectID >= len(co.states) {
		return ResultResponse{}, fmt.Errorf("dist: result for unknown rect %d", req.RectID)
	}
	if co.states[req.RectID].status == rectDone {
		return ResultResponse{OK: true, Done: co.finished}, nil
	}
	if len(req.Result) == 0 && req.Err == "" {
		return ResultResponse{}, fmt.Errorf("dist: result for rect %d carries neither result nor error", req.RectID)
	}
	var res reach.GridResult
	if len(req.Result) > 0 {
		var err error
		res, err = reach.UnmarshalGridResult(req.Result, co.cfg.CRN)
		if err != nil {
			return ResultResponse{}, fmt.Errorf("dist: rect %d: %w", req.RectID, err)
		}
	}
	// The worker's finished spans for this rectangle join the coordinator's
	// ring, so /debug/traces here shows the cross-process trace.
	for i, d := range req.Spans {
		if i >= maxShippedSpans {
			break
		}
		co.tr.Record(d)
	}
	co.recordLocked(req.RectID, req.Worker, res, req.Result, req.Err)
	return ResultResponse{OK: true, Done: co.finished}, nil
}

// recordLocked records rectangle id's result from worker, unless one is
// already recorded. raw is its wire form for the checkpoint file (nil from
// the in-process worker, whose coordinators keep no checkpoint).
func (co *Coordinator) recordLocked(id int, worker string, res reach.GridResult, raw json.RawMessage, errMsg string) {
	st := &co.states[id]
	if st.status == rectDone {
		return
	}
	if !st.leasedAt.IsZero() {
		// Lease grant to accepted result, on the coordinator's clock seam.
		co.met.rectSeconds.ObserveSince(st.leasedAt, co.now())
	}
	leaseSC := st.span.Context()
	st.span.End(co.now(), trace.String("outcome", "ok"))
	st.span = nil
	st.status = rectDone
	st.worker = worker
	st.result = res
	st.raw = raw
	st.errMsg = errMsg
	co.syncRectsLocked()
	trace.Logf(co.logf, leaseSC)("result: rect %d from %s: %v", id, worker, res)
	if co.cfg.Checkpoint != "" {
		if err := co.saveCheckpointLocked(); err != nil {
			co.logf("checkpoint: %v", err)
		}
	}
	co.checkFinishedLocked()
	co.notifyLocked()
}

// Changed returns a channel closed at the next recorded rectangle result,
// or nil once the merged result is available.
func (co *Coordinator) Changed() <-chan struct{} {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.finished {
		return nil
	}
	return co.changed
}

// saw records a worker for the drain: seen when it joins (GET /job names
// it) or leases, answered once a lease or result ack told it Done. It
// reports false, recording nothing, for a worker not seen before once the
// job is finished and EndJoins was called.
func (co *Coordinator) saw(worker string, done bool) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	answered, seen := co.peers[worker]
	if !seen && co.joinsDone && co.finished {
		return false
	}
	if worker != "" && !answered {
		co.peers[worker] = done
		if done {
			co.notifyLocked()
		}
	}
	return true
}

// EndJoins is for a host with the next job for this coordinator's address:
// once the job is finished, a worker not seen yet is answered 503, which it
// retries until that next job listens, and Close no longer holds the
// listener for such workers. Workers already seen still drain.
func (co *Coordinator) EndJoins() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.joinsDone {
		co.joinsDone = true
		co.notifyLocked()
	}
}

// notifyLocked wakes the Changed and drain waiters.
func (co *Coordinator) notifyLocked() {
	close(co.changed)
	co.changed = make(chan struct{})
}

// sweepLocked reclaims expired leases so the rectangles can be reassigned.
func (co *Coordinator) sweepLocked() {
	now := co.now()
	for id := range co.states {
		st := &co.states[id]
		if st.status == rectLeased && st.deadline.Before(now) {
			trace.Logf(co.logf, st.span.Context())("lease: rect %d expired (held by %s); requeued", id, st.worker)
			st.status = rectPending
			st.worker = ""
			st.span.End(now, trace.String("outcome", "expired"))
			st.span = nil
			co.met.leaseExpired.Inc()
			co.syncRectsLocked()
		}
	}
}

// firstDecidedLocked returns the lowest id of a completed rectangle carrying
// a failure or an enumeration error — the point past which no rectangle can
// influence the merged result — or len(rects) if none.
func (co *Coordinator) firstDecidedLocked() int {
	for id := range co.states {
		st := &co.states[id]
		if st.status == rectDone && (st.errMsg != "" || st.result.Failure != nil) {
			return id
		}
	}
	return len(co.states)
}

// checkFinishedLocked finishes the run once every rectangle that can still
// influence the result is done: all of them, or — when some rectangle
// reported a failure or error — every rectangle up to and including the
// first such one.
func (co *Coordinator) checkFinishedLocked() {
	if co.finished {
		return
	}
	bound := co.firstDecidedLocked()
	for id := 0; id < len(co.states) && id <= bound; id++ {
		if co.states[id].status != rectDone {
			return
		}
	}
	mergeStart := co.now()
	co.merged, co.mergedErr = co.mergeLocked()
	mergeEnd := co.now()
	co.tr.StartSpan(mergeStart, "dist.merge", co.jobSpan.Context()).End(mergeEnd,
		trace.Int("checked", int64(co.merged.Checked)))
	co.jobSpan.End(mergeEnd, trace.String("outcome", outcome(co.merged, co.mergedErr)))
	co.finished = true
	close(co.doneCh)
}

// outcome labels a span that produced res and err.
func outcome(res reach.GridResult, err error) string {
	switch {
	case err != nil:
		return "error"
	case res.Failure != nil:
		return "failure"
	}
	return "ok"
}

// mergeLocked folds the rectangle results in canonical grid order with the
// deterministic rule: counts sum; the first rectangle with a failure (the
// smallest failing input in grid order) contributes its partial counts and
// its failure, and everything after it is dropped — exactly where a
// single-process CheckGrid stops. Enumeration errors cut the same way, with
// the error returned alongside the partial counts.
func (co *Coordinator) mergeLocked() (reach.GridResult, error) {
	out := reach.GridResult{}
	for id := range co.states {
		st := &co.states[id]
		if st.status != rectDone {
			break
		}
		out.Checked += st.result.Checked
		out.Inconclusive += st.result.Inconclusive
		out.Explored += st.result.Explored
		if st.result.Failure != nil {
			out.Failure = st.result.Failure
			return out, nil
		}
		if st.errMsg != "" {
			return out, errors.New(st.errMsg)
		}
	}
	return out, nil
}

// Handler returns the coordinator's HTTP API.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /job", func(w http.ResponseWriter, r *http.Request) {
		if !co.saw(r.URL.Query().Get("worker"), false) {
			http.Error(w, "dist: job finished; retry for the next one", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, co.job)
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !readJSON(w, r, &req) {
			return
		}
		co.saw(req.Worker, false)
		resp := co.leaseWait(r.Context(), req.Worker, time.Duration(req.WaitMillis)*time.Millisecond)
		co.saw(req.Worker, resp.Done)
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if !readJSON(w, r, &req) {
			return
		}
		writeJSON(w, co.renew(req.Worker, req.RectID))
	})
	mux.HandleFunc("POST /result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if !readJSON(w, r, &req) {
			return
		}
		resp, err := co.result(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		co.saw(req.Worker, resp.Done)
		writeJSON(w, resp)
	})
	mux.Handle("GET /metrics", co.met.reg.Handler())
	if co.tr != nil {
		mux.Handle("GET /debug/traces", co.tr.Handler())
	}
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one — see Addr) and
// serves the protocol in the background.
func (co *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	co.ln = ln
	co.window = time.After(joinWindow)
	co.srv = &http.Server{Handler: co.Handler()}
	go func() { _ = co.srv.Serve(ln) }()
	co.logf("coordinator: serving %d rects on %s", len(co.rects), ln.Addr())
	return nil
}

// Addr returns the listening address (nil before Start).
func (co *Coordinator) Addr() net.Addr {
	if co.ln == nil {
		return nil
	}
	return co.ln.Addr()
}

// Wait blocks until the merged result is available or ctx is canceled.
func (co *Coordinator) Wait(ctx context.Context) (reach.GridResult, error) {
	select {
	case <-co.doneCh:
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.merged, co.mergedErr
	case <-ctx.Done():
		return reach.GridResult{}, ctx.Err()
	}
}

// Shutdown stops the HTTP server, first waking any parked /lease long-polls
// so graceful shutdown is not held up by the long-poll window, then expires
// the outstanding leases: no remote holder can report any more, so an
// in-process worker attached afterwards computes exactly the unfinished
// rectangles.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.closeOnce.Do(func() { close(co.closingCh) })
	if co.srv == nil {
		return nil
	}
	err := co.srv.Shutdown(ctx)
	co.mu.Lock()
	defer co.mu.Unlock()
	for id := range co.states {
		co.states[id].deadline = time.Time{}
	}
	co.sweepLocked()
	return err
}

// Close drains, then shuts down, within one second in all; it may be
// called concurrently, and the listener is closed when any call returns. A
// finished job's drain lasts until every worker seen on the protocol has been
// answered Done (a dead one holds it to the bound) and, until EndJoins,
// the listener has been up joinWindow, so a worker refused before it
// existed, and so never seen, has retried its join. An unfinished job
// answers nobody Done.
func (co *Coordinator) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	defer func() { _ = co.Shutdown(ctx) }()
	if co.srv == nil {
		return // never listened: no worker to drain
	}
	for window := co.window; ; {
		co.mu.Lock()
		waiting := window != nil && !co.joinsDone
		for _, answered := range co.peers {
			waiting = waiting || !answered
		}
		finished, changed := co.finished, co.changed
		co.mu.Unlock()
		if !finished || !waiting {
			return
		}
		select {
		case <-changed:
		case <-window:
			window = nil
		case <-co.closingCh:
			return
		case <-ctx.Done():
			return
		}
	}
}

// Run serves on addr until the grid is fully checked and returns the merged
// result — the exact GridResult a single-process reach.CheckGrid would
// return — after Close has let the polling workers hear Done.
func (co *Coordinator) Run(ctx context.Context, addr string) (reach.GridResult, error) {
	if err := co.Start(addr); err != nil {
		return reach.GridResult{}, err
	}
	defer co.Close()
	return co.Wait(ctx)
}

// Work runs an in-process worker named name until the job is finished
// (nil) or ctx ends, through the lease and record steps the HTTP handlers
// use, with no encoding. check computes one rectangle under a context
// carrying its dist.rect span; its error under a live ctx is recorded as an
// enumeration error. Attached after Shutdown, which expired every remote
// lease, it computes exactly the rectangles not yet done.
func (co *Coordinator) Work(ctx context.Context, name string, check func(context.Context, Rect) (reach.GridResult, error)) error {
	for ctx.Err() == nil {
		lr := co.awaitLease(ctx, name, co.ttl, nil)
		if lr.Done {
			return nil
		}
		if lr.Rect == nil {
			continue
		}
		leaseSC, _ := trace.ParseTraceparent(lr.Traceparent)
		span := co.tr.StartSpan(co.now(), "dist.rect", leaseSC,
			trace.Int("rect", int64(lr.Rect.ID)), trace.String("worker", name))
		res, err := check(trace.ContextSpan(ctx, span), *lr.Rect)
		if ctx.Err() != nil {
			span.End(co.now(), trace.String("outcome", "canceled"))
			break
		}
		span.End(co.now(), trace.String("outcome", outcome(res, err)),
			trace.Int("checked", int64(res.Checked)))
		var errMsg string
		if err != nil {
			errMsg = err.Error()
		}
		co.mu.Lock()
		co.recordLocked(lr.Rect.ID, name, res, nil, errMsg)
		co.mu.Unlock()
	}
	return ctx.Err()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}
