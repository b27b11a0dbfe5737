package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/core"
	"crncompose/internal/dist"
	"crncompose/internal/reach"
	"crncompose/internal/vec"
)

// Every job runs through a dist.Coordinator. These tests pin what that
// must not change for operators (a local job's coordinator is invisible
// on /metrics and in the log) and what it buys: degradation resumes from
// the finished rectangles, and a dist job's body is published before its
// coordinator drains.

func libraryResolver(name string) (reach.Func, error) {
	f, ok := core.Library()[name]
	if !ok {
		return nil, fmt.Errorf("unknown function %q", name)
	}
	return func(x []int64) int64 { return f.Eval(vec.New(x...)) }, nil
}

// counterValue reads a counter series off the scrape; an absent series
// reads 0.
func counterValue(t *testing.T, series map[string]string, name string) float64 {
	t.Helper()
	v, ok := series[name]
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", name, v, err)
	}
	return f
}

// TestLocalJobKeepsDistSignalsPrivate: local jobs lease their rectangles
// from a private coordinator, so crn_dist_* on /metrics stays put and the
// log carries no per-lease lines — two concurrent local jobs must not
// overwrite one another's lease-table gauges on the shared registry.
func TestLocalJobKeepsDistSignalsPrivate(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	_, ts := newTestServer(t, Config{Shards: 4, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}})
	before := counterValue(t, scrape(t, ts.URL), "crn_dist_leases_granted_total")
	a, b := submitJob(t, ts.URL, 3), submitJob(t, ts.URL, 4)
	for _, js := range []JobStatus{a, b} {
		if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone || final.Rects != 4 || final.RectsDone != 4 {
			t.Fatalf("local job: %+v", final)
		}
	}
	series := scrape(t, ts.URL)
	if after := counterValue(t, series, "crn_dist_leases_granted_total"); after != before {
		t.Errorf("crn_dist_leases_granted_total moved %v -> %v on local jobs", before, after)
	}
	for name := range series {
		if strings.HasPrefix(name, "crn_dist_rects") {
			t.Errorf("local jobs published lease-table gauge %s", name)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.HasPrefix(l, "lease:") || strings.HasPrefix(l, "result:") {
			t.Errorf("local job logged a per-lease line: %q", l)
		}
	}
}

// TestJobDegradeKeepsFinishedRects: a worker completes k of n rectangles
// and dies holding its next lease. After CoordinatorGrace the listener
// closes, that lease is reclaimed, and the in-process worker computes only
// the n−k rectangles left — counted by leases granted — into a body
// byte-identical to crncheck -json, with the job marked degraded.
func TestJobDegradeKeepsFinishedRects(t *testing.T) {
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		Shards:           6,
		DistCoordinator:  addr,
		CoordinatorGrace: 500 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const k = 3
	var remote atomic.Int64
	killed := errors.New("worker killed mid-rectangle")
	w := &dist.Worker{
		Coordinator: addr,
		Name:        "dies-after-k",
		Workers:     1,
		Resolve:     libraryResolver,
		LongPoll:    200 * time.Millisecond,
		JoinTimeout: 30 * time.Second,
		LeaseHook: func(dist.Rect) error {
			if remote.Add(1) > k {
				return killed
			}
			return nil
		},
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(ctx) }()

	before := counterValue(t, scrape(t, ts.URL), "crn_dist_leases_granted_total")
	hi := int64(3)
	js := submitJob(t, ts.URL, hi)
	final := awaitJob(t, ts.URL, js.ID)
	n := final.Rects
	if final.State != jobDone || !final.Degraded || n != 6 || final.RectsDone != n {
		t.Fatalf("degraded job: %+v", final)
	}
	if err := <-workerErr; !errors.Is(err, killed) {
		t.Fatalf("worker: %v", err)
	}
	granted := counterValue(t, scrape(t, ts.URL), "crn_dist_leases_granted_total") - before
	if local := int(granted) - int(remote.Load()); local != n-k {
		t.Fatalf("in-process worker took %d leases (%v granted, %d remote); want the %d unfinished rectangles",
			local, granted, remote.Load(), n-k)
	}
	_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
	if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
		t.Fatalf("degraded result differs from crncheck -json:\n%s\nwant:\n%s", result, want)
	}
}

// TestJobDistDrainAfterPublish: a worker killed holding a lease is never
// answered Done, so the coordinator's drain waits for it — but only after
// the job's body is published, and for at most the 1 s bound.
func TestJobDistDrainAfterPublish(t *testing.T) {
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		Shards:          4,
		DistCoordinator: addr,
		LeaseTTL:        300 * time.Millisecond, // the killed worker's rect reassigns quickly
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	died := make(chan struct{})
	worker := func(name string, hook func(dist.Rect) error) {
		w := &dist.Worker{
			Coordinator: addr,
			Name:        name,
			Workers:     1,
			Resolve:     libraryResolver,
			Poll:        10 * time.Millisecond,
			LongPoll:    200 * time.Millisecond,
			JoinTimeout: 30 * time.Second,
			LeaseHook:   hook,
		}
		go func() { _ = w.Run(ctx) }()
	}
	// The doomed worker takes the first lease and dies with it; the
	// survivor joins only then, so the kill cannot be raced away.
	worker("doomed", func(dist.Rect) error {
		close(died)
		return errors.New("worker killed mid-rectangle")
	})
	js := submitJob(t, ts.URL, 3)
	<-died
	worker("survivor", nil)

	if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone || final.Degraded {
		t.Fatalf("dist job: %+v", final)
	}
	published := time.Now()
	if status, _ := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result"); status != 200 {
		t.Fatalf("result: %d", status)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("coordinator closed before draining the killed worker: %v", err)
	}
	conn.Close()
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Since(published) > 1500*time.Millisecond {
			t.Fatal("coordinator still listening 1.5s after the body was published")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobDistBackToBack: a client submits the next short dist job as soon
// as it has the previous body, then starts that job's worker. The first
// job's coordinator is still draining a worker killed holding a lease.
// The next job waits for it to release the address instead of degrading
// on "address in use", and the finished coordinator turns the new worker
// away instead of telling it Done, so every job is served by its worker.
func TestJobDistBackToBack(t *testing.T) {
	addr := freeAddr(t)
	_, ts := newTestServer(t, Config{
		Shards:           4,
		DistCoordinator:  addr,
		LeaseTTL:         300 * time.Millisecond, // the killed worker's rect reassigns quickly
		CoordinatorGrace: 3 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	worker := func(name string, hook func(dist.Rect) error) <-chan error {
		w := &dist.Worker{
			Coordinator: addr,
			Name:        name,
			Workers:     1,
			Resolve:     libraryResolver,
			Poll:        10 * time.Millisecond,
			JoinTimeout: 30 * time.Second,
			LeaseHook:   hook,
		}
		errc := make(chan error, 1)
		go func() { errc <- w.Run(ctx) }()
		return errc
	}
	for i, hi := range []int64{2, 3, 4} {
		js := submitJob(t, ts.URL, hi)
		if i == 0 {
			died := make(chan struct{})
			worker("doomed", func(dist.Rect) error {
				close(died)
				return errors.New("worker killed mid-rectangle")
			})
			<-died
		}
		workerErr := worker(fmt.Sprintf("worker-%d", hi), nil)
		if final := awaitJob(t, ts.URL, js.ID); final.State != jobDone || final.Degraded {
			t.Fatalf("dist job hi=%d: %+v", hi, final)
		}
		if err := <-workerErr; err != nil {
			t.Fatalf("worker for hi=%d: %v", hi, err)
		}
		_, result := get(t, ts.URL+"/v1/jobs/"+js.ID+"/result")
		if want := wantCheckBody(t, minCRNText, minEval, hi); !bytes.Equal(result, want) {
			t.Fatalf("hi=%d result differs from crncheck -json:\n%s\nwant:\n%s", hi, result, want)
		}
	}
}
