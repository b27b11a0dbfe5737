package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/reach"
)

// hookTransport calls itself with every outgoing request, then sends it.
type hookTransport func(*http.Request)

func (h hookTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h(r)
	return http.DefaultTransport.RoundTrip(r)
}

// status snapshots the lease table for assertions.
func (co *Coordinator) status() map[string]any {
	done, _ := co.Progress()
	co.mu.Lock()
	defer co.mu.Unlock()
	return map[string]any{"done": done, "finished": co.finished}
}

func startTestCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Shutdown(context.Background()) })
	return co
}

// TestDrainAwaitsJoinedWorker: worker B joins but holds back its first
// lease until A has finished the whole job and Close is draining. Close
// must keep the listener up until B has been answered Done — B counts as
// seen from its join — so B exits nil instead of retrying a closed port.
func TestDrainAwaitsJoinedWorker(t *testing.T) {
	co := startTestCoordinator(t, CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{1, 1},
		Shards: 2, LeaseTTL: 5 * time.Second,
	})
	addr := co.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	joined := make(chan struct{})
	closing := make(chan struct{})
	var held atomic.Bool
	b := &Worker{
		Coordinator: addr, Name: "B", Workers: 1, Resolve: testResolver,
		Grace: time.Second, // a B left outside fails fast
		Client: &http.Client{Transport: hookTransport(func(r *http.Request) {
			if r.URL.Path == "/lease" && held.CompareAndSwap(false, true) {
				close(joined)
				_, _ = co.Wait(context.Background())
				<-closing
				time.Sleep(100 * time.Millisecond) // Close is parked in its drain by now
			}
		})},
	}
	bErr := make(chan error, 1)
	go func() { bErr <- b.Run(ctx) }()
	<-joined

	a := &Worker{Coordinator: addr, Name: "A", Workers: 1, Resolve: testResolver}
	if err := a.Run(ctx); err != nil {
		t.Fatalf("worker A: %v", err)
	}
	merged, err := co.Wait(ctx)
	assertSameAsLocal(t, merged, err, minCRN(), minFunc, []int64{0, 0}, []int64{1, 1})
	time.Sleep(joinWindow) // past it, only B's join keeps the listener up

	start := time.Now()
	close(closing)
	co.Close()
	if took := time.Since(start); took < 100*time.Millisecond || took >= time.Second {
		t.Errorf("Close took %v; want it to wait for B's lease, well inside the 1s bound", took)
	}
	if err := <-bErr; err != nil {
		t.Fatalf("joined-but-never-leased worker: %v", err)
	}
}

// TestFinalResultAckEndsWorker: the ack to the result that finishes the
// job says Done, so a lone worker exits on it — one /lease per rectangle,
// none after the last result.
func TestFinalResultAckEndsWorker(t *testing.T) {
	co := startTestCoordinator(t, CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{2, 2},
		Shards: 3, LeaseTTL: 5 * time.Second,
	})
	var leases atomic.Int64
	w := &Worker{
		Coordinator: co.Addr().String(), Name: "W", Workers: 1, Resolve: testResolver,
		Client: &http.Client{Transport: hookTransport(func(r *http.Request) {
			if r.URL.Path == "/lease" {
				leases.Add(1)
			}
		})},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if got, want := leases.Load(), int64(len(co.Rects())); got != want {
		t.Fatalf("worker sent %d /lease requests for %d rectangles; the final ack should have ended it", got, want)
	}
}

// TestResultRejectsOutOfRangeWitness: a worker's witness that names a
// reaction the CRN does not have is a protocol error — POST /result answers
// 400 and the rectangle stays unrecorded — rather than a result that
// panics the coordinator when it prints the witness.
func TestResultRejectsOutOfRangeWitness(t *testing.T) {
	co := startTestCoordinator(t, CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{1, 1},
		Shards: 1, LeaseTTL: 5 * time.Second,
	})
	if l := co.lease("w"); l.Rect == nil {
		t.Fatalf("lease: %+v", l)
	}
	post := func(req ResultRequest) int {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+co.Addr().String()+"/result", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	witness, err := json.Marshal(map[string]any{
		"start":     make([]int64, minCRN().NumSpecies()),
		"reactions": []int{len(minCRN().Reactions)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := json.RawMessage(`{"checked":0,"explored":1,"failure":{"input":[0,0],"want":0,` +
		`"verdict":{"ok":false,"err":"x","witness":` + string(witness) + `,"explored":1}}}`)
	if code := post(ResultRequest{Worker: "w", RectID: 0, Result: bad}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range witness answered %d, want 400", code)
	}
	if st := co.status(); st["done"] != 0 {
		t.Fatalf("rejected result was recorded: %v", st)
	}
	if code := post(localRectResult(t, minCRN(), minFunc, co.Rects()[0], "w")); code != http.StatusOK {
		t.Fatalf("valid result answered %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	merged, err := co.Wait(ctx)
	assertSameAsLocal(t, merged, err, minCRN(), minFunc, []int64{0, 0}, []int64{1, 1})
}

// TestWorkInProcess: the in-process worker, with no listener, merges to
// the bytes of a single-process CheckGrid — through the count-summing and
// the stop-at-first-failure paths — and a canceled context stops it with
// the rectangle in hand unrecorded.
func TestWorkInProcess(t *testing.T) {
	lo, hi := []int64{0, 0}, []int64{3, 3}
	for name, newCRN := range map[string]func() *crn.CRN{"verified": minCRN, "refuted": sumCRN} {
		t.Run(name, func(t *testing.T) {
			c := newCRN()
			co, err := NewCoordinator(CoordinatorConfig{CRN: c, Func: "min", Lo: lo, Hi: hi, Shards: 5})
			if err != nil {
				t.Fatal(err)
			}
			err = co.Work(context.Background(), "local", func(ctx context.Context, r Rect) (reach.GridResult, error) {
				return reach.CheckRectCtx(ctx, c, minFunc, r.Lo, r.Hi)
			})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := co.Wait(context.Background())
			assertSameAsLocal(t, merged, err, c, minFunc, lo, hi)
		})
	}

	co, err := NewCoordinator(CoordinatorConfig{CRN: minCRN(), Func: "min", Lo: lo, Hi: hi, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	err = co.Work(ctx, "local", func(ctx context.Context, r Rect) (reach.GridResult, error) {
		if r.ID == 2 {
			cancel()
		}
		return reach.CheckRectCtx(ctx, minCRN(), minFunc, r.Lo, r.Hi)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Work returned %v", err)
	}
	if done, _ := co.Progress(); done != 2 {
		t.Fatalf("canceled Work recorded %d rectangles, want the 2 before the cancel", done)
	}
}

// TestEndJoins: once the host ends joins, a finished coordinator refuses a
// worker it has not seen with a retryable 503 — so a worker started for
// the next job on the address waits for that job — while one it has seen
// still joins, and Close no longer holds the listener for the join window.
func TestEndJoins(t *testing.T) {
	co := startTestCoordinator(t, CoordinatorConfig{
		CRN: minCRN(), Func: "min",
		Lo: []int64{0, 0}, Hi: []int64{1, 1},
		Shards: 2, LeaseTTL: 5 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	a := &Worker{Coordinator: co.Addr().String(), Name: "A", Workers: 1, Resolve: testResolver}
	if err := a.Run(ctx); err != nil {
		t.Fatalf("worker A: %v", err)
	}
	co.EndJoins()
	join := func(worker string) int {
		t.Helper()
		resp, err := http.Get("http://" + co.Addr().String() + "/job?worker=" + worker)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := join("A"); code != http.StatusOK {
		t.Errorf("seen worker's join answered %d, want 200", code)
	}
	if code := join("late"); code != http.StatusServiceUnavailable {
		t.Errorf("unseen worker's join answered %d, want 503", code)
	}
	start := time.Now()
	co.Close()
	if took := time.Since(start); took >= joinWindow/2 {
		t.Errorf("Close took %v after EndJoins; want no join window", took)
	}
}
