package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"crncompose/internal/httpx"
	"crncompose/internal/metrics"
	"crncompose/internal/trace"
)

// newClient is the benchmark's HTTP client: the repo's retrying httpx
// client, recording its attempts on reg, over at most nproc connections.
func newClient(reg *metrics.Registry) *httpx.Client {
	n := runtime.NumCPU()
	return &httpx.Client{
		HTTP: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
		},
		Metrics: httpx.NewMetrics(reg),
	}
}

// counters maps each metric family in a Prometheus text page to the sum
// of its samples, summing over labels.
type counters map[string]float64

func parseCounters(page []byte) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// sub returns c − base for every family.
func (c counters) sub(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

func scrapeMetrics(cl *httpx.Client, base string) (counters, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	raw, err := cl.GetRaw(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseCounters(raw.Body)
}

// tracesDoc is the body of GET /debug/traces.
type tracesDoc struct {
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Traces   []struct {
		TraceID string           `json:"trace_id"`
		Spans   []trace.SpanData `json:"spans"`
	} `json:"traces"`
}

// fetchSpans reads every span in a debug listener's ring. It refuses to
// return spans when the ring dropped any, since per-layer sums over an
// incomplete set would be wrong.
func fetchSpans(cl *httpx.Client, debugBase string) ([]trace.SpanData, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var doc tracesDoc
	if err := cl.GetJSON(ctx, debugBase+"/debug/traces", &doc); err != nil {
		return nil, err
	}
	if doc.Dropped != 0 {
		return nil, fmt.Errorf("crnserve dropped %d of %d spans; refusing to report per-layer sums (raise -trace-cap)", doc.Dropped, doc.Recorded)
	}
	var spans []trace.SpanData
	for _, t := range doc.Traces {
		spans = append(spans, t.Spans...)
	}
	return spans, nil
}

// durationsMs lists the durations, in milliseconds, of the spans named name.
func durationsMs(spans []trace.SpanData, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// traceServerArgs are the crnserve flags of a traced run: a debug listener
// for /debug/traces and a span ring large enough that nothing is dropped.
var traceServerArgs = []string{"-debug-addr", "127.0.0.1:0", "-trace-cap", "1000000"}
