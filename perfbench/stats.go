package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"crncompose/internal/trace"
)

// tailLadder is the set of percentiles a timing may report as its tail.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// timing summarizes one timed quantity: its median and the highest
// percentile of tailLadder that has at least ten samples beyond it
// (TailPct is 0 when no percentile qualifies, i.e. fewer than 20 samples).
type timing struct {
	N       int
	Median  float64
	TailPct float64
	Tail    float64
}

func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	t := timing{N: len(s), Median: median(s)}
	for _, p := range tailLadder {
		// Nearest rank: the p-th percentile is the k-th smallest sample
		// with k = ceil(p/100·n); the samples beyond it are the n−k above.
		k := rank(p, len(s))
		if len(s)-k < 10 {
			break
		}
		t.TailPct, t.Tail = p, s[k-1]
	}
	return t
}

// String renders the summary as "median (pXX tail, n samples)".
func (t timing) String() string {
	if t.TailPct == 0 {
		return fmt.Sprintf("%.6g (no tail percentile, n=%d)", t.Median, t.N)
	}
	return fmt.Sprintf("%.6g (p%g %.6g, n=%d)", t.Median, t.TailPct, t.Tail, t.N)
}

// another reports whether a back-to-back loop that started at start, has
// made attempts operations and timed durations (seconds) of the successful
// ones should start one more within d: always a first one, then while half
// of a typical operation still fits. The half keeps the number of
// operations a run makes away from a knife edge when d is close to a
// multiple of the operation's duration.
func another(start time.Time, d time.Duration, attempts int, durations []float64) bool {
	if attempts == 0 {
		return true
	}
	half := 0.0
	if len(durations) > 0 {
		half = median(slices.Clone(durations)) / 2
	}
	return time.Since(start).Seconds()+half < d.Seconds()
}

// rank is the nearest-rank index (1-based) of the p-th percentile of n
// samples, ceil(p/100·n), with the float error of p/100·n rounded away so
// that 99.9% of 10000 is rank 9990, not 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median of xs (which it sorts in place); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(1, rank(p, len(xs)))-1]
}

// selfTimes returns, for every span keep accepts, its self time in
// nanoseconds: its duration minus the part of its interval covered by its
// direct children. Overlapping children are counted once, and a child that
// outlives its parent (an async job under the request that submitted it)
// only covers the part inside the parent.
func selfTimes(spans []trace.SpanData, keep func(trace.SpanData) bool) []float64 {
	children := map[string][]trace.SpanData{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, float64(s.End-s.Start-covered(s.Start, s.End, children[s.SpanID])))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, each
// clipped to [lo, hi].
func covered(lo, hi int64, kids []trace.SpanData) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
