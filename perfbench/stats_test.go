package main

import (
	"encoding/json"
	"os"
	"testing"

	"crncompose/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestSummarizeTail pins the tail rule: the highest percentile with at
// least ten samples beyond it, and none below 100 samples.
func TestSummarizeTail(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct     float64
		tail    float64
		median  float64
		comment string
	}{
		{n: 1, median: 1, comment: "one sample"},
		{n: 99, median: 50, comment: "p90 would have 9 beyond"},
		{n: 100, pct: 90, tail: 90, median: 50.5, comment: "p90 has exactly 10 beyond"},
		{n: 999, pct: 90, tail: 900, median: 500, comment: "p99 would have 9 beyond"},
		{n: 1000, pct: 99, tail: 990, median: 500.5, comment: "p99 has exactly 10 beyond"},
		{n: 10000, pct: 99.9, tail: 9990, median: 5000.5, comment: "p99.9 has exactly 10 beyond"},
	} {
		got := summarize(seq(c.n))
		want := timing{N: c.n, Median: c.median, TailPct: c.pct, Tail: c.tail}
		if got != want {
			t.Errorf("%s: summarize(1..%d) = %+v, want %+v", c.comment, c.n, got, want)
		}
	}
	if got := summarize(nil); got != (timing{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

func span(id, parent string, start, end int64) trace.SpanData {
	return trace.SpanData{SpanID: id, Parent: parent, Name: id, Start: start, End: end}
}

// TestSelfTimes checks that overlapping children are subtracted once,
// that a child outliving its parent only counts inside it, and that
// grandchildren and other spans' children do not count.
func TestSelfTimes(t *testing.T) {
	spans := []trace.SpanData{
		span("root", "", 0, 100),
		span("a", "root", 10, 30),
		span("b", "root", 20, 50),  // overlaps a: [10,50] is covered once
		span("c", "root", 90, 120), // outlives root: only [90,100] counts
		span("g", "a", 12, 14),     // grandchild: inside a already
		span("other", "", 0, 10),
		span("o1", "other", 2, 4),
	}
	keep := func(s trace.SpanData) bool { return s.Name == "root" || s.Name == "other" || s.Name == "a" }
	got := selfTimes(spans, keep)
	want := []float64{100 - 40 - 10, 20 - 2, 10 - 2}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("selfTimes = %v, want %v", got, want)
			break
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the run reports
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q does not match the benchmark's", w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		name      string
		json, run []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.run) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the run reports %d", c.name, len(c.json), len(c.run))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.run[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, the run reports %+v", c.name, i, c.json[i], c.run[i])
			}
		}
	}
}
