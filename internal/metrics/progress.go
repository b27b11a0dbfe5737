package metrics

import "crncompose/internal/progress"

// ProgressReporter adapts a progress.Event stream into per-stage
// metric families, so every engine's throughput shows up on /metrics
// without touching engine code:
//
//	crn_progress_events_total{stage}  counter — events posted
//	crn_progress_done{stage}          gauge   — latest Done
//	crn_progress_total{stage}         gauge   — latest Total (0 = unknown)
//
// The stage label is the engine's documented stage string
// ("reach.grid", "reach.explore", "sim", "classify.regions",
// "synth.modules"). Safe for concurrent use; engines post at coarse
// deterministic strides, so the per-event map lookup is cheap
// relative to the work between events.
type ProgressReporter struct {
	events *CounterVec
	done   *GaugeVec
	total  *GaugeVec
}

// NewProgressReporter registers the progress families on r and
// returns the adapter.
func NewProgressReporter(r *Registry) *ProgressReporter {
	return &ProgressReporter{
		events: r.CounterVec("crn_progress_events_total",
			"Progress events posted, by engine stage.", "stage"),
		done: r.GaugeVec("crn_progress_done",
			"Latest per-stage progress count (units are stage-specific: grid inputs, frontier heads, sim steps, regions, modules).", "stage"),
		total: r.GaugeVec("crn_progress_total",
			"Latest known per-stage unit total (0 when the total is unknown up front).", "stage"),
	}
}

// Report implements progress.Reporter.
func (p *ProgressReporter) Report(e progress.Event) {
	p.events.With(e.Stage).Inc()
	p.done.With(e.Stage).Set(e.Done)
	p.total.With(e.Stage).Set(e.Total)
}

// SpanHook returns a trace.Tracer.SetOnSpan hook counting on r the spans
// recorded into the ring (crn_trace_spans_total) and the recordings that
// evicted an older one (crn_trace_spans_dropped_total). A tracer has one
// hook, so its owner installs it.
func SpanHook(r *Registry) func(dropped bool) {
	spans := r.Counter("crn_trace_spans_total",
		"Spans recorded into the trace ring buffer.")
	droppedC := r.Counter("crn_trace_spans_dropped_total",
		"Span recordings that evicted an older span (ring overflow).")
	return func(dropped bool) {
		spans.Inc()
		if dropped {
			droppedC.Inc()
		}
	}
}
