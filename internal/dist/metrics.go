package dist

import "crncompose/internal/metrics"

// distMetrics bundles the coordinator's observability families,
// rendered by GET /metrics on the coordinator's own listener:
//
//	crn_dist_rects{status}                   gauge     — lease table by
//	    status (pending | leased | done)
//	crn_dist_leases_granted_total            counter   — every grant,
//	    re-grants of reclaimed rectangles included
//	crn_dist_lease_expired_total             counter   — leases reclaimed
//	    after their holder went silent past the TTL
//	crn_dist_renew_failures_total            counter   — renew requests
//	    answered "lease lost" (the worker was fenced out)
//	crn_dist_rect_completion_seconds         histogram — lease grant to
//	    accepted result, per rectangle
//
// All durations come from the coordinator's injected clock (co.now),
// the same seam the lease table runs on, so lease tests with a fake
// clock observe deterministic histogram buckets.
type distMetrics struct {
	reg *metrics.Registry

	rectsPending *metrics.Gauge
	rectsLeased  *metrics.Gauge
	rectsDone    *metrics.Gauge

	leasesGranted *metrics.Counter
	leaseExpired  *metrics.Counter
	renewFailures *metrics.Counter

	rectSeconds *metrics.Histogram
}

// rectBuckets widens the default latency buckets to rectangle scale:
// a rectangle is a whole sub-grid exploration, so the tail runs to
// minutes, not milliseconds.
var rectBuckets = []float64{.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

func newDistMetrics(reg *metrics.Registry) *distMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &distMetrics{reg: reg}
	rects := reg.GaugeVec("crn_dist_rects",
		"Coordinator lease table by rectangle status.", "status")
	m.rectsPending = rects.With("pending")
	m.rectsLeased = rects.With("leased")
	m.rectsDone = rects.With("done")
	m.leasesGranted = reg.Counter("crn_dist_leases_granted_total",
		"Rectangle leases granted, re-grants after reclaim included.")
	m.leaseExpired = reg.Counter("crn_dist_lease_expired_total",
		"Leases reclaimed because the holder went silent past the TTL.")
	m.renewFailures = reg.Counter("crn_dist_renew_failures_total",
		"Renew requests answered with a lost lease (worker fenced out).")
	m.rectSeconds = reg.Histogram("crn_dist_rect_completion_seconds",
		"Time from lease grant to accepted result, per rectangle.", rectBuckets)
	return m
}

// syncRectsLocked recomputes the lease-table gauges and Progress's count
// from the states slice. Caller holds co.mu. O(shards) per transition, and
// shards is small by design (rectangles are the lease granularity, not the
// work granularity).
func (co *Coordinator) syncRectsLocked() {
	var pending, leased, done int64
	for id := range co.states {
		switch co.states[id].status {
		case rectPending:
			pending++
		case rectLeased:
			leased++
		case rectDone:
			done++
		}
	}
	co.met.rectsPending.Set(pending)
	co.met.rectsLeased.Set(leased)
	co.met.rectsDone.Set(done)
	co.doneRects = int(done)
}
