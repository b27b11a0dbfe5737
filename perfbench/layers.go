package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"crncompose/internal/crn"
	"crncompose/internal/dist"
	"crncompose/internal/parse"
	"crncompose/internal/reach"
)

// measureEngine times the parse, crn and reach layers in-process on the
// workload's own grids and result bodies. workers is the engine budget the
// programs under test run with (0 = all CPUs).
func (b *bench) measureEngine(grids []grid, workers int, bodies [][]byte) error {
	var texts []string
	for _, g := range grids {
		texts = append(texts, g.CRN.String())
	}
	b.layers["parse.canon_us"] = canonMicros(texts)

	var e engineSums
	for _, g := range grids {
		if err := e.add(g, workers); err != nil {
			return err
		}
	}
	configs := float64(e.configs)
	b.layers["reach.configs"] = configs
	b.layers["reach.edges"] = float64(e.edges)
	b.layers["reach.explore_s"] = e.explore.Seconds()
	b.layers["reach.explore_seq_s"] = e.exploreSeq.Seconds()
	b.layers["crn.expand_s"] = e.expand.Seconds()
	b.layers["reach.nonexpand_s"] = (e.exploreSeq - e.expand).Seconds()
	b.layers["reach.stable_s"] = e.stable.Seconds()
	b.layers["reach.live_bytes_per_config"] = float64(e.liveBytes) / configs
	b.layers["reach.alloc_bytes_per_config"] = float64(e.allocBytes) / configs
	b.layers["reach.gc_cycles"] = float64(e.gcCycles)

	var marshal []float64
	for _, body := range bodies {
		res, err := reach.UnmarshalGridResult(body, grids[0].CRN)
		if err != nil {
			return err
		}
		marshal = append(marshal, perCall(func() { _, _ = reach.MarshalGridResultIndent(res) }).Seconds()*1e3)
	}
	b.layers["reach.marshal_ms"] = median(marshal)
	return nil
}

// engineSums accumulates the engine layer measurements over every input
// of every grid.
type engineSums struct {
	configs, edges        int64
	explore, exploreSeq   time.Duration
	expand, stable        time.Duration
	liveBytes, allocBytes int64
	gcCycles              int64
}

// add explores every input of g twice: at the programs' worker budget,
// under MemStats, and at WithWorkers(1), whose graph is then re-scanned
// for the expand floor and passed to the stable-set computation.
func (e *engineSums) add(g grid, workers int) error {
	lo, hi := g.bounds()
	x := append([]int64(nil), lo...)
	for {
		root, err := g.CRN.InitialConfig(x)
		if err != nil {
			return fmt.Errorf("input %v: %w", x, err)
		}
		opts := []reach.Option{reach.WithMaxConfigs(g.MaxConfigs)}

		var before, during, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		gr := reach.Explore(root, append(opts, reach.WithWorkers(workers))...)
		e.explore += time.Since(start)
		runtime.ReadMemStats(&during)
		runtime.GC()
		runtime.ReadMemStats(&after)
		n := gr.NumConfigs()
		e.configs += int64(n)
		for id := int32(0); int(id) < n; id++ {
			e.edges += int64(len(gr.Succ(id)))
		}
		runtime.KeepAlive(gr) // the graph must be live in the after-GC heap
		e.liveBytes += int64(after.HeapAlloc) - int64(before.HeapAlloc)
		e.allocBytes += int64(during.TotalAlloc - before.TotalAlloc)
		e.gcCycles += int64(during.NumGC - before.NumGC)
		gr = nil

		start = time.Now()
		seq := reach.Explore(root, append(opts, reach.WithWorkers(1))...)
		e.exploreSeq += time.Since(start)
		e.expand += expandFloor(g.CRN, seq)
		start = time.Now()
		seq.StableIDs()
		e.stable += time.Since(start)

		if !nextInput(x, lo, hi) {
			return nil
		}
	}
}

// nextInput advances x through the grid in lexicographic order, reporting
// false after the last input.
func nextInput(x, lo, hi []int64) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i]++; x[i] <= hi[i] {
			return true
		}
		x[i] = lo[i]
	}
	return false
}

// expandFloor re-expands every configuration of g: each reaction's
// applicability test and, where it applies, the successor row. This is
// the work exploration cannot avoid; everything else it does (interning,
// renumbering, bookkeeping) is the rest of explore_seq_s.
func expandFloor(c *crn.CRN, g *reach.Graph) time.Duration {
	n, nr := g.NumConfigs(), c.NumReactions()
	scratch := make([]int64, c.NumSpecies())
	start := time.Now()
	for id := int32(0); int(id) < n; id++ {
		row := g.Counts(id)
		for ri := 0; ri < nr; ri++ {
			if c.ApplicableAt(row, ri) {
				c.ApplyInto(scratch, row, ri)
			}
		}
	}
	return time.Since(start)
}

// canonMicros is the median, over texts, of the time to canonicalize one
// CRN text as crnserve does for every request (parse, then render).
func canonMicros(texts []string) float64 {
	var us []float64
	for _, t := range texts {
		us = append(us, perCall(func() {
			c, err := parse.Parse(t)
			if err == nil {
				_ = c.String()
			}
		}).Seconds()*1e6)
	}
	return median(us)
}

// perCall is the median time of one call of f over batches that each run
// for at least a millisecond, across 20 batches.
func perCall(f func()) time.Duration {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for k := 0; k < 20; k++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per))
}

// measureRectLoop times the bare in-process floor of a dist job: CheckRect
// over dist.SplitGrid's rectangles in grid order at the workers' budget,
// and decoding each rectangle's result body as the coordinator does.
func (b *bench) measureRectLoop(g grid, shards, workers int) error {
	lo, hi := g.bounds()
	f := libFunc(g.Func)
	var bodies [][]byte
	start := time.Now()
	for _, r := range dist.SplitGrid(lo, hi, shards) {
		res, err := reach.CheckRect(g.CRN, f, r.Lo, r.Hi,
			reach.WithMaxConfigs(g.MaxConfigs), reach.WithWorkers(workers))
		if err != nil {
			return err
		}
		body, err := reach.MarshalGridResultIndent(res)
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	b.layers["reach.rect_loop_s"] = time.Since(start).Seconds()
	var us []float64
	for _, body := range bodies {
		us = append(us, perCall(func() { _, _ = reach.UnmarshalGridResult(body, g.CRN) }).Seconds()*1e6)
	}
	b.layers["reach.unmarshal_us"] = median(us)
	return nil
}

// notCrossed reports 0 for every per-layer metric with one of the given
// prefixes: layers the workload does not cross do no work in it.
func (b *bench) notCrossed(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				b.layers[m.Name] = 0
			}
		}
	}
}
