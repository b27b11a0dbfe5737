package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"crncompose/internal/parse"
	"crncompose/internal/trace"
)

// runCheckFig4a times `crncheck -json -f fig4a -lo 0 -hi 2` on the Lemma
// 6.2 Fig4a CRN at the CLI's default workers and budget, one process after
// another for the run's duration.
func runCheckFig4a(b *bench) error {
	crnPath := filepath.Join(b.work, "fig4a.crn")
	hi, want := fig4aHi, answer{Checked: 9, Inconclusive: 1}
	if b.tiny {
		hi, want = 1, answer{Checked: 4}
	}
	var g grid
	var ref []byte
	if _, err := b.repeatSetup(setupReps["check_fig4a"], func() (func(), error) {
		ctx, cancel := opCtx()
		defer cancel()
		text, _, err := runChild(ctx, nil, filepath.Join(b.bin, "crnsynth"), "-f", "fig4a", "-bound", "8", "-n", "2")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(crnPath, text, 0o644); err != nil {
			return nil, err
		}
		c, err := parse.Parse(string(text))
		if err != nil {
			return nil, err
		}
		g = grid{CRN: c, Func: "fig4a", Lo: 0, Hi: int64(hi), MaxConfigs: defaultMaxConfigs}
		body, res, err := reference(g)
		if err != nil {
			return nil, err
		}
		ref = body
		return func() {}, want.check(res)
	}); err != nil {
		return err
	}

	args := []string{"-json", "-crn", crnPath, "-f", "fig4a", "-lo", "0", "-hi", strconv.Itoa(hi)}
	// pass runs crncheck back to back for about d (at least once) and
	// returns per-run wall seconds, CPU seconds and peak RSS.
	pass := func(d time.Duration, extra ...string) (wall, cpu, rss []float64) {
		for start, n := time.Now(), 0; another(start, d, n, wall); n++ {
			b.attempted++
			ctx, cancel := opCtx()
			out, u, err := runChild(ctx, nil, filepath.Join(b.bin, "crncheck"), append(args, extra...)...)
			cancel()
			switch {
			case err != nil:
				b.opFailed("crncheck: %v", err)
				continue
			case !bytes.Equal(out, ref):
				b.opFailed("crncheck body differs from the reference:\n%s", out)
				continue
			}
			wall = append(wall, u.Wall.Seconds())
			cpu = append(cpu, u.CPU.Seconds())
			rss = append(rss, u.PeakMB)
		}
		return wall, cpu, rss
	}
	if !b.traced {
		wall, cpu, rss := pass(b.seconds)
		b.record("verdict_s", "s", wall)
		b.record("cpu_s", "s", cpu)
		// A crncheck process peaks at one of a few levels (most near 2.9
		// GB, many near 3.3 or 3.7 GB on 2 vCPUs), depending on which of
		// the grid's large explorations overlap in time, which the
		// scheduler decides. The median of a run's few processes jumps
		// between the levels from run to run; the lowest peak stays on the
		// common level unless every process of the run missed it.
		if len(rss) > 0 {
			b.record("peak_rss_mb", "MB", []float64{slices.Min(rss)})
			b.note("proc_peaks_mb", "MB", "%.6g (every process's peak RSS; peak_rss_mb is the lowest)", rss)
		}
		return nil
	}

	// Traced run: the same loop untraced and then with -trace, half the
	// duration each, for the tracing overhead; then the in-process layers.
	plain, _, _ := pass(b.seconds / 2)
	traceFile := filepath.Join(b.work, "crncheck-trace.json")
	traced, _, _ := pass(b.seconds/2, "-trace", traceFile)
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no successful crncheck run to compare traced against untraced")
	}
	full, err := ringFull(traceFile)
	if err != nil {
		return err
	}
	if full {
		return fmt.Errorf("crncheck's span ring may have overflowed; refusing to report per-layer sums")
	}
	b.layers["trace.overhead"] = median(traced)/median(plain) - 1
	b.layers["trace.spans_dropped"] = 0
	if err := b.measureEngine([]grid{g}, 0, [][]byte{ref}); err != nil {
		return err
	}
	b.notCrossed("serve.", "httpx.", "dist.", "loadgen.", "reach.rect_loop_s", "reach.unmarshal_us")
	return nil
}

// ringFull reports whether crncheck's span ring (trace.DefaultCap spans;
// crncheck has no flag to raise it) may have overflowed: the -trace file
// holds every span still in the ring, so fewer than the capacity means
// none was evicted.
func ringFull(path string) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return false, fmt.Errorf("reading %s: %w", path, err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			spans++
		}
	}
	return spans >= trace.DefaultCap, nil
}
