// Command perfbench is the repository's time-to-verdict benchmark. It
// builds crncheck, crnserve and crnsynth from the checkout, drives them as
// child processes under one seeded workload, checks every verdict body
// byte for byte against a reference computed in-process by the sequential
// engine, and prints the metrics named in BENCHMARK.json as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload serve_mix --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// is a separate run that reports the per-layer metrics: it times calls
// into the parse, crn and reach packages in-process, and reads the spans
// and counters crnserve already exports at /debug/traces and /metrics.
// See README.md for what each metric measures and which end-to-end number
// it should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// declares; the final JSON line carries exactly one of the two lists.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"parse.canon_us", "us"},
	{"crn.expand_s", "s"},
	{"reach.configs", "count"},
	{"reach.edges", "count"},
	{"reach.explore_s", "s"},
	{"reach.explore_seq_s", "s"},
	{"reach.nonexpand_s", "s"},
	{"reach.stable_s", "s"},
	{"reach.live_bytes_per_config", "B/config"},
	{"reach.alloc_bytes_per_config", "B/config"},
	{"reach.gc_cycles", "count"},
	{"reach.marshal_ms", "ms"},
	{"reach.rect_loop_s", "s"},
	{"reach.unmarshal_us", "us"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.cache_dedups", "count"},
	{"serve.request_self_ms", "ms"},
	{"serve.cache_lookup_us", "us"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.job_self_ms", "ms"},
	{"httpx.attempts", "count"},
	{"httpx.retries", "count"},
	{"dist.leases_granted", "count"},
	{"dist.useful_lease_ratio", "ratio"},
	{"dist.lease_expired", "count"},
	{"dist.rect_ms", "ms"},
	{"dist.handoff_ms", "ms"},
	{"dist.worker_idle_ms", "ms"},
	{"dist.merge_ms", "ms"},
	{"dist.tail_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.spans_dropped", "count"},
	{"loadgen.lag_p99_ms", "ms"},
}

type metricDef struct{ Name, Unit string }

// bench is one run of one workload: where the checkout is, the run's
// arguments, and what it has measured so far.
type bench struct {
	root, bin, work string
	seed            uint64
	seconds         time.Duration
	traced          bool
	// tiny shrinks every grid so a whole run takes seconds (tests only).
	tiny bool
	out  io.Writer

	attempted, failed int
	// timings holds the end-to-end quantities the run measured; the
	// BENCHMARK.json metrics report their medians. lines is the
	// human-readable table printed before the result line.
	timings map[string]timing
	lines   []string
	layers  map[string]float64
}

// record summarizes the samples of one end-to-end metric.
func (b *bench) record(name, unit string, samples []float64) {
	t := summarize(samples)
	b.timings[name] = t
	b.note(name, unit, "%s", t)
}

// note adds one line to the human-readable table.
func (b *bench) note(name, unit, format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf("%-14s %-6s ", name, unit)+fmt.Sprintf(format, args...))
}

// opFailed counts one failed operation and says why on stderr.
func (b *bench) opFailed(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fset.String("root", ".", "checkout root holding go.mod and cmd/")
	name := fset.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fset.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fset.Int("seconds", 20, "how long the measured phase runs")
	traced := fset.Int("trace", 0, "0 reports end-to-end metrics; 1 is the traced run reporting per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	b, err := newBench(*root, w.name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		return 2, err
	}
	return b.run(w)
}

func newBench(root, workload string, seed uint64, seconds time.Duration, traced bool, out io.Writer) (*bench, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(abs, "cmd", "crnserve")); err != nil {
		return nil, fmt.Errorf("%s is not a crncompose checkout: %w", abs, err)
	}
	b := &bench{
		root:    abs,
		bin:     filepath.Join(abs, ".bench_build", "bin"),
		work:    filepath.Join(abs, ".bench_build", "work", workload),
		seed:    seed,
		seconds: seconds,
		traced:  traced,
		out:     out,
		timings: map[string]timing{},
		layers:  map[string]float64{},
	}
	return b, os.MkdirAll(b.work, 0o755)
}

// run measures workload w and reports; the exit code is 0 only when every
// operation succeeded.
func (b *bench) run(w *workload) (int, error) {
	stamp, err := json.Marshal(b.stamp(w))
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(b.out, "stamp %s\n", stamp)
	if err := b.build(); err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := w.run(b); err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := b.report(w); err != nil {
		return 1, err
	}
	if b.failed > 0 {
		return 1, fmt.Errorf("%s: %d of %d operations failed", w.name, b.failed, b.attempted)
	}
	return 0, nil
}

// report prints the human-readable table and then the result line.
func (b *bench) report(w *workload) error {
	b.note("fail_share", "ratio", "%.6g (%d of %d operations)",
		float64(b.failed)/float64(max(1, b.attempted)), b.failed, b.attempted)
	for _, l := range b.lines {
		fmt.Fprintf(b.out, "%-12s %s\n", w.name, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if b.traced {
		for _, m := range perLayer {
			v, ok := b.layers[m.Name]
			if !ok {
				return fmt.Errorf("%s: traced run did not measure %s", w.name, m.Name)
			}
			fmt.Fprintf(b.out, "%-12s %-30s %-8s %.6g\n", w.name, m.Name, m.Unit, v)
			metrics[m.Name] = value{v, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			t, ok := b.timings[m.Name]
			if !ok || t.N == 0 {
				return fmt.Errorf("%s: no samples of %s", w.name, m.Name)
			}
			metrics[m.Name] = value{t.Median, m.Unit}
		}
	}
	if b.attempted == 0 {
		return fmt.Errorf("%s: no operation was attempted", w.name)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "%s\n", line)
	return nil
}

// runStamp records the conditions a result was measured under.
type runStamp struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	MemTotal   string  `json:"mem_total"`
	CgroupMem  string  `json:"cgroup_memory_max"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	SourceHash string  `json:"source_sha256"`
	LoadAvg    string  `json:"loadavg_at_start"`
}

func (b *bench) stamp(w *workload) runStamp {
	return runStamp{
		Workload:   w.name,
		Why:        w.why,
		Seed:       b.seed,
		Seconds:    b.seconds.Seconds(),
		Traced:     b.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MemTotal:   meminfoTotal(),
		CgroupMem:  readTrim("/sys/fs/cgroup/memory.max"),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(b.root),
		SourceHash: sourceHash(b.root),
		LoadAvg:    readTrim("/proc/loadavg"),
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(b))
}

func meminfoTotal() string {
	for _, line := range strings.Split(readTrim("/proc/meminfo"), "\n") {
		if v, ok := strings.CutPrefix(line, "MemTotal:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unavailable"
}

// gitCommit is the checkout's HEAD, or "unavailable" outside a git
// repository (source_sha256 still identifies the code measured).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file of the checkout
// outside .bench_build, in path order.
func sourceHash(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
