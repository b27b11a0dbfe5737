package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"time"

	"crncompose/internal/benchcrn"
	"crncompose/internal/core"
	"crncompose/internal/crn"
	"crncompose/internal/reach"
	"crncompose/internal/vec"
)

// workload is one set of inputs the benchmark runs, with the reason it
// was chosen.
type workload struct {
	name, why string
	run       func(b *bench) error
}

var workloads = map[string]*workload{
	"check_fig4a": {
		name: "check_fig4a",
		why:  "crncheck -json on the Lemma 6.2 Fig4a CRN over [0,2]^2: a few huge explorations, so reach and crn do nearly all the work and serve, httpx and dist none",
		run:  runCheckFig4a,
	},
	"serve_mix": {
		name: "serve_mix",
		why:  "open-loop Zipf mix of /v1/check hits, misses and evictions plus fresh /v1/jobs on a cold crnserve; its rate, skew, job share and cost-ordered popularity are assumed for steadiness, not measured",
		run:  runServeMix,
	},
	"dist_job": {
		name: "dist_job",
		why:  "one 256-input /v1/jobs grid leased as 64 small rectangles to 2 crncheck -join workers: lease round trips, merge and job hand-off carry a large share",
		run:  runDistJob,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// answer is the verdict a workload's grid is known to have; every body the
// benchmark receives must match it as well as the reference bytes.
type answer struct {
	Checked      int
	Inconclusive int
}

func (a answer) check(res reach.GridResult) error {
	if res.Failure != nil || res.Checked != a.Checked || res.Inconclusive != a.Inconclusive {
		return fmt.Errorf("verdict %v, known answer: failure null, checked %d, inconclusive %d",
			res, a.Checked, a.Inconclusive)
	}
	return nil
}

// Workload parameters. The engine budgets are the CLI's and the server's
// defaults (-maxconfigs 2^20, all CPUs), so the benchmark measures what a
// user running the commands without flags gets.
const (
	defaultMaxConfigs = 1 << 20

	// check_fig4a: crnsynth -f fig4a -bound 8 -n 2, checked on [0,2]^2.
	// x=(2,2) stops at the 2^20 budget, so one input is inconclusive.
	fig4aHi = 2

	// serve_mix server limits: the LRU holds fewer entries than the
	// population has, so hits, misses, dedups and evictions all happen; a
	// grid above serveSyncGrid points (12x12) is an async job.
	serveCacheMax = 40
	serveSyncGrid = 144
	serveMaxJobs  = 1
	// Open-loop load: Poisson arrivals at serveRate per second, one request
	// in serveJobEvery a /v1/jobs job, the others Zipf(serveZipfS) over the
	// population. The job slot would saturate near 200 requests/s; at twice
	// this rate queueing behind misses stretched the sync p99 to most of a
	// second and every latency swung more from run to run.
	serveRate     = 40.0
	serveJobEvery = 20
	serveZipfS    = 1.3
	// jobPoll is how often the client polls a pending job's status.
	jobPoll = 20 * time.Millisecond
	// rssWindow is the window serve_mix reads crnserve's peak RSS over; the
	// metric is the median window peak. A long-lived server's peak over the
	// whole run is set by whichever few large explorations happened to
	// overlap, which varies from run to run far more than any change to
	// the program would.
	rssWindow = time.Second
	// serveLagBound is the generator lateness (p99) beyond which a run is
	// invalid: request latencies are timed from their due time, so a late
	// generator would be charged to the server.
	serveLagBound = 50 * time.Millisecond

	// dist_job: the branchy max grid [0,15]^2 (256 inputs, 1,100,784
	// configs) as one async job split into distShards rectangles, leased
	// to distWorkers single-threaded worker processes.
	distHi      = 15
	distShards  = 64
	distWorkers = 2
)

// setupReps is how many times a run sets its workload up to report the
// median set-up time. check_fig4a's sequential reference alone takes 12-16
// s on 2 vCPUs, so it sets up once: a second sample would take the run to
// about a minute.
var setupReps = map[string]int{"check_fig4a": 1, "serve_mix": 5, "dist_job": 5}

// libFunc evaluates the named library function, as crncheck -f does.
func libFunc(name string) reach.Func {
	f := core.Library()[name]
	return func(x []int64) int64 { return f.Eval(vec.New(x...)) }
}

// grid is one check the workload asks for: a CRN, the function it should
// compute, the square grid [Lo,Hi]^d and the exploration budget.
type grid struct {
	CRN        *crn.CRN
	Func       string
	Lo, Hi     int64
	MaxConfigs int
}

func (g grid) bounds() ([]int64, []int64) {
	d := g.CRN.Dim()
	lo, hi := make([]int64, d), make([]int64, d)
	for i := range lo {
		lo[i], hi[i] = g.Lo, g.Hi
	}
	return lo, hi
}

// Text is the CRN text a request for g carries.
func (g grid) Text() string { return g.CRN.String() }

// reference checks g in-process on the sequential engine and returns the
// canonical body every crncheck -json, /v1/check and job result for g
// must reproduce byte for byte.
func reference(g grid) ([]byte, reach.GridResult, error) {
	lo, hi := g.bounds()
	res, err := reach.CheckGrid(g.CRN, libFunc(g.Func), lo, hi,
		reach.WithWorkers(1), reach.WithMaxConfigs(g.MaxConfigs))
	if err != nil {
		return nil, res, err
	}
	body, err := reach.MarshalGridResultIndent(res)
	return body, res, err
}

// entry is one distinct request of the serve_mix population.
type entry struct {
	grid
	Name string
}

// request is the JSON body asking for g under budget maxConfigs.
func (g grid) request(maxConfigs int) map[string]any {
	return map[string]any{"crn": g.Text(), "func": g.Func, "lo": g.Lo, "hi": g.Hi, "maxconfigs": maxConfigs}
}

// population is serve_mix's fixed set of distinct /v1/check requests,
// hottest first: the branchy and max grids below, each under two budgets
// (2^20 and 2^19; no input comes near either), so there are distinct
// cache keys of equal cost. The repository has no usage data for crnserve,
// so this order is an assumption, chosen for steadiness: the branchy
// grids come first and each CRN's grids are ranked by cost, so the most
// expensive ones (branchy [0,11]^2, about
// 0.2 s) are also the most popular. They miss once per run and are
// replayed after that, while the cheaper tail (down to about 0.1 ms) keeps
// missing as the LRU evicts it, which keeps a run's engine work nearly the
// same from seed to seed. Ranked by a cost-independent shuffle instead,
// expensive entries miss a seed-dependent number of times, and crnserve's
// CPU spread by about 20% over five seeds on 2 vCPUs.
func population() []entry {
	var out []entry
	for _, c := range []struct {
		name string
		crn  *crn.CRN
	}{{"branchy", benchcrn.Branchy()}, {"max", benchcrn.Max()}} {
		for _, lh := range [][2]int64{{0, 11}, {1, 11}, {2, 11}, {2, 9}, {1, 8}, {0, 7}, {2, 7}, {1, 6}, {2, 5}, {0, 5}, {1, 4}, {0, 3}} {
			for _, mc := range []int{defaultMaxConfigs, defaultMaxConfigs / 2} {
				out = append(out, entry{
					grid: grid{CRN: c.crn, Func: "max", Lo: lh[0], Hi: lh[1], MaxConfigs: mc},
					Name: fmt.Sprintf("%s[%d,%d]@%d", c.name, lh[0], lh[1], mc),
				})
			}
		}
	}
	return out
}

// jobGrid is what every serve_mix job checks: the max CRN on [0,13]^2
// (196 points, above serveSyncGrid, about 70 ms). Each job gets a budget
// of its own (jobBudget), so each is a fresh job that runs, never a replay.
func jobGrid() entry {
	return entry{grid: grid{CRN: benchcrn.Max(), Func: "max", Lo: 0, Hi: 12, MaxConfigs: defaultMaxConfigs}, Name: "max[0,12] job"}
}

// jobBudget is the budget of the schedule's i-th request when it is a job.
func jobBudget(i int) int { return defaultMaxConfigs - 1 - i }

// build compiles the programs under test into b.bin, once per run and
// before any set-up: its time, printed as build_s, depends on the state of
// the build cache rather than on the programs, so it is kept out of
// setup_s.
func (b *bench) build() error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", b.bin+string(os.PathSeparator),
		"./cmd/crncheck", "./cmd/crnserve", "./cmd/crnsynth")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	b.note("build_s", "s", "%.6g (not part of setup_s)", time.Since(start).Seconds())
	return nil
}

// repeatSetup runs setup reps times and records setup_s as the median.
// Each setup's teardown runs before the next one starts; the last setup's
// state is what the run measures (its teardown is returned).
func (b *bench) repeatSetup(reps int, setup func() (teardown func(), err error)) (func(), error) {
	var secs []float64
	teardown := func() {}
	for i := 0; i < reps; i++ {
		teardown()
		start := time.Now()
		td, err := setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		teardown = td
		// Return the reference computations' heap to the OS before the
		// programs under test start competing for memory.
		debug.FreeOSMemory()
	}
	b.record("setup_s", "s", secs)
	return teardown, nil
}

// opCtx bounds one operation; an operation that times out counts as failed.
func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 120*time.Second)
}
