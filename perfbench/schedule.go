package main

import (
	"math/rand/v2"
	"time"
)

// op is one request of the serve_mix schedule: when it is due (offset from
// the start of the run), and either which population entry it asks for or
// that it submits a fresh async job.
type op struct {
	Due   time.Duration `json:"due_ns"`
	Entry int           `json:"entry"`
	Job   bool          `json:"job,omitempty"`
}

// makeSchedule draws n requests with Poisson arrivals at rate per second.
// Every jobEvery-th request (a fixed share) is a job; the others ask for a
// Zipf(zipfS) draw over the population's entries, so earlier entries are
// hotter. The whole schedule is a function of seed alone.
func makeSchedule(seed uint64, n int, rate float64, entries, jobEvery int, zipfS float64) []op {
	r := rand.New(rand.NewPCG(seed, 0x5EED5C4ED01E))
	z := rand.NewZipf(r, zipfS, 1, uint64(entries-1))
	out := make([]op, n)
	var t float64
	for i := range out {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if (i+1)%jobEvery == 0 {
			out[i] = op{Due: due, Entry: -1, Job: true}
		} else {
			out[i] = op{Due: due, Entry: int(z.Uint64())}
		}
	}
	return out
}
