package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

func scheduleBytes(t *testing.T, seed uint64) []byte {
	t.Helper()
	b, err := json.Marshal(makeSchedule(seed, 2000, serveRate, len(population()), serveJobEvery, serveZipfS))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScheduleByteStable pins the schedule serve_mix runs, at its own rate,
// population size, job share and Zipf exponent: the same seed gives the
// same bytes, run after run and release after release, and another seed
// gives other bytes.
func TestScheduleByteStable(t *testing.T) {
	a, b := scheduleBytes(t, 7), scheduleBytes(t, 7)
	if string(a) != string(b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if string(a) == string(scheduleBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 give the same schedule")
	}
	sum := sha256.Sum256(a)
	if got, want := hex.EncodeToString(sum[:]), scheduleSHA256; got != want {
		t.Errorf("seed 7 schedule sha256 = %s, pinned %s", got, want)
	}
}

const scheduleSHA256 = "eb451f9aa6f15bbb73f771fa27c2ebfd52344f7826a8791f387f0d2ff5e19c28"

// TestScheduleShape checks the fixed job share, the Poisson rate and that
// the Zipf draw favours the first entries.
func TestScheduleShape(t *testing.T) {
	n, entries := 20000, len(population())
	s := makeSchedule(3, n, serveRate, entries, serveJobEvery, serveZipfS)
	counts := make([]int, entries)
	jobs := 0
	for i, o := range s {
		if o.Job != ((i+1)%serveJobEvery == 0) {
			t.Fatalf("op %d: job=%v", i, o.Job)
		}
		if o.Job {
			jobs++
			continue
		}
		if o.Entry < 0 || o.Entry >= entries {
			t.Fatalf("op %d: entry %d out of range", i, o.Entry)
		}
		counts[o.Entry]++
		if i > 0 && o.Due < s[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
	if jobs != n/serveJobEvery {
		t.Errorf("%d jobs, want %d", jobs, n/serveJobEvery)
	}
	if rate := float64(n) / s[n-1].Due.Seconds(); rate < 0.95*serveRate || rate > 1.05*serveRate {
		t.Errorf("arrival rate %.1f/s, want about %v/s", rate, serveRate)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[entries-1] {
		t.Errorf("draws are not Zipf-ordered: first %d, second %d, last %d", counts[0], counts[1], counts[entries-1])
	}
}
