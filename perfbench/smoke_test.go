package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at tiny sizes for one
// second each against binaries built from this checkout, and checks the
// result line: correct, nothing failed, and exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			b, err := newBench("..", name, 1, time.Second, traced, &out)
			if err != nil {
				t.Fatal(err)
			}
			b.tiny = true
			code, err := b.run(workloads[name])
			if code != 0 || err != nil {
				t.Fatalf("%s traced=%v: exit %d: %v\n%s", name, traced, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result %+v", name, traced, res)
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, m.Name, got)
				}
			}
		}
	}
}
