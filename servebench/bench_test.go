package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileMatchesWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
}

// TestShortRuns runs each workload briefly in both modes and checks that the
// printed metrics are exactly BENCHMARK.json's, with its units, and that the
// outcome counts balance.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up the serving stack several times")
	}
	bf := readBenchmarkFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			seconds := 2
			if w.refresh {
				seconds = 8 // long enough for the first rebuild to publish
			}
			cfg := config{
				workload: w.name, seed: 7, seconds: seconds, trace: trace, setups: 1,
				traceOut: filepath.Join(t.TempDir(), "trace.json"),
			}
			rep, err := runBenchmark(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v: not correct:\n%s", w.name, trace, strings.Join(rep.lines, "\n"))
			}
			checkNames(t, w.name, trace, rep.Metrics, want[trace])
			checkBalance(t, w.name, trace, rep)
		}
	}
}

func checkNames(t *testing.T, workload string, trace bool, got map[string]metricOut, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", workload, trace, name)
		} else if m.Unit != unit {
			t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json %q", workload, trace, name, m.Unit, unit)
		}
	}
	var extra []string
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s trace=%v: metrics not in BENCHMARK.json: %v", workload, trace, extra)
	}
}

func checkBalance(t *testing.T, workload string, trace bool, rep *runReport) {
	t.Helper()
	attempted, failed := 0, 0
	for _, a := range rep.accounts {
		sum := 0
		for _, n := range a.outcomes {
			sum += n
		}
		switch {
		case sum != a.attempted:
			t.Errorf("%s %s %s: outcomes add up to %d, attempted %d", workload, a.pass, a.kind, sum, a.attempted)
		case a.attempted+a.cut != a.dispatched:
			t.Errorf("%s %s %s: attempted %d + cut off %d != dispatched %d", workload, a.pass, a.kind, a.attempted, a.cut, a.dispatched)
		case a.scheduled >= 0 && a.dispatched != a.scheduled:
			t.Errorf("%s %s %s: dispatched %d of %d scheduled", workload, a.pass, a.kind, a.dispatched, a.scheduled)
		}
		attempted += a.attempted
		failed += a.attempted - a.outcomes[outOK] + a.checkFailed
	}
	if rep.Attempted != attempted || rep.Failed != failed || rep.Attempted < 1 {
		t.Errorf("%s trace=%v: report says attempted=%d failed=%d, accounts %d and %d", workload, trace, rep.Attempted, rep.Failed, attempted, failed)
	}
}
