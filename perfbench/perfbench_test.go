package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchFile mirrors the parts of BENCHMARK.json the benchmark must agree with.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func better(lower bool) string {
	if lower {
		return "lower"
	}
	return "higher"
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := sortedCopy(names), workloadNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != better(s.Lower) || m.Bound != s.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, benchmark %+v", i, m, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != better(s.Lower) {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, benchmark %+v", i, m, s)
		}
	}
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestMixSequencesRepeat checks that a seed fixes the lazyd-mix traffic and
// that its shape holds: one first sighting in mixNewEvery submissions, and
// disjoint job sets per client.
func TestMixSequencesRepeat(t *testing.T) {
	a := mixSequences(3, 4*time.Second)
	if !reflect.DeepEqual(a, mixSequences(3, 4*time.Second)) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, mixSequences(4, 4*time.Second)) {
		t.Fatal("different seeds gave the same sequences")
	}
	owner := make(map[any]int)
	for c, seq := range a {
		seen := make(map[any]bool)
		news := 0
		for _, s := range seq {
			if o, ok := owner[s]; ok && o != c {
				t.Fatalf("job %+v sent by clients %d and %d", s, o, c)
			}
			owner[s] = c
			if !seen[s] {
				news++
			}
			seen[s] = true
		}
		if news*mixNewEvery != len(seq) {
			t.Errorf("client %d: %d first sightings in %d submissions", c, news, len(seq))
		}
	}
}

// smoke runs one workload for a second and requires a complete, correct
// result carrying every metric of its table.
func smoke(t *testing.T, lazyd, workload string, traced bool) {
	t.Helper()
	e := newEnv(t.TempDir(), lazyd, 2, 1, traced)
	res, err := e.runWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, res.Failed, res.Attempted, e.rep.problems)
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	if len(res.Metrics) != len(table) {
		t.Fatalf("%s: %d metrics, want %d", workload, len(res.Metrics), len(table))
	}
	for _, s := range table {
		if res.Metrics[s.Name].Unit != s.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, s.Name, res.Metrics[s.Name].Unit, s.Unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced; the traced
// runs exercise every replay driver.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	lazyd := filepath.Join(t.TempDir(), "lazyd")
	build := exec.Command("go", "build", "-o", lazyd, "./cmd/lazyd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lazyd: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) { smoke(t, lazyd, w, traced) })
		}
	}
}
