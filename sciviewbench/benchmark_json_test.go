package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesProgram checks that ../BENCHMARK.json lists
// exactly the workloads and metrics the benchmark reports, with the same
// units, so the two cannot drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !equalStrings(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadOrder)
	}
	for name := range workloads {
		if !contains(workloadOrder, name) {
			t.Errorf("workload %q missing from workloadOrder", name)
		}
	}

	w := &window{readers: newTally(), writer: &writerTally{}, blockLen: time.Second, peakHeap: make([]uint64, blocks)}
	e2e := endToEnd(w, []time.Duration{time.Second})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: benchmark reports %+v (present %v)", m.Name, m.Unit, got, ok)
		}
	}

	// Every listed layer must be computed, by the window or by a probe.
	computed := (&env{}).layers(w)
	for _, p := range []string{"planner.lower_ms", "metadata.lookup_us", "colenc.decode_ms_per_query", "trace.overhead_frac"} {
		computed[p] = 0
	}
	for _, l := range layerNames {
		if _, ok := computed[l.name]; !ok {
			t.Errorf("per-layer %s is listed but never computed", l.name)
		}
		delete(computed, l.name)
	}
	for name := range computed {
		t.Errorf("per-layer %s is computed but not listed", name)
	}

	if len(spec.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(spec.PerLayer), len(layerNames))
	}
	for i, m := range spec.PerLayer {
		if l := layerNames[i]; l.name != m.Name || l.unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, l.name, l.unit)
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
