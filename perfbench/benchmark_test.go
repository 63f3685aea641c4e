package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names exactly
// the workloads and metrics, with their units, that the benchmark reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, tc := range []struct {
		file []metric
		code []metricDef
	}{{bf.EndToEnd, e2eMetrics}, {bf.PerLayer, layerMetrics}} {
		if len(tc.file) != len(tc.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(tc.file), len(tc.code))
		}
		for i, m := range tc.file {
			if m.Name != tc.code[i].Name || m.Unit != tc.code[i].Unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, code %s %s", i, m.Name, m.Unit, tc.code[i].Name, tc.code[i].Unit)
			}
		}
	}
}

// TestGoldenCoversWorkloads checks that golden.json has an outcome for
// every function and boot kind of the in-process workloads and a digest
// for every stored seed.
func TestGoldenCoversWorkloads(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Prefix != goldenPrefix {
		t.Fatalf("golden.json prefix %d, code %d", g.Prefix, goldenPrefix)
	}
	for _, w := range workloads {
		if w.Rate > 0 {
			continue
		}
		gw, ok := g.Workloads[w.Name]
		if !ok {
			t.Fatalf("golden.json has no %s", w.Name)
		}
		for _, fn := range w.Fns {
			for _, k := range w.Kinds {
				if v, ok := gw.Virtual[vkey(fn, k)]; !ok || v.Boot <= 0 || v.Exec <= 0 || v.Served == "" {
					t.Errorf("%s: golden.json result for %s is %+v", w.Name, vkey(fn, k), v)
				}
			}
		}
		for _, s := range goldenSeeds() {
			if len(gw.Digests[strconv.FormatInt(s, 10)]) != 64 {
				t.Errorf("%s: no digest for seed %d", w.Name, s)
			}
		}
	}
}

func TestCheckVirtualCatchesADrift(t *testing.T) {
	w, err := workloadByName("fork-large")
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(w, 99)
	var got []virtualResult
	for i := 0; i < 50; i++ {
		r := s.Next()
		got = append(got, virtualResult{Fn: r.Fn, Kind: r.Kind})
	}
	want, err := expectedResults(g.Workloads[w.Name], got)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkVirtual(rep, w, 99, want)
	if len(rep.Problems) > 0 {
		t.Fatalf("the golden results themselves fail the check: %v", rep.Problems)
	}
	want[17].Boot++
	rep = newReport()
	checkVirtual(rep, w, 99, want)
	if len(rep.Problems) != 1 {
		t.Fatalf("a boot latency off by 1 ns: problems %v, want one", rep.Problems)
	}
}
