package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
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

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The metric tables in code and BENCHMARK.json agree entry by entry,
// and every name is well formed and used once.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("metric name %q used twice", name)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, code %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		e := b.EndToEnd[i]
		check(e.Name)
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, e, d)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		e := b.PerLayer[i]
		check(e.Name)
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, e, d)
		}
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", d.name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, code has %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
}

// Both runs emit exactly the metrics BENCHMARK.json lists, with its
// units, whatever work the workload did.
func TestEmittedMetricsAreListed(t *testing.T) {
	m := &measurement{setups: []float64{1}}
	m.phase.wall = 1
	t.Run("end_to_end", func(t *testing.T) {
		assertSameMetrics(t, m.endToEnd(), endToEndDefs)
	})
	t.Run("per_layer", func(t *testing.T) {
		assertSameMetrics(t, perLayer(m, &traceResult{tr: newTracer()}), perLayerDefs)
	})
}

func assertSameMetrics(t *testing.T, got map[string]metric, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("emitted %d metrics, %d listed", len(got), len(defs))
	}
	for _, d := range defs {
		mt, ok := got[d.name]
		if !ok {
			t.Errorf("listed metric %s not emitted", d.name)
			continue
		}
		if mt.Unit != d.unit {
			t.Errorf("metric %s emitted in %q, listed in %q", d.name, mt.Unit, d.unit)
		}
	}
}
