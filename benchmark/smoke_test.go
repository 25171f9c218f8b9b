package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The measured children are this same binary, re-executed with a plan in
// the environment; under `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	if plan := os.Getenv(childEnv); plan != "" {
		if err := childMain(plan); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
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

func readManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry holds BENCHMARK.json to the tables in
// metrics.go and to the limits of the driver's contract.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) || len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the registry has %d, %d and %d",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.Name)
		if got := m.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry %+v", i, got, w)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for i, d := range endToEnd {
		name(d.Name)
		if got := m.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the registry %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || len(d.Workloads) != 0 {
			t.Errorf("%s: unit %q, bound %v, workloads %v", d.Name, d.Unit, d.Bound, d.Workloads)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		name(d.Name)
		if got := m.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the registry %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Error("more metrics or workloads than the contract allows")
	}
}

// TestSmokeAllWorkloads runs every workload, both passes, at a tiny
// scale and checks what the driver would read: the emitted names are
// exactly BENCHMARK.json's, every value is finite, and no operation or
// sizing check failed.
func TestSmokeAllWorkloads(t *testing.T) {
	m := readManifest(t)
	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, d := range m.EndToEnd {
		wantE2E[d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		wantLayers[d.Name] = d.Unit
	}
	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	for _, w := range m.Workloads {
		def, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		run, err := runWorkload(def, Options{Seed: 1, Seconds: 10, Scale: 7}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, run.Attempted, run.Failed, run.Failures)
		}
		untraced := *run
		untraced.Layers = nil
		for _, c := range []struct {
			run  *Run
			want map[string]string
		}{{&untraced, wantE2E}, {run, wantLayers}} {
			var got line
			if err := json.Unmarshal([]byte(driverLine(c.run)), &got); err != nil {
				t.Fatal(err)
			}
			units := map[string]string{}
			for name, v := range got.Metrics {
				units[name] = v.Unit
				// Only the two differences between passes may be negative.
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (v.Value < 0 && v.Unit != "%") {
					t.Errorf("%s: %s = %v", w.Name, name, v.Value)
				}
			}
			if !reflect.DeepEqual(units, c.want) {
				t.Errorf("%s (traced %v): emitted metrics differ from BENCHMARK.json:\n got %v\nwant %v", w.Name, c.run.Layers != nil, units, c.want)
			}
		}
		for _, d := range endToEnd {
			if run.Metrics[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, run.Metrics[d.Name])
			}
		}
		for _, d := range perLayer {
			// Timings and sizes of a layer on this workload's path cannot be
			// 0 if they were measured; counts, differences and the session
			// layer's overhead (a difference floored at 0) can.
			if d.appliesTo(w.Name) && run.Layers[d.Name] == 0 && d.Better == lower &&
				d.Unit != "count" && d.Unit != "%" && d.Name != "api.ingestor_ns_per_update" {
				t.Errorf("%s: %s applies here but was not measured", w.Name, d.Name)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, ingest ...float64) string {
		f := ResultFile{}
		for _, v := range ingest {
			f.Runs = append(f.Runs, &Run{Workload: "ram-dense", Metrics: map[string]float64{"ingest_mups": v}})
		}
		path := dir + "/" + name
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("base.json", 2.00, 2.02, 1.98, 2.01, 1.99)
	for _, c := range []struct {
		name   string
		values []float64
		code   int
	}{
		{"same", []float64{2.01, 2.00, 1.99, 2.02, 1.98}, 0},
		{"slower", []float64{1.40, 1.41, 1.39, 1.42, 1.40}, 1},
		{"faster", []float64{2.80, 2.81, 2.79, 2.82, 2.80}, 0},
		{"noisy", []float64{1.2, 2.0, 2.8, 1.5, 2.4}, 0}, // unresolved, not regressed
	} {
		if got := compareFiles(base, file(c.name+".json", c.values...), io.Discard, io.Discard); got != c.code {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.code)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles %v and %v, want 3.5 and 160", q1, q3)
	}
}
