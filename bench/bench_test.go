package bench

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the definitions in metrics.go")

// benchmarkJSON is BENCHMARK.json: exactly the keys the driver reads.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []endToEndEntry `json:"end_to_end"`
	PerLayer   []perLayerEntry `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const benchmarkPath = "../BENCHMARK.json"

func fromDefinitions() benchmarkJSON {
	b := benchmarkJSON{
		// The package is named by import path, which no checkout-relative
		// reading can mistake for the repository's own cmd/ directory.
		Command:    []string{"go", "run", "-C", "bench", "github.com/severifast/severifast/bench/cmd/sevf-benchmark"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
	}
	for _, w := range Workloads {
		b.Workloads = append(b.Workloads, workloadEntry{w.Name, w.Why})
	}
	for _, m := range EndToEnd {
		b.EndToEnd = append(b.EndToEnd, endToEndEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range PerLayer {
		b.PerLayer = append(b.PerLayer, perLayerEntry{m.Name, m.Unit, m.Better})
	}
	return b
}

// TestBenchmarkJSONMatchesDefinitions keeps the machine-readable contract
// and the code that prints the metrics equal: no missing name, no extra
// one, same units, directions and bounds, within the contract's limits.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	want := fromDefinitions()
	wantBlob, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantBlob = append(wantBlob, '\n')
	if *update {
		if err := os.WriteFile(benchmarkPath, wantBlob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantBlob) {
		t.Errorf("%s differs from metrics.go; run `go test -run BenchmarkJSON -update` in bench/", benchmarkPath)
	}
	if len(got) > 64<<10 {
		t.Errorf("%s is %d bytes, limit 64 KiB", benchmarkPath, len(got))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, m Metric) {
		if !name.MatchString(m.Name) {
			t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, m.Name)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s metric %q has unit %q", kind, m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s metric %q has direction %q", kind, m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if n := len(EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	hasSetup := false
	e2e := map[string]bool{}
	for _, m := range EndToEnd {
		check("end-to-end", m)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%q has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range PerLayer {
		check("per-layer", m)
		if !e2e[m.Moves] {
			t.Errorf("per-layer metric %q should move %q, which is no end-to-end metric", m.Name, m.Moves)
		}
	}
	for _, w := range Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
		if scenarios[w.Name] == nil {
			t.Errorf("workload %q has no scenario", w.Name)
		}
	}
}

// TestScaledRounds is a 1/16-scale pass over all six workloads: a traced
// and an untraced round of the same seed agree exactly on everything
// simulated (so tracing does not change the model), every metric the
// contract names is reported and no other, the self-time table never
// goes negative, and another seed changes the inputs.
func TestScaledRounds(t *testing.T) {
	const scale = 16
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			traced, err := RunRound(RoundSpec{Workload: w.Name, Seed: 1, Scale: scale, Traced: true})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RunRound(RoundSpec{Workload: w.Name, Seed: 1, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSimulated(traced, plain); err != nil {
				t.Errorf("two runs of seed 1 disagree: %v", err)
			}
			if traced.InputDigest != plain.InputDigest {
				t.Error("seed 1 generated different inputs twice")
			}
			if other := makeInputs(w, 2, scale).digest(); other == plain.InputDigest {
				t.Error("seed 2 generated the inputs of seed 1")
			}

			for _, m := range EndToEnd {
				v, ok := plain.Host[m.Name]
				if m.Kind == Simulated {
					v, ok = plain.Sim[m.Name]
				}
				if !ok {
					t.Errorf("end-to-end metric %q not reported", m.Name)
				} else if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %q = %v, must be a positive number", m.Name, v)
				}
			}
			if plain.Layer != nil {
				t.Error("untraced round reported per-layer metrics")
			}
			known := map[string]bool{}
			for _, m := range PerLayer {
				known[m.Name] = true
				if _, ok := traced.Layer[m.Name]; !ok {
					t.Errorf("per-layer metric %q not reported", m.Name)
				}
			}
			for k, v := range traced.Layer {
				if !known[k] {
					t.Errorf("per-layer metric %q is not in the contract", k)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %q = %v", k, v)
				}
			}
			if len(traced.SelfTimes) == 0 {
				t.Error("traced round has no self-time table")
			}
			for _, r := range traced.SelfTimes {
				if r.SelfNs < 0 || r.SelfNs > r.TotalNs {
					t.Errorf("span %q: self %d ns of total %d ns", r.Name, r.SelfNs, r.TotalNs)
				}
			}
			failed := 0
			for _, n := range plain.Failures {
				failed += n
			}
			if plain.Attempted != plain.Served+failed {
				t.Errorf("attempted %d != served %d + failed %d", plain.Attempted, plain.Served, failed)
			}
		})
	}
}

// TestSelfTimes pins the self-time rule on a hand-built trace: a span's
// self time is its length minus the part its direct children cover.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "run", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "call", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "inner", StartNs: 12, EndNs: 20, Parent: 1},
		{Name: "call", StartNs: 40, EndNs: 90, Parent: 0},
	}
	want := map[string]SelfRow{
		"run":   {Name: "run", Count: 1, TotalNs: 100, SelfNs: 30},
		"call":  {Name: "call", Count: 2, TotalNs: 70, SelfNs: 62},
		"inner": {Name: "inner", Count: 1, TotalNs: 8, SelfNs: 8},
	}
	rows := SelfTimes(spans)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r != want[r.Name] {
			t.Errorf("%+v, want %+v", r, want[r.Name])
		}
	}
	if rows[0].Name != "call" {
		t.Errorf("table starts with %q, want the largest self time first", rows[0].Name)
	}
}

// TestModelError pins the accuracy arithmetic and that a missing
// simulated value is an error, not an error of zero.
func TestModelError(t *testing.T) {
	anchors := []Anchor{
		{ID: "a", Kind: "held_back", Value: 100},
		{ID: "b", Kind: "held_back", Value: 50},
		{ID: "c", Kind: "calibration", Value: 10},
	}
	held, calib, n, err := modelError(anchors, map[string]float64{"a": 110, "b": 45, "c": 10.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(held-10) > 1e-9 || math.Abs(calib-5) > 1e-9 || n != 2 {
		t.Errorf("held %v calib %v n %d, want 10 5 2", held, calib, n)
	}
	if _, _, _, err := modelError(anchors, map[string]float64{"a": 1, "c": 1}); err == nil {
		t.Error("missing simulated value accepted")
	}
	refs, err := References()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, a := range refs {
		kinds[a.Kind]++
		if a.Source == "" || a.How == "" {
			t.Errorf("anchor %q lacks a citation or a method", a.ID)
		}
	}
	if kinds["held_back"] == 0 || kinds["calibration"] == 0 {
		t.Errorf("reference.json needs both kinds of anchor, has %v", kinds)
	}
}
