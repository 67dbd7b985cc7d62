// sevf-benchmark is the repository's benchmark command: it runs the
// workloads of BENCHMARK.json, prints every metric by name with its
// unit, and checks the outputs. See bench/README.md.
//
//	go run -C bench ./cmd/sevf-benchmark                       # every workload, seed 1
//	go run -C bench ./cmd/sevf-benchmark --trace 1             # plus the traced round
//	go run -C bench ./cmd/sevf-benchmark --workload warm_fork --seed 2 --seconds 10 --trace 0
//	go run -C bench ./cmd/sevf-benchmark -aa                   # whole set twice, results/aa_<date>.json
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Everything else goes
// to standard error. A failed check exits non-zero and prints no metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/severifast/severifast/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one-line result the benchmark driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run() error {
	var (
		workload = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all, as a report)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "how long a run keeps starting rounds (three rounds at least)")
		trace    = flag.Int("trace", 0, "1 adds the traced round and reports the per-layer metrics")
		aa       = flag.Bool("aa", false, "run the whole set twice and write results/aa_<date>.json")
		round    = flag.String("round", "", "internal: run one round described by this JSON and print its result")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("sevf-benchmark: unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("sevf-benchmark: --trace takes 0 or 1, got %d", *trace)
	}

	if *round != "" {
		var spec bench.RoundSpec
		if err := json.Unmarshal([]byte(*round), &spec); err != nil {
			return fmt.Errorf("sevf-benchmark: -round: %w", err)
		}
		res, err := bench.RunRound(spec)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(res)
	}

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("sevf-benchmark: %w", err)
	}
	dir := benchDir()
	cfg := bench.RunConfig{
		Exe:      exe,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		TraceDir: filepath.Join(dir, "out"),
		Log:      os.Stderr,
	}

	switch {
	case *aa:
		return runAA(cfg, dir)
	case *workload != "":
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			return fmt.Errorf("sevf-benchmark: unknown workload %q", *workload)
		}
		cfg.Workload = w
		res, err := bench.RunWorkload(cfg)
		if err != nil {
			return err
		}
		bench.WriteReport(os.Stderr, res)
		return json.NewEncoder(os.Stdout).Encode(contract(res, cfg.Trace))
	default:
		_, err := runAll(cfg)
		return err
	}
}

// benchDir finds the benchmark's directory from the working directory:
// `go run -C bench` starts the command inside it, a built binary is
// usually started from the repository root.
func benchDir() string {
	if _, err := os.Stat("reference.json"); err == nil {
		return "."
	}
	if _, err := os.Stat(filepath.Join("bench", "reference.json")); err == nil {
		return "bench"
	}
	return "."
}

func contract(res *bench.RunResult, traced bool) contractLine {
	line := contractLine{
		Correct:   true,
		Attempted: res.Attempted,
		Failed:    res.Attempted - res.Served,
		Metrics:   map[string]metricValue{},
	}
	defs, values := bench.EndToEnd, res.EndToEnd
	if traced {
		defs, values = bench.PerLayer, res.PerLayer
	}
	for _, m := range defs {
		line.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return line
}

func runAll(cfg bench.RunConfig) ([]*bench.RunResult, error) {
	var out []*bench.RunResult
	for _, w := range bench.Workloads {
		cfg.Workload = w
		res, err := bench.RunWorkload(cfg)
		if err != nil {
			return nil, err
		}
		bench.WriteReport(os.Stdout, res)
		out = append(out, res)
	}
	return out, nil
}

// runAA runs every workload twice on the same code and seed and records
// how far the two sets differ, metric by metric, against the bounds.
func runAA(cfg bench.RunConfig, dir string) error {
	cfg.Trace = true
	a, err := runAll(cfg)
	if err != nil {
		return err
	}
	b, err := runAll(cfg)
	if err != nil {
		return err
	}
	rep := bench.CompareAA(a, b, cfg.Seed, cfg.Seconds)
	path := filepath.Join(dir, "results", "aa_"+rep.Date+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	for _, d := range rep.Diffs {
		mark := "ok"
		if !d.Within {
			mark = "OUTSIDE"
		}
		fmt.Printf("%-14s %-22s a=%-14.4f b=%-14.4f diff %6.2f%% bound %5.1f%% %s\n",
			d.Workload, d.Metric, d.A, d.B, 100*d.RelDiff, 100*d.Bound, mark)
	}
	fmt.Printf("A/A report written to %s\n", path)
	if !rep.AllWithin {
		return fmt.Errorf("sevf-benchmark: A/A runs differ by more than the bounds")
	}
	return nil
}
