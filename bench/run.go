package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// Guards sized for a shared 2-core/16 GiB sandbox: a round that passes
// either is killed and its workload reported as failed.
const (
	maxRoundRSSMiB = 6 * 1024
	maxRoundTime   = 60 * time.Second
)

// RunConfig describes one run of one workload: several untraced rounds,
// each a child process, and optionally one traced round after them.
type RunConfig struct {
	// Exe is the benchmark binary; rounds re-execute it with -round.
	Exe      string
	Workload Workload
	Seed     int64
	// Seconds is how long the run keeps starting untraced rounds. At
	// least Workload.MinRounds are made however long they take.
	Seconds float64
	Trace   bool
	// TraceDir receives trace_<workload>.json on a traced run.
	TraceDir string
	// Log receives one progress line per round.
	Log io.Writer
}

// RunResult is a run's report: medians over the untraced rounds for
// host-time metrics, the exact value for simulated ones, and the traced
// round's per-layer metrics.
type RunResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Served    int                `json:"served"`
	Failures  map[string]int     `json:"failures,omitempty"`
	Notes     map[string]int     `json:"notes,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfTimes []SelfRow          `json:"self_times,omitempty"`
	// OutputDigest is identical across the run's rounds by construction
	// (the run fails otherwise); two commits with the same digest for the
	// same seed produced the same simulated results.
	OutputDigest string `json:"output_digest"`
	Unvalidated  bool   `json:"unvalidated"`
	TraceFile    string `json:"trace_file,omitempty"`
}

// runChild executes one round in a child process under the memory and
// time guards and parses its one line of JSON.
func runChild(exe string, spec RoundSpec) (*RoundResult, error) {
	spec.SpawnedAtNs = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-round", string(arg))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting round: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	pid := strconv.Itoa(cmd.Process.Pid)
	deadline := time.NewTimer(maxRoundTime)
	defer deadline.Stop()
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	var killed string
wait:
	for {
		select {
		case err = <-done:
			break wait
		case <-deadline.C:
			killed = fmt.Sprintf("round exceeded %v", maxRoundTime)
		case <-poll.C:
			if rss := procStatusKiB(pid, "VmHWM") / 1024; rss > maxRoundRSSMiB {
				killed = fmt.Sprintf("round's resident set reached %.0f MiB (limit %d)", rss, maxRoundRSSMiB)
			}
		}
		if killed != "" {
			// Kill and then wait: the child must be gone before we return.
			_ = cmd.Process.Kill()
			<-done
			return nil, fmt.Errorf("bench: %s: killed: %s", spec.Workload, killed)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s round %d failed: %v\n%s", spec.Workload, spec.RoundID, err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res RoundResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("bench: %s round %d: unreadable result: %w", spec.Workload, spec.RoundID, err)
	}
	return &res, nil
}

// RunWorkload makes the run's rounds and folds them into one result. It
// fails — and so withholds every metric — when a round fails a check or
// when two rounds disagree on a simulated metric or on the output digest.
func RunWorkload(cfg RunConfig) (*RunResult, error) {
	w := cfg.Workload
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	var rounds []*RoundResult
	var last time.Duration
	for len(rounds) < w.MinRounds || time.Since(start)+last <= budget {
		t := time.Now()
		r, err := runChild(cfg.Exe, RoundSpec{Workload: w.Name, Seed: cfg.Seed, Scale: 1, RoundID: len(rounds)})
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		rounds = append(rounds, r)
		logf(cfg.Log, "%s round %d: %.0f ms timed, %.2f s set-up, %.0f MiB\n",
			w.Name, len(rounds)-1, r.WallMs, r.Host["setup_s"], r.Host["peak_rss_mib"])
	}
	res := &RunResult{
		Workload:     w.Name,
		Seed:         cfg.Seed,
		Rounds:       len(rounds),
		Attempted:    rounds[0].Attempted,
		Served:       rounds[0].Served,
		Failures:     rounds[0].Failures,
		Notes:        rounds[0].Notes,
		EndToEnd:     map[string]float64{},
		OutputDigest: rounds[0].OutputDigest,
		Unvalidated:  rounds[0].Unvalidated,
	}
	all := rounds
	var traced *RoundResult
	if cfg.Trace {
		spec := RoundSpec{Workload: w.Name, Seed: cfg.Seed, Scale: 1, Traced: true, RoundID: len(rounds)}
		if cfg.TraceDir != "" {
			if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
				return nil, fmt.Errorf("bench: %w", err)
			}
			spec.TraceOut = cfg.TraceDir + "/trace_" + w.Name + ".json"
			res.TraceFile = spec.TraceOut
		}
		var err error
		if traced, err = runChild(cfg.Exe, spec); err != nil {
			return nil, err
		}
		logf(cfg.Log, "%s traced round: %.0f ms timed\n", w.Name, traced.WallMs)
		all = append(all[:len(all):len(all)], traced)
	}
	for _, r := range all[1:] {
		if err := sameSimulated(all[0], r); err != nil {
			return nil, fmt.Errorf("bench: %s: rounds of one run disagree: %w", w.Name, err)
		}
	}

	for _, m := range EndToEnd {
		if m.Kind == Simulated {
			res.EndToEnd[m.Name] = rounds[0].Sim[m.Name]
			continue
		}
		res.EndToEnd[m.Name] = median(column(rounds, func(r *RoundResult) float64 { return r.Host[m.Name] }))
	}
	if traced != nil {
		walls := column(rounds, func(r *RoundResult) float64 { return r.WallMs })
		res.PerLayer = map[string]float64{}
		for _, m := range PerLayer {
			res.PerLayer[m.Name] = traced.Layer[m.Name]
		}
		res.PerLayer["harness.trace_overhead_pct"] = 100 * (traced.WallMs/median(walls) - 1)
		res.PerLayer["harness.gc_cycles"] = median(column(rounds, func(r *RoundResult) float64 { return r.Host["gc_cycles"] }))
		res.PerLayer["harness.gc_pause_ms"] = median(column(rounds, func(r *RoundResult) float64 { return r.Host["gc_pause_ms"] }))
		sort.Float64s(walls)
		res.PerLayer["harness.round_wall_ms_min"] = walls[0]
		res.PerLayer["harness.round_wall_ms_max"] = walls[len(walls)-1]
		res.SelfTimes = traced.SelfTimes
	}
	return res, nil
}

// sameSimulated reports the first simulated quantity two rounds of the
// same seed disagree on. Simulated values derive from integer
// nanoseconds, so equal runs give bit-equal floats.
func sameSimulated(a, b *RoundResult) error {
	if a.Attempted != b.Attempted || a.Served != b.Served {
		return fmt.Errorf("attempted/served %d/%d vs %d/%d", a.Attempted, a.Served, b.Attempted, b.Served)
	}
	for k, v := range a.Sim {
		if math.Float64bits(v) != math.Float64bits(b.Sim[k]) {
			return fmt.Errorf("%s = %v vs %v", k, v, b.Sim[k])
		}
	}
	if a.OutputDigest != b.OutputDigest {
		return fmt.Errorf("output digest %s vs %s", a.OutputDigest, b.OutputDigest)
	}
	return nil
}

func column(rounds []*RoundResult, f func(*RoundResult) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
