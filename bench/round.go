package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/telemetry"
)

// RoundSpec is everything one round needs. The parent hands it to a
// child process as JSON; tests call RunRound in-process.
type RoundSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Scale divides the workload's operation counts; 1 is the pinned
	// size, the test uses 16.
	Scale   int  `json:"scale"`
	Traced  bool `json:"traced"`
	RoundID int  `json:"round_id"`
	// SpawnedAtNs is the parent's clock when it started the child, so
	// set-up time includes process start. Zero means "now".
	SpawnedAtNs int64 `json:"spawned_at_ns,omitempty"`
	// TraceOut, when set on a traced round, receives the Chrome trace.
	TraceOut string `json:"trace_out,omitempty"`
}

// RoundResult is one round's measurements. Host holds host-time metrics
// (noisy), Sim simulated ones (exact for a seed), Layer the per-layer
// metrics of a traced round.
type RoundResult struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Served    int    `json:"served"`
	// Failures breaks attempted − served down by reason.
	Failures map[string]int `json:"failures,omitempty"`
	// Notes lists the refusals behind the failures by gate and reason.
	Notes map[string]int `json:"notes,omitempty"`

	WallMs float64            `json:"wall_ms"`
	Host   map[string]float64 `json:"host"`
	Sim    map[string]float64 `json:"sim"`
	Layer  map[string]float64 `json:"layer,omitempty"`

	// OutputDigest is the SHA-256 of the round's canonical result JSON
	// (cluster.Summary, fleet.Metrics, or the per-boot result list).
	OutputDigest string `json:"output_digest"`
	// InputDigest fingerprints the generated inputs, so a test can tell
	// that another seed really changed them.
	InputDigest string `json:"input_digest"`
	// Unvalidated is true when the workload has no paper reference to
	// state simulator accuracy against.
	Unvalidated bool      `json:"unvalidated"`
	SelfTimes   []SelfRow `json:"self_times,omitempty"`
}

// outcome is what a scenario hands back: the simulated results, the
// output to fingerprint, and whatever the traced round reads afterwards.
type outcome struct {
	attempted int
	served    int
	failures  map[string]int
	// notes explain the failures (denials by gate and reason); they are
	// printed, not summed.
	notes map[string]int
	// latP50/latP99 are simulated admission → VM up over the served
	// boots, nearest rank; samples is how many boots they cover.
	latP50, latP99 time.Duration
	samples        int
	makespan       time.Duration
	// output is marshalled to canonical JSON and hashed.
	output any
	// layer carries per-layer counters the scenario read from the
	// modules' own recorders (deterministic ones and host ones alike).
	layer map[string]float64
	// fixture is what the probes run on: the workload's own inputs.
	fixture *fixture
	// validated is set when the round compared simulated results with
	// paper references.
	validated bool
}

// env is the measuring context a scenario runs in. The warm-up pass gets
// one with real == false, whose timed() just runs the function.
type env struct {
	real bool
	tr   *Tracer
	sim  *simTracer
	recs []*telemetry.HostRecorder
	// facade holds the counters of hosts made through the public facade,
	// global the growth of the process-wide recorder (the artifact intern
	// table's) over the timed region. Both are read on traced rounds only.
	facade []hostStats
	global map[string]int64

	setupDone  time.Time
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// hostStats is one telemetry.HostRecorder snapshot: cumulative stage
// nanoseconds (plus "<stage>.calls") and counters.
type hostStats struct{ stages, counters map[string]int64 }

// record registers a host's recorder so its counters are merged after
// the round. Warm-up hosts are not merged.
func (e *env) record(r *telemetry.HostRecorder) {
	if e.real {
		e.recs = append(e.recs, r)
	}
}

// noHosts reports a round driven wholly through the Pool facade, which
// exposes neither its host's recorder nor its engine.
func (e *env) noHosts() bool { return len(e.recs)+len(e.facade) == 0 }

// timed runs the workload's timed region. Everything before it in the
// process is set-up; a collection first gives every round the same heap
// to start from.
func (e *env) timed(fn func() error) error {
	if !e.real {
		return fn()
	}
	var before map[string]int64
	if e.tr != nil {
		_, before = telemetry.HostStatsSnapshot()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e.setupDone = time.Now()
	err := fn()
	e.wall = time.Since(e.setupDone)
	runtime.ReadMemStats(&m1)
	if e.tr != nil {
		_, e.global = telemetry.HostStatsSnapshot()
		for k, v := range before {
			e.global[k] -= v
		}
	}
	e.mallocs = m1.Mallocs - m0.Mallocs
	e.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	e.gcCycles = m1.NumGC - m0.NumGC
	e.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return err
}

// warmupDivisor shrinks the untimed warm-up pass relative to the round.
const warmupDivisor = 8

// warmupSalt moves the warm-up onto different images than the round.
const warmupSalt = 0x5eed_cafe

type scenario func(e *env, in *inputs) (*outcome, error)

var scenarios = map[string]scenario{
	"cold_cached":   coldCached,
	"warm_fork":     warmFork,
	"image_churn":   imageChurn,
	"cluster_zipf":  clusterZipf,
	"cluster_storm": clusterStorm,
	"paper_oneshot": paperOneshot,
}

// RunRound performs one round: set-up, a 1/8-scale untimed warm-up of
// the same scenario on different images, one timed region, the output
// checks, and on a traced round the probes. Any failed check is an
// error: the caller withholds the metrics.
func RunRound(spec RoundSpec) (*RoundResult, error) {
	started := time.Now()
	if spec.SpawnedAtNs != 0 {
		started = time.Unix(0, spec.SpawnedAtNs)
	}
	w, ok := WorkloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", spec.Workload)
	}
	if spec.Scale < 1 {
		spec.Scale = 1
	}
	run := scenarios[w.Name]

	e := &env{real: true}
	if spec.Traced {
		e.tr = NewTracer(spec.RoundID)
		e.sim = &simTracer{}
	}
	in := makeInputs(w, spec.Seed, spec.Scale)
	// Kernel generation first: the process-wide kernel cache is warm for
	// the warm-up and the round alike, as it is for any long-lived host
	// process, and its cost lands in setup_s under its own span.
	sp := e.tr.Begin("kernelgen.Cached")
	for _, p := range in.kernels {
		if _, err := kernelgen.Cached(p); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
		}
	}
	e.tr.End(sp)

	warm := makeInputs(w, spec.Seed^warmupSalt, spec.Scale*warmupDivisor)
	if _, err := run(&env{}, warm); err != nil {
		return nil, fmt.Errorf("bench: %s warm-up: %w", w.Name, err)
	}
	out, err := run(e, in)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	if err := checkOutcome(out); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}

	res := &RoundResult{
		Workload:    w.Name,
		Attempted:   out.attempted,
		Served:      out.served,
		Failures:    out.failures,
		Notes:       out.notes,
		WallMs:      ms(e.wall),
		InputDigest: in.digest(),
		Unvalidated: !out.validated,
	}
	blob, err := json.Marshal(out.output)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: canonical output: %w", w.Name, err)
	}
	sum := sha256.Sum256(blob)
	res.OutputDigest = hex.EncodeToString(sum[:])

	boots := float64(out.attempted)
	res.Host = map[string]float64{
		"setup_s":            e.setupDone.Sub(started).Seconds(),
		"boots_per_s":        boots / e.wall.Seconds(),
		"allocs_per_boot":    float64(e.mallocs) / boots,
		"alloc_kib_per_boot": float64(e.allocBytes) / 1024 / boots,
		"gc_cycles":          float64(e.gcCycles),
		"gc_pause_ms":        float64(e.gcPauseNs) / 1e6,
	}
	res.Sim = map[string]float64{
		"virtual_boot_ms_p50": ms(out.latP50),
		"virtual_boot_ms_p99": ms(out.latP99),
		"virtual_makespan_s":  out.makespan.Seconds(),
		"served_share":        float64(out.served) / boots,
	}

	if spec.Traced {
		layer, err := collectLayers(e, in, out)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: probes: %w", w.Name, err)
		}
		res.Layer = layer
		res.SelfTimes = SelfTimes(e.tr.Spans())
		for _, r := range res.SelfTimes {
			if r.SelfNs < 0 {
				return nil, fmt.Errorf("bench: %s: span %q has negative self time", w.Name, r.Name)
			}
		}
		if spec.TraceOut != "" {
			if err := writeTraceFile(spec.TraceOut, e.tr.Spans()); err != nil {
				return nil, err
			}
		}
	}
	// Last, so the probes' memory counts only against the traced round.
	res.Host["peak_rss_mib"] = peakRSSMiB()
	return res, nil
}

func writeTraceFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	if err := WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: closing %s: %w", path, err)
	}
	return nil
}

// checkOutcome enforces the accounting every workload must satisfy:
// attempted = served + counted failures, and the latency series holds
// one sample per served boot.
func checkOutcome(out *outcome) error {
	failed := 0
	for _, n := range out.failures {
		failed += n
	}
	if out.attempted < 1 {
		return fmt.Errorf("no boots attempted")
	}
	if out.served+failed != out.attempted {
		return fmt.Errorf("attempted %d != served %d + failed %d (%v)", out.attempted, out.served, failed, out.failures)
	}
	if out.samples != out.served {
		return fmt.Errorf("%d latency samples for %d served boots", out.samples, out.served)
	}
	if out.served == 0 {
		return fmt.Errorf("no boot served")
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// procStatusKiB reads one "<key>: <n> kB" field of a process's status
// file; 0 when the file or field is missing (non-Linux hosts).
func procStatusKiB(pid, key string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseFloat(f[0], 64)
				return n
			}
		}
	}
	return 0
}

// peakRSSMiB is this process's resident-set high-water mark.
func peakRSSMiB() float64 { return procStatusKiB("self", "VmHWM") / 1024 }
