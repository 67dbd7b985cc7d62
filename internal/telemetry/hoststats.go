package telemetry

// Host-time statistics: wall-clock stage timings, cache hit/miss
// counters, and buffer-pool stats for the host-performance layer
// (parallel measurement pipeline, shared-artifact CoW memory).
//
// These deliberately live OUTSIDE the virtual-time Registry. The
// Registry's exports are stamped from sim.Time and are required to be
// byte-identical across same-seed runs; host wall-clock readings are
// not deterministic and must never leak into those exports. Host stats
// get their own snapshot API and exporter instead.
//
// Stats are recorded into a HostRecorder. Each kvm.Host owns one, so
// two hosts in the same process never interleave counters; the
// package-level functions delegate to DefaultHostRecorder for code
// that has no host in scope (the artifact intern table is process-wide
// by design and stays on the default recorder).

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// HostRecorder accumulates host-side wall-clock stage timings and
// counters. The zero value is not usable; call NewHostRecorder.
type HostRecorder struct {
	mu       sync.Mutex
	stageNS  map[string]int64
	stageN   map[string]int64
	counters map[string]int64
}

// NewHostRecorder returns an empty recorder.
func NewHostRecorder() *HostRecorder {
	return &HostRecorder{
		stageNS:  map[string]int64{},
		stageN:   map[string]int64{},
		counters: map[string]int64{},
	}
}

// DefaultHostRecorder receives stats from code with no host in scope:
// the package-level HostCounterAdd helper and process-wide subsystems
// such as the artifact intern table.
var DefaultHostRecorder = NewHostRecorder()

// Stage records one wall-clock timing for a named pipeline stage.
// Typical use: defer rec.Stage("psp.fold", time.Now()).
func (r *HostRecorder) Stage(name string, start time.Time) {
	d := time.Since(start)
	r.mu.Lock()
	r.stageNS[name] += d.Nanoseconds()
	r.stageN[name]++
	r.mu.Unlock()
}

// CounterAdd bumps a named host-side counter (cache hits, pool reuses,
// bytes spared, ...).
func (r *HostRecorder) CounterAdd(name string, n int64) {
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// Reset zeroes all stages and counters. Benchmarks call it after
// warm-up so snapshots cover only the measured window.
func (r *HostRecorder) Reset() {
	r.mu.Lock()
	r.stageNS = map[string]int64{}
	r.stageN = map[string]int64{}
	r.counters = map[string]int64{}
	r.mu.Unlock()
}

// Snapshot returns copies of the cumulative stage timings (ns, plus a
// "<stage>.calls" entry) and the counters.
func (r *HostRecorder) Snapshot() (stages map[string]int64, counters map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	stages = make(map[string]int64, 2*len(r.stageNS))
	for k, v := range r.stageNS {
		stages[k] = v
		stages[k+".calls"] = r.stageN[k]
	}
	counters = make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	return stages, counters
}

// Write renders the recorder's stats in Prometheus-style text under a
// distinct sevf_host_* namespace. It is a separate exporter from
// Registry.WritePrometheus on purpose: mixing wall-clock values into
// the virtual-time export would break its byte-identical-per-seed
// guarantee.
func (r *HostRecorder) Write(w io.Writer) error {
	stages, counters := r.Snapshot()
	var keys []string
	for k := range stages {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "sevf_host_stage{name=%q} %d\n", k, stages[k]); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "sevf_host_counter{name=%q} %d\n", k, counters[k]); err != nil {
			return err
		}
	}
	return nil
}

// HostCounterAdd bumps a named counter on DefaultHostRecorder.
//
// Deprecated: stats recorded here are process-global and interleave
// across hosts. Code with a host in scope should record on that host's
// HostRecorder instead.
func HostCounterAdd(name string, n int64) {
	DefaultHostRecorder.CounterAdd(name, n)
}

// HostStatsSnapshot snapshots DefaultHostRecorder.
//
// Deprecated: covers only the process-global recorder; per-host stats
// live on each host's HostRecorder.
func HostStatsSnapshot() (stages map[string]int64, counters map[string]int64) {
	return DefaultHostRecorder.Snapshot()
}
