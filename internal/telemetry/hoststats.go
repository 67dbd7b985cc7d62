package telemetry

// Host-time statistics: wall-clock stage timings, cache hit/miss
// counters, and buffer-pool stats for the host-performance layer (a
// launch's region loop, shared-artifact CoW memory).
//
// These deliberately live OUTSIDE the virtual-time Registry. The
// Registry's exports are stamped from sim.Time and are required to be
// byte-identical across same-seed runs; host wall-clock readings are
// not deterministic and must never leak into those exports. Host stats
// get their own snapshot API and exporter instead.
//
// Stats are recorded into a HostRecorder. Each kvm.Host owns one, so
// two hosts in the same process never interleave counters. Code with no
// host in scope records on DefaultHostRecorder: the artifact intern
// table is process-wide by design and stays there, and HostStatsSnapshot
// reads it.
//
// Counters sit on every cache hit and page draw of a boot, so they are a
// fixed set: a HostCounter constant per counter, added atomically into
// an array slot, and mapped back to its dotted name ("guestmem.view.hit")
// only when a snapshot is taken. Stage timings are keyed by name in a
// map under the recorder's mutex; there is one per measured launch, not
// one per page.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HostCounter names one host-side counter.
type HostCounter uint8

// The host counters. Snapshot and Write report each under its name in
// hostCounterNames, which bench/ and the facade's WriteHostStats read.
const (
	GuestmemDirReused HostCounter = iota
	GuestmemLeafReused
	GuestmemChunkReused
	GuestmemPageReused
	GuestmemLeafShared
	GuestmemChunkShared
	GuestmemLeafOwned
	GuestmemChunkOwned
	GuestmemForkExported
	GuestmemForkExportedBytes
	GuestmemForkAdopted
	GuestmemForkAliasedPages
	GuestmemDigestMemo
	GuestmemDigestStreamed
	// GuestmemDigestStreamedBytes adds the bytes a streamed digest feeds to
	// SHA-256; the prefix of a never-written range that guestmem resumes
	// from its zero chain is not fed, so not counted.
	GuestmemDigestStreamedBytes
	GuestmemDigestTransformed
	GuestmemViewHit
	GuestmemViewBytes
	ArtifactInterned
	ArtifactInternedBytes
	ArtifactDigestHit
	ArtifactDigestMiss
	ArtifactDigestBytesSpared
	ArtifactDigestBytesHashed
	ArtifactDerivedHit
	ArtifactDerivedMiss
	ArtifactCorrupted

	numHostCounters
)

var hostCounterNames = [numHostCounters]string{
	GuestmemDirReused:           "guestmem.dir.reused",
	GuestmemLeafReused:          "guestmem.leaf.reused",
	GuestmemChunkReused:         "guestmem.chunk.reused",
	GuestmemPageReused:          "guestmem.page.reused",
	GuestmemLeafShared:          "guestmem.leaf.shared",
	GuestmemChunkShared:         "guestmem.chunk.shared",
	GuestmemLeafOwned:           "guestmem.leaf.owned",
	GuestmemChunkOwned:          "guestmem.chunk.owned",
	GuestmemForkExported:        "guestmem.fork.exported",
	GuestmemForkExportedBytes:   "guestmem.fork.exported_bytes",
	GuestmemForkAdopted:         "guestmem.fork.adopted",
	GuestmemForkAliasedPages:    "guestmem.fork.aliased_pages",
	GuestmemDigestMemo:          "guestmem.digest.memo",
	GuestmemDigestStreamed:      "guestmem.digest.streamed",
	GuestmemDigestStreamedBytes: "guestmem.digest.streamed_bytes",
	GuestmemDigestTransformed:   "guestmem.digest.transformed",
	GuestmemViewHit:             "guestmem.view.hit",
	GuestmemViewBytes:           "guestmem.view.bytes",
	ArtifactInterned:            "artifact.interned",
	ArtifactInternedBytes:       "artifact.interned_bytes",
	ArtifactDigestHit:           "artifact.digest.hit",
	ArtifactDigestMiss:          "artifact.digest.miss",
	ArtifactDigestBytesSpared:   "artifact.digest.bytes_spared",
	ArtifactDigestBytesHashed:   "artifact.digest.bytes_hashed",
	ArtifactDerivedHit:          "artifact.derived.hit",
	ArtifactDerivedMiss:         "artifact.derived.miss",
	ArtifactCorrupted:           "artifact.corrupted",
}

// HostRecorder accumulates host-side wall-clock stage timings and
// counters. The zero value is not usable; call NewHostRecorder.
type HostRecorder struct {
	mu      sync.Mutex
	stageNS map[string]int64
	stageN  map[string]int64

	counters [numHostCounters]atomic.Int64
	touched  [numHostCounters]atomic.Bool // added to since the last Reset
}

// NewHostRecorder returns an empty recorder.
func NewHostRecorder() *HostRecorder {
	return &HostRecorder{
		stageNS: map[string]int64{},
		stageN:  map[string]int64{},
	}
}

// DefaultHostRecorder receives stats from code with no host in scope,
// such as the process-wide artifact intern table.
var DefaultHostRecorder = NewHostRecorder()

// Stage records one wall-clock timing for a named host stage. The
// launch's region loop records "psp.pipeline":
// start := time.Now(); ...; rec.Stage("psp.pipeline", start).
func (r *HostRecorder) Stage(name string, start time.Time) {
	d := time.Since(start)
	r.mu.Lock()
	r.stageNS[name] += d.Nanoseconds()
	r.stageN[name]++
	r.mu.Unlock()
}

// Add bumps a host-side counter (cache hits, pool reuses, bytes
// spared, ...). Safe from any goroutine without a lock.
func (r *HostRecorder) Add(c HostCounter, n int64) {
	r.counters[c].Add(n)
	if !r.touched[c].Load() {
		r.touched[c].Store(true)
	}
}

// Reset zeroes all stages and counters. Benchmarks call it after
// warm-up so snapshots cover only the measured window.
func (r *HostRecorder) Reset() {
	r.mu.Lock()
	r.stageNS = map[string]int64{}
	r.stageN = map[string]int64{}
	r.mu.Unlock()
	for c := range r.counters {
		r.touched[c].Store(false)
		r.counters[c].Store(0)
	}
}

// Snapshot returns copies of the cumulative stage timings (ns, plus a
// "<stage>.calls" entry) and the counters, keyed by name. A counter
// appears once something has been added to it, even zero.
func (r *HostRecorder) Snapshot() (stages map[string]int64, counters map[string]int64) {
	r.mu.Lock()
	stages = make(map[string]int64, 2*len(r.stageNS))
	for k, v := range r.stageNS {
		stages[k] = v
		stages[k+".calls"] = r.stageN[k]
	}
	r.mu.Unlock()
	counters = make(map[string]int64)
	for c := range r.counters {
		if r.touched[c].Load() {
			counters[hostCounterNames[c]] = r.counters[c].Load()
		}
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

// HostStatsSnapshot snapshots DefaultHostRecorder.
//
// Deprecated: covers only the process-global recorder; per-host stats
// live on each host's HostRecorder.
func HostStatsSnapshot() (stages map[string]int64, counters map[string]int64) {
	return DefaultHostRecorder.Snapshot()
}
