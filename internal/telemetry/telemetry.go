// Package telemetry is the repo's observability spine: one registry of
// spans, instant events, counters, gauges, and duration series, all
// stamped from the simulation's virtual clock (sim.Time) and never the
// wall clock. Because every stamp is virtual, two runs with the same
// seed produce byte-identical exporter output — traces are artifacts of
// the model, not of host scheduling.
//
// Writers fall into two classes, and the registry is safe for both:
//
//   - Simulation processes. The engine runs exactly one process at a
//     time, so these writes are already serialized; the registry's
//     mutex costs nothing but makes the property local instead of
//     global.
//   - Ordinary goroutines (fleet submitters, servers). These go
//     through the same mutex, so a registry may be shared across
//     engines or threads.
//
// Readers (exporters, Result.Spans) are expected to run after
// Engine.Run returns, but locking makes mid-run scraping safe too.
//
// Spans live on tracks. A track is one horizontal lane in the exported
// trace — by convention the name of the sim proc that did the work
// ("vm-3", "fleet-worker-0") or the shared resource that served it
// ("psp", "kbs"). Within a track, spans nest: StartSpan parents the new
// span under the track's innermost open span, which is how a boot's
// "preenc" span ends up inside its "vm.boot" root.
package telemetry

import (
	"sort"
	"sync"
	"time"

	"github.com/severifast/severifast/internal/sim"
)

// Attr is one key=value annotation on a span, event, or metric.
type Attr struct {
	Key   string
	Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is a named interval of virtual time on a track. Spans are
// created through Registry.StartSpan or Registry.Record; the zero value
// and the nil pointer are inert (all methods are nil-safe), so
// instrumentation sites never need to guard against a missing registry.
type Span struct {
	ID     int      // 1-based creation order, unique per registry
	Parent int      // enclosing span's ID, 0 for a track root
	Track  string   // lane the span renders on
	Name   string   // e.g. "vm.boot", "preenc", "wait psp"
	Start  sim.Time // opening stamp
	Stop   sim.Time // closing stamp; meaningful only once Done
	Attrs  []Attr
	Done   bool // false while the span is still open

	reg *Registry
	// root is the track root the span's parent chain ends at (itself when
	// Parent is 0); a track root with descendants lists itself and them in
	// tree, in creation order, so a boot's subtree is read off its root.
	root *Span
	tree []*Span
}

// Close ends the span at the given virtual time. Closing an already
// closed span or a nil span is a no-op, so error paths may leave spans
// open; exporters clamp open spans to the registry's horizon.
func (s *Span) Close(at sim.Time) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	if s.Done {
		return
	}
	if at < s.Start {
		at = s.Start
	}
	s.Stop = at
	s.Done = true
	s.reg.stampLocked(at)
	if s.reg.unindexed && s.root == s {
		// No link between carved spans is left to keep another boot alive.
		for _, d := range s.tree {
			d.root = d
		}
		s.tree = nil
	}
	stack := s.reg.open[s.Track]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == s {
			s.reg.open[s.Track] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
}

// Annotate attaches an attribute to the span. Later values for the same
// key are appended, not replaced; exporters keep the last. A full run
// of attributes moves to a run twice its size (at least four) carved
// from the registry's attribute slab, so annotating allocates nothing
// per call.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	s.Attrs = appendCarved(&s.reg.attrs, s.Attrs, Attr{Key: key, Value: value})
}

// Event is an instant marker on a track (a guest debug-port write, a
// scheduler transition).
type Event struct {
	Seq   int // creation order, breaks same-instant ties deterministically
	Track string
	Name  string
	At    sim.Time
	Attrs []Attr
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	Name  string
	Attrs []Attr

	mu sync.Mutex
	v  int64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a set-to-current-value metric (queue depth, pool size).
type Gauge struct {
	Name  string
	Attrs []Attr

	mu sync.Mutex
	v  float64
}

// Set records the current value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Max raises the gauge to v if v is larger. Nil-safe.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if v > g.v {
		g.v = v
	}
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Series is a distribution metric over virtual durations (boot latency,
// queue wait). It keeps every observation; exports summarize.
type Series struct {
	Name  string
	Attrs []Attr

	mu  sync.Mutex
	obs []time.Duration
	sum time.Duration
}

// Observe records one duration. Nil-safe.
func (s *Series) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.obs = append(s.obs, d)
	s.sum += d
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *Series) Count() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.obs)
}

// Sum returns the total of all observations.
func (s *Series) Sum() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// Quantile returns the q-th quantile (0..1) by nearest rank.
func (s *Series) Quantile(q float64) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.obs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.obs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(float64(len(sorted))*q+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// slab hands out runs of T carved from chunks it allocates: the first
// chunk is small, each later one twice the last up to a cap. A registry
// that records one boot pays for one small chunk; one that records
// thousands pays one allocation per cap-sized chunk, not one per span.
type slab[T any] struct {
	free        []T
	next, limit int // next chunk's length, and its cap
}

// carve returns a zeroed run of n elements whose capacity is n, so an
// append to it never writes into its neighbour.
func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(s.next, n))
		s.next = min(2*s.next, s.limit)
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}

// appendCarved appends v to run, first moving a full run to one twice
// its size (at least four) carved from s.
func appendCarved[T any](s *slab[T], run []T, v T) []T {
	if n := len(run); n == cap(run) {
		grown := s.carve(max(2*n, 4))[:n]
		copy(grown, run)
		run = grown
	}
	return append(run, v)
}

// cloneAttrs copies attrs into a run carved from s; nil when empty.
func cloneAttrs(s *slab[Attr], attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	run := s.carve(len(attrs))
	copy(run, attrs)
	return run
}

// Registry is the single sink all instrumentation writes into. The
// zero value is not usable; call NewRegistry. A nil *Registry is inert:
// every method is a no-op returning zero values, so call sites need no
// nil checks.
type Registry struct {
	mu       sync.Mutex
	spans    []*Span // the index, in creation order
	events   []Event
	horizon  sim.Time           // latest stamp of any span or event
	open     map[string][]*Span // per-track stack of open spans
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*Series

	lastID    int  // the latest span's ID
	unindexed bool // set by StopIndexing: spans and events stay empty
	spanSlab  slab[Span]
	attrs     slab[Attr]
	trees     slab[*Span]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		open:     make(map[string][]*Span),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		series:   make(map[string]*Series),
		spanSlab: slab[Span]{next: 8, limit: 64},
		attrs:    slab[Attr]{next: 16, limit: 128},
		trees:    slab[*Span]{next: 32, limit: 128},
	}
}

// StopIndexing keeps later spans and events out of the index that Spans,
// Events and the exporters read, and makes a track root drop its tree as
// it closes (read it first, as trace.Timeline.Close does), so a span
// lives only while something holds it. For a registry nothing exports;
// call it before the registry records anything.
func (r *Registry) StopIndexing() { r.unindexed = true }

// stampLocked raises the horizon to at.
func (r *Registry) stampLocked(at sim.Time) {
	if at > r.horizon {
		r.horizon = at
	}
}

// StartSpan opens a span on track at the given virtual time, nested
// under the track's innermost open span. Close it with Span.Close.
func (r *Registry) StartSpan(track, name string, at sim.Time, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.newSpanLocked(track, name, at, attrs)
	r.open[track] = append(r.open[track], s)
	return s
}

// Record adds an already-closed span [from, to] on track, parented
// under the track's innermost open span. It is the retrospective form
// of StartSpan/Close, for intervals whose extent is only known at the
// end (queue waits, whole-request latencies).
func (r *Registry) Record(track, name string, from, to sim.Time, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.newSpanLocked(track, name, from, attrs)
	if to < from {
		to = from
	}
	s.Stop = to
	s.Done = true
	r.stampLocked(to)
	return s
}

// newSpanLocked carves the span and its attributes from the registry's
// slabs and lists it on its track root; it allocates only when a slab
// runs out.
func (r *Registry) newSpanLocked(track, name string, at sim.Time, attrs []Attr) *Span {
	s := &r.spanSlab.carve(1)[0]
	r.lastID++
	*s = Span{
		ID:    r.lastID,
		Track: track,
		Name:  name,
		Start: at,
		Attrs: cloneAttrs(&r.attrs, attrs),
		reg:   r,
	}
	s.root = s
	if stack := r.open[track]; len(stack) > 0 {
		parent := stack[len(stack)-1]
		s.Parent, s.root = parent.ID, parent.root
		if s.root.tree == nil {
			s.root.tree = appendCarved(&r.trees, nil, s.root)
		}
		s.root.tree = appendCarved(&r.trees, s.root.tree, s)
	}
	if !r.unindexed {
		r.spans = append(r.spans, s)
	}
	r.stampLocked(at)
	return s
}

// Emit records an instant event on track.
func (r *Registry) Emit(track, name string, at sim.Time, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.unindexed {
		r.events = append(r.events, Event{
			Seq:   len(r.events),
			Track: track,
			Name:  name,
			At:    at,
			Attrs: cloneAttrs(&r.attrs, attrs),
		})
	}
	r.stampLocked(at)
}

// Metric keys and sorted attributes are built in these stack buffers;
// a longer key or more attributes spill to the heap and stay correct.
const (
	keyBufLen  = 128
	attrBufLen = 8
)

// instrument returns (creating on first use) the instrument in m for
// (name, attrs). Instruments with the same name and the same attributes
// in any order share one key, "name{k1=v1,k2=v2}" with attributes
// sorted by key; a lookup of an existing instrument allocates nothing.
func instrument[T any](r *Registry, m map[string]*T, name string, attrs []Attr, create func(name string, attrs []Attr) *T) *T {
	var ab [attrBufLen]Attr
	sorted := append(ab[:0], attrs...)
	for i := 1; i < len(sorted); i++ { // stable insertion sort
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var kb [keyBufLen]byte
	key := append(kb[:0], name...)
	for i, a := range sorted {
		if i == 0 {
			key = append(key, '{')
		} else {
			key = append(key, ',')
		}
		key = append(key, a.Key...)
		key = append(key, '=')
		key = append(key, a.Value...)
	}
	if len(sorted) > 0 {
		key = append(key, '}')
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[string(key)]
	if !ok {
		v = create(name, append([]Attr(nil), sorted...))
		m[string(key)] = v
	}
	return v
}

// Counter returns (creating on first use) the counter for (name, attrs).
func (r *Registry) Counter(name string, attrs ...Attr) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, name, attrs, func(name string, attrs []Attr) *Counter {
		return &Counter{Name: name, Attrs: attrs}
	})
}

// Gauge returns (creating on first use) the gauge for (name, attrs).
func (r *Registry) Gauge(name string, attrs ...Attr) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, name, attrs, func(name string, attrs []Attr) *Gauge {
		return &Gauge{Name: name, Attrs: attrs}
	})
}

// Series returns (creating on first use) the series for (name, attrs).
func (r *Registry) Series(name string, attrs ...Attr) *Series {
	if r == nil {
		return nil
	}
	return instrument(r, r.series, name, attrs, func(name string, attrs []Attr) *Series {
		return &Series{Name: name, Attrs: attrs}
	})
}

// Spans returns all spans in creation order. The slice is a copy; the
// spans are shared, so treat them as read-only.
func (r *Registry) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.spans...)
}

// Events returns all instant events in creation order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Subtree returns root followed by every span whose parent chain
// reaches root, in creation order. Used by Result.Spans to carve one
// boot out of a registry shared across boots. A track root's is its tree
// itself, so treat it as read-only; any other span's is filtered from its
// track root's tree, from the span's own place in it.
func (r *Registry) Subtree(root *Span) []*Span {
	if r == nil || root == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(root.tree); n > 0 {
		return root.tree[:n:n]
	}
	out := []*Span{root}
	if root.root == nil || root.root == root {
		return out
	}
	tree := root.root.tree
	from := sort.Search(len(tree), func(i int) bool { return tree[i].ID > root.ID })
	for _, s := range tree[from:] {
		if s.Parent < root.ID {
			continue
		}
		// out is in ID order, so the parent is found by bisection.
		i := sort.Search(len(out), func(i int) bool { return out[i].ID >= s.Parent })
		if i < len(out) && out[i].ID == s.Parent {
			out = append(out, s)
		}
	}
	return out
}

// Horizon returns the latest stamp seen by any span or event; exporters
// clamp still-open spans to it.
func (r *Registry) Horizon() sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.horizon
}

// --- sim.Tracer implementation ---
//
// The registry doubles as the engine's scheduler tracer, so resource
// queueing (the PSP bottleneck) and service periods show up as spans
// without the model knowing about telemetry.

// TraceWait records a resource queue wait on the waiting proc's track.
func (r *Registry) TraceWait(proc, resource string, from, to sim.Time) {
	if r == nil || to <= from {
		return
	}
	r.Record(proc, "wait "+resource, from, to, A("resource", resource))
}

// TraceService records a service period on the resource's track, named
// after the command label when the caller provides one.
func (r *Registry) TraceService(proc, resource, label string, from, to sim.Time) {
	if r == nil || to <= from {
		return
	}
	name := label
	if name == "" {
		name = resource + ".service"
	}
	r.Record(resource, name, from, to, A("proc", proc))
}

// TraceIdle records a runnable-gap (parked) interval on the proc's track.
func (r *Registry) TraceIdle(proc string, from, to sim.Time) {
	if r == nil || to <= from {
		return
	}
	r.Record(proc, "parked", from, to)
}
