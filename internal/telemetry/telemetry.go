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
	"strings"
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
	stack := s.reg.open[s.Track]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == s {
			s.reg.open[s.Track] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
}

// Annotate attaches an attribute to the span. Later values for the same
// key are appended, not replaced; exporters keep the last.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
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

// Registry is the single sink all instrumentation writes into. The
// zero value is not usable; call NewRegistry. A nil *Registry is inert:
// every method is a no-op returning zero values, so call sites need no
// nil checks.
type Registry struct {
	mu       sync.Mutex
	nextID   int
	spans    []*Span
	events   []Event
	open     map[string][]*Span // per-track stack of open spans
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		open:     make(map[string][]*Span),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		series:   make(map[string]*Series),
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
	return s
}

func (r *Registry) newSpanLocked(track, name string, at sim.Time, attrs []Attr) *Span {
	r.nextID++
	s := &Span{
		ID:    r.nextID,
		Track: track,
		Name:  name,
		Start: at,
		Attrs: append([]Attr(nil), attrs...),
		reg:   r,
	}
	if stack := r.open[track]; len(stack) > 0 {
		s.Parent = stack[len(stack)-1].ID
	}
	r.spans = append(r.spans, s)
	return s
}

// Emit records an instant event on track.
func (r *Registry) Emit(track, name string, at sim.Time, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Seq:   len(r.events),
		Track: track,
		Name:  name,
		At:    at,
		Attrs: append([]Attr(nil), attrs...),
	})
}

// metricKey canonicalizes (name, attrs) so repeated lookups share one
// instrument. Attrs are sorted by key.
func metricKey(name string, attrs []Attr) string {
	if len(attrs) == 0 {
		return name
	}
	sorted := append([]Attr(nil), attrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, a := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func sortedAttrs(attrs []Attr) []Attr {
	sorted := append([]Attr(nil), attrs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return sorted
}

// Counter returns (creating on first use) the counter for (name, attrs).
func (r *Registry) Counter(name string, attrs ...Attr) *Counter {
	if r == nil {
		return nil
	}
	key := metricKey(name, attrs)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{Name: name, Attrs: sortedAttrs(attrs)}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge for (name, attrs).
func (r *Registry) Gauge(name string, attrs ...Attr) *Gauge {
	if r == nil {
		return nil
	}
	key := metricKey(name, attrs)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{Name: name, Attrs: sortedAttrs(attrs)}
		r.gauges[key] = g
	}
	return g
}

// Series returns (creating on first use) the series for (name, attrs).
func (r *Registry) Series(name string, attrs ...Attr) *Series {
	if r == nil {
		return nil
	}
	key := metricKey(name, attrs)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[key]
	if !ok {
		s = &Series{Name: name, Attrs: sortedAttrs(attrs)}
		r.series[key] = s
	}
	return s
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
// boot out of a registry shared across boots.
func (r *Registry) Subtree(root *Span) []*Span {
	if r == nil || root == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	in := map[int]bool{root.ID: true}
	out := []*Span{root}
	for _, s := range r.spans {
		if s.ID == root.ID {
			continue
		}
		if in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// EventsOn returns events on track within [from, to], in order.
func (r *Registry) EventsOn(track string, from, to sim.Time) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Track == track && e.At >= from && e.At <= to {
			out = append(out, e)
		}
	}
	return out
}

// SpanCount returns the number of closed spans with the given name that
// carry attribute key=value ("" value matches any). Used by acceptance
// checks (fleet.boot per-tier counts vs. the fleet report).
func (r *Registry) SpanCount(name, key, value string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if key == "" {
			n++
			continue
		}
		for i := len(s.Attrs) - 1; i >= 0; i-- {
			if s.Attrs[i].Key == key {
				if value == "" || s.Attrs[i].Value == value {
					n++
				}
				break
			}
		}
	}
	return n
}

// Horizon returns the latest stamp seen by any span or event; exporters
// clamp still-open spans to it.
func (r *Registry) Horizon() sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.horizonLocked()
}

func (r *Registry) horizonLocked() sim.Time {
	var h sim.Time
	for _, s := range r.spans {
		if s.Start > h {
			h = s.Start
		}
		if s.Done && s.Stop > h {
			h = s.Stop
		}
	}
	for _, e := range r.events {
		if e.At > h {
			h = e.At
		}
	}
	return h
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
