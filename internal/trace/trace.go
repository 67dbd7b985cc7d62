// Package trace records boot timelines the way the paper measures them
// (§6.1 Testing Methodology): guest stages emit timing events through the
// debug-port device / GHCB MSR writes, the VMM stamps them with the
// (virtual) clock, and the breakdown splits total boot time into the four
// parts reported in Fig. 11 — VMM, Boot Verification, Bootstrap Loader,
// and Linux Boot — plus pre-encryption and attestation spans.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// Event is one stamped timing event.
type Event struct {
	At sim.Time
	Ev sev.TimingEvent
}

// RootSpan is the name of the span a scoped timeline opens for the
// whole boot; everything the boot does nests under it.
const RootSpan = "vm.boot"

// Timeline collects events and named spans for one boot. A timeline
// built with NewScoped over a registry is additionally a *span scope*:
// Begin/End become nested spans on the boot's track, Record also emits
// instant events, and the whole boot lives under one RootSpan span that
// Close ends. An unscoped timeline (NewScoped with a nil registry)
// collects the same events and durations for Breakdown but has no span
// tree, so nothing to render.
//
// A boot records at most a dozen events and a fleet boot opens seven
// stages (a forked one, one), so both live in slices whose first backing
// arrays are part of the Timeline itself, and stages are found by a
// linear scan: a timeline is one allocation until a boot outgrows them.
type Timeline struct {
	Start  sim.Time
	events []Event
	stages []stage

	reg   *telemetry.Registry
	track string
	root  *telemetry.Span
	tree  []*telemetry.Span // the span tree as the root closed

	eventBuf [12]Event
	stageBuf [8]stage
}

// stage is one named host-side span: its accumulated duration over
// every Begin/End pair so far and, while open, its opening stamp and
// registry span.
type stage struct {
	name  string
	total time.Duration
	at    sim.Time
	span  *telemetry.Span
	open  bool
}

// NewScoped returns a timeline that mirrors everything it records into
// reg on the given track (normally the booting proc's name). A nil reg
// records into the timeline alone.
func NewScoped(reg *telemetry.Registry, track string, start sim.Time) *Timeline {
	t := &Timeline{Start: start}
	t.events = t.eventBuf[:0]
	t.stages = t.stageBuf[:0]
	if reg != nil {
		t.reg = reg
		t.track = track
		t.root = reg.StartSpan(track, RootSpan, start)
	}
	return t
}

// Annotate attaches an attribute (scheme, level, codec, asid …) to the
// boot's root span. No-op when unscoped.
func (t *Timeline) Annotate(key, value string) { t.root.Annotate(key, value) }

// Close ends the boot's root span, keeping its span tree. No-op when
// unscoped or already closed, so success and error paths may call it.
func (t *Timeline) Close(at sim.Time) {
	if t.root != nil && !t.root.Done {
		t.tree = t.reg.Subtree(t.root)
		t.root.Close(at)
	}
}

// Record stamps a guest timing event (a debug-port write).
func (t *Timeline) Record(at sim.Time, ev sev.TimingEvent) {
	t.events = append(t.events, Event{At: at, Ev: ev})
	if t.reg != nil {
		t.reg.Emit(t.track, EventName(ev), at)
	}
}

// EventAt returns the stamp of the first occurrence of ev.
func (t *Timeline) EventAt(ev sev.TimingEvent) (sim.Time, bool) {
	for _, e := range t.events {
		if e.Ev == ev {
			return e.At, true
		}
	}
	return 0, false
}

// stage returns the named stage, nil when it was never begun.
func (t *Timeline) stage(name string) *stage {
	for i := range t.stages {
		if t.stages[i].name == name {
			return &t.stages[i]
		}
	}
	return nil
}

// Begin opens a named host-side span (e.g. "preenc"). Beginning a span
// that is already open restarts it.
func (t *Timeline) Begin(name string, at sim.Time) {
	st := t.stage(name)
	if st == nil {
		t.stages = append(t.stages, stage{name: name})
		st = &t.stages[len(t.stages)-1]
	}
	st.at = at
	st.open = true
	if t.reg != nil {
		st.span = t.reg.StartSpan(t.track, name, at)
	}
}

// End closes a named span, accumulating its duration.
func (t *Timeline) End(name string, at sim.Time) {
	st := t.stage(name)
	if st == nil || !st.open {
		panic("trace: End of unopened span " + name)
	}
	st.open = false
	st.total += at.Sub(st.at)
	st.span.Close(at)
	st.span = nil
}

// Span returns the accumulated duration of a named span.
func (t *Timeline) Span(name string) time.Duration {
	if st := t.stage(name); st != nil {
		return st.total
	}
	return 0
}

// Spans returns this boot's span tree — the root span plus every span
// recorded under it (including scheduler wait spans the sim tracer
// parented inside the boot). Nil when unscoped.
func (t *Timeline) Spans() []*telemetry.Span {
	if t.tree != nil {
		return t.tree
	}
	return t.reg.Subtree(t.root)
}

// Events returns the guest timing events the timeline recorded up to its
// root span's close (all of them while it is open), in order; never an
// earlier boot's on the same track. Nil when unscoped.
func (t *Timeline) Events() []Event {
	if t.root == nil {
		return nil
	}
	end := sim.MaxTime
	if t.root.Done {
		end = t.root.Stop
	}
	var out []Event
	for _, e := range t.events {
		if e.At <= end {
			out = append(out, e)
		}
	}
	return out
}

// Breakdown is the paper's Fig. 11 decomposition plus the Fig. 10 columns.
type Breakdown struct {
	VMM              time.Duration // exec to guest entry (includes pre-encryption)
	PreEncryption    time.Duration // subset of VMM: LAUNCH_* commands
	BootVerification time.Duration // boot verifier / firmware run time
	Firmware         time.Duration // OVMF phases (QEMU flow only)
	BootstrapLoader  time.Duration // bzImage decompress+load stage
	LinuxBoot        time.Duration // kernel entry to init
	Total            time.Duration // exec to init
	Attestation      time.Duration // report round trip (after init)
	TotalWithAttest  time.Duration
}

// Breakdown derives the decomposition from the recorded events.
func (t *Timeline) Breakdown() Breakdown {
	var b Breakdown
	rel := func(ev sev.TimingEvent) (time.Duration, bool) {
		at, ok := t.EventAt(ev)
		if !ok {
			return 0, false
		}
		return at.Sub(t.Start), true
	}
	entry, hasEntry := rel(sev.EvGuestEntry)
	if hasEntry {
		b.VMM = entry
	}
	b.PreEncryption = t.Span("preenc")
	if vs, ok := rel(sev.EvVerifierStart); ok {
		if vd, ok2 := rel(sev.EvVerifierDone); ok2 {
			b.BootVerification = vd - vs
		}
	}
	if s, ok := rel(sev.EvFirmwareSEC); ok {
		// Firmware span: SEC start to verifier start (the verifier is the
		// last firmware stage in the QEMU/OVMF flow).
		if vd, ok2 := rel(sev.EvVerifierDone); ok2 {
			b.Firmware = vd - s
		}
	}
	if bs, ok := rel(sev.EvBootstrapStart); ok {
		if ke, ok2 := rel(sev.EvKernelEntry); ok2 {
			b.BootstrapLoader = ke - bs
		}
	}
	if ke, ok := rel(sev.EvKernelEntry); ok {
		if ie, ok2 := rel(sev.EvInitExec); ok2 {
			b.LinuxBoot = ie - ke
		}
	}
	if ie, ok := rel(sev.EvInitExec); ok {
		b.Total = ie
		b.TotalWithAttest = ie
	}
	if as, ok := rel(sev.EvAttestStart); ok {
		if ad, ok2 := rel(sev.EvAttestDone); ok2 {
			b.Attestation = ad - as
			if ad > b.TotalWithAttest {
				b.TotalWithAttest = ad
			}
		}
	}
	return b
}

func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "VMM %v (preenc %v)", b.VMM.Round(10*time.Microsecond), b.PreEncryption.Round(10*time.Microsecond))
	if b.Firmware > 0 {
		fmt.Fprintf(&sb, " | firmware %v", b.Firmware.Round(10*time.Microsecond))
	}
	fmt.Fprintf(&sb, " | verify %v | bootstrap %v | linux %v | total %v",
		b.BootVerification.Round(10*time.Microsecond),
		b.BootstrapLoader.Round(10*time.Microsecond),
		b.LinuxBoot.Round(10*time.Microsecond),
		b.Total.Round(10*time.Microsecond))
	if b.Attestation > 0 {
		fmt.Fprintf(&sb, " | attest %v (end-to-end %v)",
			b.Attestation.Round(10*time.Microsecond),
			b.TotalWithAttest.Round(10*time.Microsecond))
	}
	return sb.String()
}

// --- statistics over repeated boots ---

// Series is a set of durations from repeated runs.
type Series []time.Duration

// Mean returns the arithmetic mean.
func (s Series) Mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// Stddev returns the population standard deviation.
func (s Series) Stddev() time.Duration {
	if len(s) < 2 {
		return 0
	}
	m := float64(s.Mean())
	var acc float64
	for _, d := range s {
		diff := float64(d) - m
		acc += diff * diff
	}
	return time.Duration(math.Sqrt(acc / float64(len(s))))
}

// Percentile returns the p-th percentile (0-100) by nearest rank, the
// rule telemetry's Series.Quantile uses.
func (s Series) Percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(Series(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[telemetry.NearestRank(len(sorted), p/100)]
}

// CDFPoint is one (x, F(x)) sample.
type CDFPoint struct {
	Value    time.Duration
	Fraction float64
}

// CDF returns the empirical distribution, one point per sample.
func (s Series) CDF() []CDFPoint {
	sorted := append(Series(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]CDFPoint, len(sorted))
	for i, v := range sorted {
		out[i] = CDFPoint{Value: v, Fraction: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// RenderAs draws this series' empirical CDF as ASCII with the given title.
func (s Series) RenderAs(title string) string { return RenderCDF(title, s, 60) }
