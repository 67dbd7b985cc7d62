package trace

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// New is an unscoped timeline whose zero point is start, the tests'
// shorthand.
func New(start sim.Time) *Timeline { return NewScoped(nil, "", start) }

func ms(n int64) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func sampleTimeline() *Timeline {
	t := NewScoped(telemetry.NewRegistry(), "vm0", ms(100)) // VMM exec at t=100ms
	t.Begin("preenc", ms(102))
	t.End("preenc", ms(110))
	t.Record(ms(112), sev.EvGuestEntry)
	t.Record(ms(112), sev.EvVerifierStart)
	t.Record(ms(137), sev.EvVerifierDone)
	t.Record(ms(137), sev.EvBootstrapStart)
	t.Record(ms(150), sev.EvKernelEntry)
	t.Record(ms(225), sev.EvInitExec)
	t.Record(ms(225), sev.EvAttestStart)
	t.Record(ms(425), sev.EvAttestDone)
	t.Close(ms(425))
	return t
}

func TestBreakdown(t *testing.T) {
	b := sampleTimeline().Breakdown()
	check := func(name string, got, want time.Duration) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("VMM", b.VMM, 12*time.Millisecond)
	check("PreEncryption", b.PreEncryption, 8*time.Millisecond)
	check("BootVerification", b.BootVerification, 25*time.Millisecond)
	check("BootstrapLoader", b.BootstrapLoader, 13*time.Millisecond)
	check("LinuxBoot", b.LinuxBoot, 75*time.Millisecond)
	check("Total", b.Total, 125*time.Millisecond)
	check("Attestation", b.Attestation, 200*time.Millisecond)
	check("TotalWithAttest", b.TotalWithAttest, 325*time.Millisecond)
}

func TestBreakdownPartsSumToTotal(t *testing.T) {
	b := sampleTimeline().Breakdown()
	sum := b.VMM + b.BootVerification + b.BootstrapLoader + b.LinuxBoot
	if sum != b.Total {
		t.Fatalf("parts sum %v != total %v", sum, b.Total)
	}
}

func TestMissingEventsYieldZeroSpans(t *testing.T) {
	tl := New(0)
	tl.Record(ms(10), sev.EvGuestEntry)
	b := tl.Breakdown()
	if b.BootVerification != 0 || b.LinuxBoot != 0 || b.Total != 0 {
		t.Fatalf("missing events produced nonzero spans: %+v", b)
	}
	if b.VMM != 10*time.Millisecond {
		t.Fatalf("VMM = %v", b.VMM)
	}
}

func TestFirmwareSpan(t *testing.T) {
	tl := New(0)
	tl.Record(ms(300), sev.EvGuestEntry)
	tl.Record(ms(300), sev.EvFirmwareSEC)
	tl.Record(ms(350), sev.EvFirmwarePEI)
	tl.Record(ms(800), sev.EvFirmwareDXE)
	tl.Record(ms(3000), sev.EvFirmwareBDS)
	tl.Record(ms(3400), sev.EvVerifierStart)
	tl.Record(ms(3430), sev.EvVerifierDone)
	b := tl.Breakdown()
	if b.Firmware != 3130*time.Millisecond {
		t.Fatalf("Firmware = %v, want 3.13s", b.Firmware)
	}
}

func TestEndUnopenedSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("End of unopened span did not panic")
		}
	}()
	New(0).End("nope", ms(1))
}

func TestSpanAccumulates(t *testing.T) {
	tl := New(0)
	tl.Begin("preenc", ms(0))
	tl.End("preenc", ms(3))
	tl.Begin("preenc", ms(10))
	tl.End("preenc", ms(15))
	if tl.Span("preenc") != 8*time.Millisecond {
		t.Fatalf("accumulated span = %v", tl.Span("preenc"))
	}
}

func TestBreakdownString(t *testing.T) {
	s := sampleTimeline().Breakdown().String()
	for _, want := range []string{"VMM", "verify", "linux", "attest"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestSeriesStats(t *testing.T) {
	s := Series{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if s.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean())
	}
	if sd := s.Stddev(); sd < 8*time.Millisecond || sd > 9*time.Millisecond {
		t.Fatalf("stddev = %v, want ~8.16ms", sd)
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Stddev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series should give zeros")
	}
	if len(s.CDF()) != 0 {
		t.Fatal("empty CDF should be empty")
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if s.Percentile(50) != 50*time.Millisecond {
		t.Fatalf("p50 = %v", s.Percentile(50))
	}
	if s.Percentile(0) != time.Millisecond {
		t.Fatalf("p0 = %v", s.Percentile(0))
	}
	if s.Percentile(100) != 100*time.Millisecond {
		t.Fatalf("p100 = %v", s.Percentile(100))
	}
	if s.Percentile(99) != 99*time.Millisecond {
		t.Fatalf("p99 = %v", s.Percentile(99))
	}
}

// TestPercentileForgivesFloatError: p/100·n lands a hair above an integer
// for p = 99.9, n = 1000 and p = 7, n = 100; nearest rank must still pick
// the 999th and the 7th sample, as telemetry's Quantile does.
func TestPercentileForgivesFloatError(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99.9, 999}, {100, 7, 7}, {100, 0.5, 1}, {3, 50, 2}, {3, -1, 1}, {3, 1e300, 3}} {
		var s Series
		for i := tc.n; i >= 1; i-- {
			s = append(s, time.Duration(i))
		}
		if got := s.Percentile(tc.p); got != time.Duration(tc.want) {
			t.Errorf("Percentile(%v) of 1..%d = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	s := Series{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	cdf := s.CDF()
	if len(cdf) != 3 {
		t.Fatalf("%d points", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF not monotone: %+v", cdf)
		}
	}
	if cdf[len(cdf)-1].Fraction != 1.0 {
		t.Fatalf("CDF does not reach 1: %+v", cdf)
	}
}

func TestRenderTimeline(t *testing.T) {
	out := sampleTimeline().RenderTimeline(80)
	for _, want := range []string{"boot timeline (total 325ms)", "vm.boot", "  preenc", "· kernel entry @ 50ms", "█"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	if out := New(0).RenderTimeline(80); !strings.Contains(out, "no events") {
		t.Fatalf("empty render: %q", out)
	}
}

func TestRenderCDF(t *testing.T) {
	s := Series{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	out := RenderCDF("boot", s, 40)
	for _, want := range []string{"p50", "p99", "▌"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CDF render missing %q:\n%s", want, out)
		}
	}
	if RenderCDF("empty", nil, 40) != "empty: (no samples)\n" {
		t.Fatal("empty CDF render")
	}
}

// mapTimeline is the map-keyed Timeline the slice-backed one replaced,
// kept as its reference: stage starts and accumulated durations in maps,
// events in order.
type mapTimeline struct {
	events []Event
	spans  map[string]time.Duration
	open   map[string]sim.Time
}

func (m *mapTimeline) Begin(name string, at sim.Time) { m.open[name] = at }

func (m *mapTimeline) End(name string, at sim.Time) {
	start, ok := m.open[name]
	if !ok {
		panic("trace: End of unopened span " + name)
	}
	delete(m.open, name)
	m.spans[name] += at.Sub(start)
}

// panicOf runs fn and returns what it panicked with, nil if nothing.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestTimelineMatchesMapReference applies random Begin/End/Record
// sequences — repeated names, Ends of names never or no longer open,
// more stages and events than a timeline holds inline — to a scoped and
// an unscoped Timeline and to the map reference, and holds Span,
// Breakdown and every panic equal.
func TestTimelineMatchesMapReference(t *testing.T) {
	names := []string{"preenc", "vmm.stage", "attest", "linux.boot", "bootstrap", "firmware",
		"hash.components", "sev.host-prep", "snapshot.restore", "verify kernel", "verify initrd"}
	events := []sev.TimingEvent{sev.EvGuestEntry, sev.EvVerifierStart, sev.EvVerifierDone, sev.EvBootstrapStart,
		sev.EvKernelEntry, sev.EvInitExec, sev.EvAttestStart, sev.EvAttestDone, sev.EvFirmwareSEC}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		start := ms(rng.Int63n(100))
		reg := telemetry.NewRegistry()
		got := []*Timeline{NewScoped(reg, "vm-0", start), New(start)}
		ref := &mapTimeline{spans: map[string]time.Duration{}, open: map[string]sim.Time{}}
		at := start
		restarted := 0 // Begins of an open name, whose earlier span stays open
		for step := 0; step < 60; step++ {
			at += sim.Time(rng.Int63n(int64(5 * time.Millisecond)))
			name := names[rng.Intn(len(names))]
			switch rng.Intn(3) {
			case 0:
				if _, ok := ref.open[name]; ok {
					restarted++
				}
				ref.Begin(name, at)
				for _, tl := range got {
					tl.Begin(name, at)
				}
			case 1:
				want := panicOf(func() { ref.End(name, at) })
				for i, tl := range got {
					if p := panicOf(func() { tl.End(name, at) }); p != want {
						t.Fatalf("seed %d step %d timeline %d: End(%q) panicked with %v, reference %v", seed, step, i, name, p, want)
					}
				}
			default:
				ev := events[rng.Intn(len(events))]
				ref.events = append(ref.events, Event{At: at, Ev: ev})
				for _, tl := range got {
					tl.Record(at, ev)
				}
			}
			for _, n := range append(names, "never") {
				for i, tl := range got {
					if tl.Span(n) != ref.spans[n] {
						t.Fatalf("seed %d step %d timeline %d: Span(%q) = %v, reference %v", seed, step, i, n, tl.Span(n), ref.spans[n])
					}
				}
			}
		}
		// Breakdown reads the events and the "preenc" total: replay the
		// reference's events into a stage-free timeline and take its
		// preenc from the reference's map.
		replay := New(start)
		for _, e := range ref.events {
			replay.Record(e.At, e.Ev)
		}
		want := replay.Breakdown()
		want.PreEncryption = ref.spans["preenc"]
		for i, tl := range got {
			if b := tl.Breakdown(); b != want {
				t.Fatalf("seed %d timeline %d: Breakdown = %+v, reference %+v", seed, i, b, want)
			}
		}
		// The scoped timeline closed the span of every End: what is left
		// open is the root, the reference's open stages and the spans
		// their restarts left behind.
		openSpans := 0
		for _, s := range reg.Spans() {
			if !s.Done {
				openSpans++
			}
		}
		if want := 1 + len(ref.open) + restarted; openSpans != want {
			t.Fatalf("seed %d: %d spans open, want %d", seed, openSpans, want)
		}
	}
}
