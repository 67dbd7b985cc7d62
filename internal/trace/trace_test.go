package trace

import (
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
