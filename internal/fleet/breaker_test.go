package fleet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/sim"
)

// flakyKBS wraps the broker with a virtual-time outage switch: while down,
// Challenge and Redeem return plain transport errors (not denials), which
// is the failure shape that feeds the circuit breaker.
type flakyKBS struct {
	kbs.Service
	down  func(now sim.Time) bool
	calls int
}

func (f *flakyKBS) Challenge(tenant string, now sim.Time) (kbs.Challenge, error) {
	f.calls++
	if f.down(now) {
		return kbs.Challenge{}, fmt.Errorf("kbs transport: connection refused")
	}
	return f.Service.Challenge(tenant, now)
}

func (f *flakyKBS) Redeem(req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
	f.calls++
	if f.down(now) {
		return nil, fmt.Errorf("kbs transport: connection refused")
	}
	return f.Service.Redeem(req, now)
}

// breakerFleet assembles an attestation-gated fleet whose broker is
// unreachable inside [downFrom, downTo), with the breaker armed.
func breakerFleet(t *testing.T, workers int, pol BreakerPolicy, downFrom, downTo time.Duration) (*sim.Engine, *Orchestrator, *Image) {
	t.Helper()
	eng, o, img, _ := testKBSFleet(t, Config{
		Workers: workers,
		Retry:   RetryPolicy{Max: 1, Backoff: time.Millisecond},
		Breaker: pol,
	})
	from, to := sim.Time(0).Add(downFrom), sim.Time(0).Add(downTo)
	o.cfg.KBS = &flakyKBS{
		Service: o.cfg.KBS,
		down:    func(now sim.Time) bool { return now >= from && now < to },
	}
	return eng, o, img
}

// TestBreakerOpensFastFailsRecovers is the breaker acceptance scenario:
// under an always-failing broker the breaker opens within Threshold
// consecutive transport failures, subsequent boots fail fast with a
// kbs "unavailable" denial (ErrDenied, so the facade classifies it as an
// attestation denial) without touching the broker, and once the fault
// clears the half-open probe recovers the fleet — all visible as
// telemetry counters.
func TestBreakerOpensFastFailsRecovers(t *testing.T) {
	const threshold = 3
	// Outage covers the first ten virtual seconds — far beyond phase 1's
	// boots; boots submitted after recovery and cooldown succeed. The
	// cooldown must exceed one machine-boot time (~hundreds of virtual
	// ms), or every phase-1 attempt would qualify as a half-open probe
	// and nothing would fast-fail.
	eng, o, img := breakerFleet(t, 1, BreakerPolicy{
		Threshold: threshold,
		Cooldown:  2 * time.Second,
	}, 0, 10*time.Second)

	var errs []error
	submit := func(p *sim.Proc, n int, gap time.Duration) {
		for i := 0; i < n; i++ {
			if err := o.Submit(p, Request{Tenant: "t0", Image: img, Done: func(dp *sim.Proc, tier Tier, err error) {
				errs = append(errs, err)
			}}); err != nil {
				t.Error(err)
			}
			p.Sleep(gap)
		}
	}
	eng.Go("arrivals", func(p *sim.Proc) {
		// Phase 1: five boots into the outage. Retry.Max=1, so each boot
		// burns at most 2 transport failures; the breaker opens mid-phase
		// and the tail fails fast on the open breaker.
		submit(p, 5, time.Millisecond)
		// Phase 2: after the outage and a full cooldown, three more boots.
		// The first is the half-open probe; its success closes the breaker.
		p.Sleep(15 * time.Second)
		submit(p, 3, time.Millisecond)
		o.Close()
	})
	eng.Run()

	if len(errs) != 8 {
		t.Fatalf("recorded %d outcomes, want 8", len(errs))
	}
	var unreachable, fastFail, ok int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, kbs.ErrUnavailable):
			// Breaker refusal: a denial (fails fast, no retry) that is NOT
			// a transport error.
			if !errors.Is(err, kbs.ErrDenied) {
				t.Errorf("breaker refusal does not classify as a denial: %v", err)
			}
			if errors.Is(err, ErrKBSUnreachable) {
				t.Errorf("breaker refusal classified as transport error: %v", err)
			}
			fastFail++
		case errors.Is(err, ErrKBSUnreachable):
			unreachable++
		default:
			t.Errorf("unclassified boot error: %v", err)
		}
	}
	if ok != 3 {
		t.Fatalf("%d boots succeeded after recovery, want 3 (errors: %v)", ok, errs)
	}
	if fastFail == 0 {
		t.Fatal("no boot failed fast on the open breaker")
	}
	if unreachable == 0 {
		t.Fatal("no boot surfaced the underlying transport failure")
	}

	m := o.Metrics()
	if m.BreakerFastFails != fastFail {
		t.Fatalf("BreakerFastFails=%d, want %d", m.BreakerFastFails, fastFail)
	}
	if m.Denials[string(kbs.ReasonUnavailable)] != fastFail {
		t.Fatalf("unavailable denials %v, want %d", m.Denials, fastFail)
	}
	if m.BreakerTransitions["open"] != 1 {
		t.Fatalf("breaker opened %d times, want once (transitions %v)", m.BreakerTransitions["open"], m.BreakerTransitions)
	}
	if m.BreakerTransitions["half-open"] != 1 || m.BreakerTransitions["closed"] != 1 {
		t.Fatalf("recovery transitions missing: %v", m.BreakerTransitions)
	}
	if got := o.brk.state.String(); got != "closed" {
		t.Fatalf("final breaker state %q, want closed", got)
	}
}

// TestBreakerThreshold: the breaker opens after exactly Threshold
// consecutive transport failures — not before — and a denial in between
// resets the count (a denial proves the broker is alive).
func TestBreakerThreshold(t *testing.T) {
	const threshold = 4
	// Retry.Max=1 → 2 transport failures per boot. One boot = 2 failures:
	// below threshold. Two boots = 4: opens exactly at the last attempt.
	eng, o, img := breakerFleet(t, 1, BreakerPolicy{
		Threshold: threshold,
		Cooldown:  time.Hour, // never recovers within this run
	}, 0, time.Hour)

	eng.Go("arrivals", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := o.Submit(p, Request{Tenant: "t0", Image: img}); err != nil {
				t.Error(err)
			}
			p.Sleep(time.Millisecond)
		}
		o.Close()
	})
	eng.Run()

	m := o.Metrics()
	if m.BreakerTransitions["open"] != 1 {
		t.Fatalf("open transitions %v, want exactly 1", m.BreakerTransitions)
	}
	// Boot 3 never reaches the broker: it fails fast on the open breaker.
	if m.BreakerFastFails != 1 {
		t.Fatalf("fast-fails %d, want 1", m.BreakerFastFails)
	}
	if o.brk.state.String() != "open" {
		t.Fatalf("final state %q, want open", o.brk.state.String())
	}
}

// TestBreakerDeterminism: same seeds, same outage, same schedule — for
// every worker count. The breaker's transitions and the run's virtual end
// time must reproduce bit for bit, and the whole thing must be race-clean
// (run with -race in CI).
func TestBreakerDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func() (sim.Time, string, map[string]int) {
				eng, o, img := breakerFleet(t, workers, BreakerPolicy{
					Threshold: 3,
					Cooldown:  50 * time.Millisecond,
				}, 5*time.Millisecond, 400*time.Millisecond)
				// Not runWorkload: breaker fast-fails are deterministic
				// errors, so o.Err() is non-nil by design here.
				w := Workload{
					Arrivals:         12,
					MeanInterarrival: 2 * time.Millisecond,
					Images:           []*Image{img},
					Seed:             5,
				}
				if err := w.Run(eng, o); err != nil {
					t.Fatal(err)
				}
				eng.Run()
				return eng.Now(), o.Metrics().Report(o.CacheStats(), 60), o.Metrics().BreakerTransitions
			}
			t1, r1, b1 := run()
			t2, r2, b2 := run()
			if t1 != t2 {
				t.Fatalf("virtual end times differ: %v vs %v", t1, t2)
			}
			if r1 != r2 {
				t.Fatalf("reports differ:\n%s\n---\n%s", r1, r2)
			}
			if len(b1) != len(b2) {
				t.Fatalf("breaker transitions differ: %v vs %v", b1, b2)
			}
			for k, v := range b1 {
				if b2[k] != v {
					t.Fatalf("breaker transitions differ at %q: %d vs %d", k, v, b2[k])
				}
			}
		})
	}
}

// TestRetryBackoffDeadline: a boot whose remaining deadline budget cannot
// cover the next backoff gives up with ErrDeadlineExceeded instead of
// sleeping into certain failure.
func TestRetryBackoffDeadline(t *testing.T) {
	eng, o, img, _ := testKBSFleet(t, Config{
		Workers:      1,
		Retry:        RetryPolicy{Max: 8, Backoff: 200 * time.Millisecond},
		BootDeadline: 300 * time.Millisecond,
	})
	o.cfg.KBS = &flakyKBS{
		Service: o.cfg.KBS,
		down:    func(sim.Time) bool { return true },
	}
	var got error
	eng.Go("arrivals", func(p *sim.Proc) {
		if err := o.Submit(p, Request{Tenant: "t0", Image: img, Done: func(dp *sim.Proc, tier Tier, err error) {
			got = err
		}}); err != nil {
			t.Error(err)
		}
		o.Close()
	})
	eng.Run()
	if !errors.Is(got, ErrDeadlineExceeded) {
		t.Fatalf("error %v, want ErrDeadlineExceeded", got)
	}
	if !errors.Is(got, ErrKBSUnreachable) {
		t.Fatalf("deadline error lost the underlying cause: %v", got)
	}
	if o.Metrics().DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded=%d, want 1", o.Metrics().DeadlineExceeded)
	}
}
