package fleet

import (
	"errors"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
)

// hookedKBS decorates a broker with a pre-Redeem hook, so tests can land
// storm events (floor bumps, re-enrollments, pool evictions) at the
// exact virtual instant an exchange is in flight.
type hookedKBS struct {
	kbs.Service
	onRedeem func()
}

func (h *hookedKBS) Redeem(req kbs.RedeemRequest, now sim.Time) (*kbs.RedeemResult, error) {
	if h.onRedeem != nil {
		h.onRedeem()
	}
	return h.Service.Redeem(req, now)
}

// TestReenrollMidExchangeRetries drives the rolling-drift straddle: a
// minimum-TCB floor bump plus host re-enrollment lands while an exchange
// is in flight, so the in-flight evidence (signed under the old VCEK) is
// denied stale-tcb. The denial must come back as retryable ErrReattest,
// and the retry — re-admitted and re-attested under the settled new
// identity — must serve the boot.
func TestReenrollMidExchangeRetries(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	auth := kbs.NewAuthority(99)
	enr := auth.Enroll(host.PSP, "chip-A", fleetTCB)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: fleetTCB, NonceTTL: time.Second, Seed: 7})
	broker.AddTenant("t0", []byte("disk key"))

	hooked := &hookedKBS{Service: broker}
	o := New(eng, host, Config{
		Workers:    1,
		Retry:      RetryPolicy{Max: 2, Backoff: time.Millisecond},
		KBS:        hooked,
		Enrollment: enr,
		AgentSeed:  1000,
		Admission:  broker.PolicyEngine(),
	})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}

	newTCB := fleetTCB
	newTCB.Microcode++
	fired := false
	hooked.onRedeem = func() {
		if fired {
			return
		}
		fired = true
		// The storm instant: the floor moves past the host's current TCB
		// and the host re-enrolls at the new one — while this exchange's
		// report, signed under the old VCEK, is already on the wire. The
		// bump is dated one instant back so the in-flight redemption is
		// strictly after the (inclusive) boundary.
		if err := broker.Policy().BumpFloor(broker.Signer(), newTCB.Encode(), eng.Now()-1); err != nil {
			t.Error(err)
		}
		o.Reenroll(auth.Enroll(host.PSP, "chip-A", newTCB))
	}

	var bootErr error
	eng.Go("arrival", func(p *sim.Proc) {
		if err := o.Submit(p, Request{
			Tenant: "t0",
			Image:  img,
			Done:   func(dp *sim.Proc, tier Tier, err error) { bootErr = err },
		}); err != nil {
			t.Error(err)
		}
		o.Close()
	})
	eng.Run()

	if bootErr != nil {
		t.Fatalf("boot failed after re-attestation: %v", bootErr)
	}
	m := o.Metrics()
	if m.Reenrolls != 1 || m.Reattests != 1 {
		t.Fatalf("reenrolls/reattests = %d/%d, want 1/1", m.Reenrolls, m.Reattests)
	}
	if m.ReattestQueuePeak != 1 {
		t.Fatalf("reattest queue peak = %d, want 1", m.ReattestQueuePeak)
	}
	if m.Denials["stale-tcb"] != 1 {
		t.Fatalf("denials = %v, want one stale-tcb", m.Denials)
	}
	if m.Retries == 0 {
		t.Fatal("straddled exchange was not retried")
	}
}

// TestWarmInvalidatedMidBoot drives a revocation storm onto a forked
// warm boot: the image's pool is evicted while the forked guest's
// exchange is in flight. The guest must never be served (the epoch check
// refuses it as retryable ErrWarmInvalidated) and the retry must re-seed
// cold.
func TestWarmInvalidatedMidBoot(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	auth := kbs.NewAuthority(99)
	enr := auth.Enroll(host.PSP, "chip-A", fleetTCB)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: fleetTCB, NonceTTL: time.Second, Seed: 7})
	broker.AddTenant("t0", []byte("disk key"))

	hooked := &hookedKBS{Service: broker}
	o := New(eng, host, Config{
		Workers:    1,
		EnableWarm: true,
		Retry:      RetryPolicy{Max: 2, Backoff: time.Millisecond},
		KBS:        hooked,
		Enrollment: enr,
		AgentSeed:  1000,
		Admission:  broker.PolicyEngine(),
	})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}

	redeems := 0
	hooked.onRedeem = func() {
		// The first exchange belongs to the seeding cold boot (the fork
		// capture precedes attestation); the second is the warm fork —
		// evict its pool mid-exchange.
		redeems++
		if redeems == 2 {
			o.EvictWarm(img)
		}
	}

	bootErrs := make([]error, 2)
	tiers := make([]Tier, 2)
	eng.Go("arrivals", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			i := i
			if err := o.Submit(p, Request{
				Tenant: "t0",
				Image:  img,
				Done: func(dp *sim.Proc, tier Tier, err error) {
					bootErrs[i], tiers[i] = err, tier
				},
			}); err != nil {
				t.Error(err)
			}
			p.Sleep(20 * time.Millisecond)
		}
		o.Close()
	})
	eng.Run()

	for i, err := range bootErrs {
		if err != nil {
			t.Fatalf("boot %d failed: %v", i, err)
		}
	}
	m := o.Metrics()
	if m.WarmInvalidated != 1 {
		t.Fatalf("warm invalidations = %d, want 1", m.WarmInvalidated)
	}
	if m.Boots[TierWarm] != 0 {
		t.Fatalf("%d warm boots served from an invalidated pool", m.Boots[TierWarm])
	}
	if tiers[1] == TierWarm {
		t.Fatal("second boot served warm despite mid-boot eviction")
	}
	if !img.HasWarm() {
		t.Fatal("retry did not re-seed the warm pool cold")
	}
}

// TestRetryableSentinels pins the transient taxonomy: the storm
// sentinels are retryable, genuine denials are not.
func TestRetryableSentinels(t *testing.T) {
	for _, err := range []error{ErrReattest, ErrWarmInvalidated, ErrKBSUnreachable} {
		if !retryable(err) {
			t.Fatalf("%v not retryable", err)
		}
	}
	if retryable(&policy.Denial{Gate: policy.GateBroker, Rule: policy.RulePlatform, Reason: policy.ReasonTCBFloor}) || retryable(errors.New("deterministic")) {
		t.Fatal("deterministic errors classified transient")
	}
}
