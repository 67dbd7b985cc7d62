package fleet

import (
	"errors"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// released reports whether a guest's memory went back to its host.
func released(m *kvm.Machine) bool {
	_, err := m.Mem.HostRead(0, 1)
	return errors.Is(err, guestmem.ErrReleased)
}

// TestServedGuestReleasedWhenRequestEnds: on a worker pool a served guest
// goes back to its host when its request ends — after Exec, before Ended
// hears of it — and not before; its launch context stays readable.
func TestServedGuestReleasedWhenRequestEnds(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1})
	var m *kvm.Machine
	o.cfg.OnServed = func(_ *sim.Proc, served *kvm.Machine, _ Tier) { m = served }
	const exec = 5 * time.Millisecond
	var done, ended sim.Time
	eng.Go("submit", func(p *sim.Proc) {
		if err := o.Submit(p, Request{Tenant: "t0", Image: img, Exec: exec,
			Done: func(p *sim.Proc, _ Tier, err error) {
				if err != nil {
					t.Error(err)
				}
				done = p.Now()
				if released(m) {
					t.Error("the guest was released before its function ran")
				}
			},
			Ended: func() {
				ended = eng.Now()
				if !released(m) {
					t.Error("Ended heard of the request before its guest was released")
				}
			},
		}); err != nil {
			t.Error(err)
		}
		o.Close()
	})
	eng.Run()
	if m == nil || ended.Sub(done) != exec {
		t.Fatalf("boot done at %v, request ended at %v: want Exec (%v) between", done, ended, exec)
	}
	if m.Launch.Digest() == [32]byte{} {
		t.Fatal("a released guest's launch context lost its digest")
	}
}

// TestRefusedGuestReleased: a guest the fleet built and refused — here
// over a launch digest that differs from the cache's prediction — goes back
// to the host where it is refused.
func TestRefusedGuestReleased(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1})
	o.cfg.Cache.Subscribe(func(mi *MeasuredImage) { mi.Digest[0] ^= 1 })
	var built []*kvm.Machine
	o.host.OnNewMachine = func(m *kvm.Machine) { built = append(built, m) }
	var bootErr error
	eng.Go("submit", func(p *sim.Proc) {
		_ = o.Submit(p, Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, _ Tier, err error) { bootErr = err }})
		o.Close()
	})
	eng.Run()
	if !errors.Is(bootErr, ErrDigestMismatch) || len(built) != 1 {
		t.Fatalf("boot error %v after building %d guests, want one refused over its digest", bootErr, len(built))
	}
	if !released(built[0]) {
		t.Fatal("the refused guest was not released")
	}
}

// TestWarmPoolReleasePoints: on a standalone orchestrator the donor is
// never released, however many requests end after it; a served fork goes
// back at the caller's next Serve or Close, not before; standbys go back
// when EvictWarm drops them.
func TestWarmPoolReleasePoints(t *testing.T) {
	eng, o, img := testFleet(t, Config{Standalone: true, EnableWarm: true, WarmPoolSize: 2})
	var served []*kvm.Machine
	o.cfg.OnServed = func(_ *sim.Proc, m *kvm.Machine, _ Tier) { served = append(served, m) }
	serveSync(t, eng, o, img)
	if tier := serveSync(t, eng, o, img); tier != TierWarm {
		t.Fatalf("second boot served %v, want warm", tier)
	}
	donor, fork := served[0], served[1]
	if donor != img.ForkState().Donor || released(donor) {
		t.Fatal("the donor was released after the request it served ended")
	}
	if released(fork) {
		t.Fatal("a standalone caller's served guest was released before its next Serve or Close")
	}

	var standbys []*kvm.Machine
	o.host.OnNewMachine = func(m *kvm.Machine) { standbys = append(standbys, m) }
	eng.Go("prewarm", func(p *sim.Proc) {
		if n, err := o.Prewarm(p, img, 2); n != 2 || err != nil {
			t.Errorf("prewarm added %d standbys (err %v), want 2", n, err)
		}
	})
	eng.Run()
	o.EvictWarm(img)
	for i, m := range standbys {
		if !released(m) {
			t.Fatalf("standby %d survived EvictWarm", i)
		}
	}
	if released(donor) {
		t.Fatal("EvictWarm released the donor")
	}
	o.Close()
	eng.Run()
	if !released(fork) || released(donor) {
		t.Fatalf("after Close: served fork released %v, donor released %v; want true, false", released(fork), released(donor))
	}
}
