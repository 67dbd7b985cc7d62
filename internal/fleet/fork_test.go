package fleet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
	"github.com/severifast/severifast/internal/telemetry"
)

// TestForkVsColdEquality is the acceptance proof for the snapshot-fork
// warm tier: one cold boot seeds the pool, every later boot forks, and
// every boot of the image — cold or forked — attests with the cold
// boot's measured launch digest. (That a fork charges exactly the
// virtual time of a §7 copy restore is proven where Fork.Boot and the
// copy reference live: internal/snapshot's TestForkRestoreEqualsCopyRestore.)
func TestForkVsColdEquality(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	var (
		tiers   []Tier
		digests [][32]byte
	)
	o := New(eng, host, Config{
		Workers:    1,
		EnableWarm: true,
		OnServed: func(_ *sim.Proc, m *kvm.Machine, tier Tier) {
			tiers = append(tiers, tier)
			digests = append(digests, m.Launch.Digest())
		},
	})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, eng, o, Workload{
		Arrivals:         4,
		MeanInterarrival: 2 * time.Second,
		Images:           []*Image{img},
		Seed:             11,
	})

	want := []Tier{TierCold, TierWarm, TierWarm, TierWarm}
	if len(tiers) != len(want) {
		t.Fatalf("served %d boots, want %d", len(tiers), len(want))
	}
	for i := range want {
		if tiers[i] != want[i] {
			t.Fatalf("boot %d served %v, want %v", i, tiers[i], want[i])
		}
		if digests[i] != digests[0] {
			t.Fatalf("boot %d digest differs from the cold boot's", i)
		}
	}
	if digests[0] == [32]byte{} {
		t.Fatal("cold boot was not measured")
	}
	m := o.Metrics()
	for i, warm := range m.Latency[TierWarm] {
		if warm >= m.Latency[TierCold][0] {
			t.Fatalf("forked boot %d took %v, cold boot %v", i, warm, m.Latency[TierCold][0])
		}
	}
	_, counters := host.HostStats.Snapshot()
	if counters["guestmem.fork.adopted"] == 0 {
		t.Fatal("warm boots never adopted a fork source")
	}
}

// serveSync boots img once on a standalone orchestrator and returns the
// tier served.
func serveSync(t *testing.T, eng *sim.Engine, o *Orchestrator, img *Image) (tier Tier) {
	t.Helper()
	eng.Go("serve", func(p *sim.Proc) {
		o.Serve(p, Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, got Tier, err error) {
			if err != nil {
				t.Error(err)
			}
			tier = got
		}})
	})
	eng.Run()
	return tier
}

// TestAdoptWithoutForkContainerRefused: the fork container, donor
// included, is the only representation of a warm parent. An adoption of
// no container, or of one missing its fork source, its donor or the
// donor's launch context, is refused with errNoForkContainer — never
// downgraded to replaying ciphertext — and the image keeps booting cold.
// The whole container is adopted.
func TestAdoptWithoutForkContainerRefused(t *testing.T) {
	var donor *kvm.Machine
	engA, a, imgA := testFleet(t, Config{Standalone: true, EnableWarm: true,
		OnServed: func(_ *sim.Proc, m *kvm.Machine, _ Tier) { donor = m }})
	serveSync(t, engA, a, imgA)
	fork := imgA.ForkState()
	if fork == nil || fork.Donor != donor {
		t.Fatal("cold boot captured no fork container of the guest it served")
	}

	engB, b, imgB := testFleet(t, Config{Standalone: true, EnableWarm: true})
	// without is fork with one part taken out.
	without := func(strip func(f *snapshot.Fork)) *snapshot.Fork {
		f := *fork
		strip(&f)
		return &f
	}
	for name, f := range map[string]*snapshot.Fork{
		"nil container":              nil,
		"no fork source":             without(func(f *snapshot.Fork) { f.Src = nil }),
		"no donor":                   without(func(f *snapshot.Fork) { f.Donor = nil }),
		"donor without a launch ctx": without(func(f *snapshot.Fork) { d := *f.Donor; d.Launch = nil; f.Donor = &d }),
	} {
		if err := imgB.AdoptWarmFork(f); !errors.Is(err, errNoForkContainer) {
			t.Fatalf("%s: adoption error = %v, want errNoForkContainer", name, err)
		}
		if imgB.HasWarm() {
			t.Fatalf("%s: refused adoption seeded the warm tier", name)
		}
	}
	if tier := serveSync(t, engB, b, imgB); tier != TierCold {
		t.Fatalf("boot after refused adoption served %v, want cold", tier)
	}

	_, _, imgC := testFleet(t, Config{Standalone: true, EnableWarm: true})
	if err := imgC.AdoptWarmFork(fork); err != nil {
		t.Fatal(err)
	}
	if imgC.ForkState() != fork || imgC.ForkState().Donor != donor {
		t.Fatal("adoption did not seed the warm tier with the container and its donor")
	}
}

// TestFailedCaptureLeavesWarmTierSeedable: a capture that fails fails
// that boot only. The image's next cold boot captures, and the boot after
// it forks — the capturing flag is cleared on the error path, not just by
// EvictWarm.
func TestFailedCaptureLeavesWarmTierSeedable(t *testing.T) {
	eng, o, img := testFleet(t, Config{Standalone: true, EnableWarm: true})
	errCapture := errors.New("capture failed")
	capture := o.captureFork
	o.captureFork = func(*sim.Proc, *kvm.Machine, [32]byte) (*snapshot.Fork, error) {
		o.captureFork = capture
		return nil, errCapture
	}
	var failed error
	eng.Go("serve", func(p *sim.Proc) {
		o.Serve(p, Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, _ Tier, err error) { failed = err }})
	})
	eng.Run()
	if !errors.Is(failed, errCapture) || img.HasWarm() {
		t.Fatalf("first boot: err %v, warm %v; want the capture failure and an unseeded tier", failed, img.HasWarm())
	}
	if tier := serveSync(t, eng, o, img); tier == TierWarm || !img.HasWarm() {
		t.Fatalf("boot after the failed capture served %v, warm tier seeded: %v; want a cold boot that captures", tier, img.HasWarm())
	}
	if tier := serveSync(t, eng, o, img); tier != TierWarm {
		t.Fatalf("boot after the capture served %v, want warm", tier)
	}
}

// TestWarmStateMaterialisesOnDemand: the ciphertext transport image is
// not held by the warm tier; WarmState builds it from the fork's parked
// donor, equal to a capture of that donor, and a fresh one on every call.
func TestWarmStateMaterialisesOnDemand(t *testing.T) {
	eng, o, img := testFleet(t, Config{Standalone: true, EnableWarm: true})
	if snap, donor := img.WarmState(); snap != nil || donor != nil {
		t.Fatal("unseeded warm tier returned warm state")
	}
	serveSync(t, eng, o, img)
	snap, donor := img.WarmState()
	fork := img.ForkState()
	if snap == nil || donor == nil || donor != fork.Donor {
		t.Fatal("seeded warm tier returned no warm state")
	}
	if snap.Size != fork.Src.Size() || len(snap.Pages) != fork.Src.NumPages() || snap.SEV != fork.SEV {
		t.Fatalf("transport image: %d bytes, %d pages, SEV %v; fork container: %d, %d, %v",
			snap.Size, len(snap.Pages), snap.SEV, fork.Src.Size(), fork.Src.NumPages(), fork.SEV)
	}
	want, err := snapshot.Capture(nil, donor)
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("WarmState's image is not a capture of the donor")
	}
	if again, _ := img.WarmState(); again == snap {
		t.Fatal("WarmState retained the image it built")
	}
}

// TestEvictWarmReleasesForkBlob: a fork blob is referenced only by its
// fork container, so capture→evict cycles must not grow the process
// intern table (which would pin tens of MiB per evicted image forever).
func TestEvictWarmReleasesForkBlob(t *testing.T) {
	eng, o, img := testFleet(t, Config{Standalone: true, EnableWarm: true})
	cycle := func() {
		t.Helper()
		serveSync(t, eng, o, img)
		if !img.HasWarm() {
			t.Fatal("cold boot did not capture a fork container")
		}
		o.EvictWarm(img)
	}
	interned := func() int64 {
		_, counters := telemetry.DefaultHostRecorder.Snapshot()
		return counters["artifact.interned"]
	}
	cycle() // interns the image's canonical kernel/initrd/payload buffers once
	before := interned()
	for i := 0; i < 4; i++ {
		cycle()
	}
	if after := interned(); after != before {
		t.Fatalf("artifact.interned grew %d -> %d over 4 capture/evict cycles", before, after)
	}
}

// TestPrewarmStandbys: Prewarm builds forked standbys up to the pool
// cap, later warm boots pop them instead of forking inline, and
// EvictWarm clears the whole pool.
func TestPrewarmStandbys(t *testing.T) {
	// Standalone mode: Serve boots synchronously so the engine drains
	// completely between the test's phases (a parked worker would
	// deadlock the drain).
	eng, o, img := testFleet(t, Config{Standalone: true, EnableWarm: true, WarmPoolSize: 2})
	submit := func(n int) {
		t.Helper()
		eng.Go("submit", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				o.Serve(p, Request{Tenant: "t0", Image: img})
				p.Sleep(time.Second)
			}
		})
		eng.Run()
		if err := o.Err(); err != nil {
			t.Fatal(err)
		}
	}
	// Seed the warm tier with one cold boot.
	submit(1)
	if !img.HasWarm() {
		t.Fatal("warm tier not seeded after cold boot")
	}
	var added int
	var err error
	eng.Go("prewarm", func(p *sim.Proc) {
		added, err = o.Prewarm(p, img, 5)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || o.StandbyCount(img) != 2 {
		t.Fatalf("prewarm added %d standbys (count %d), want 2 (pool cap)", added, o.StandbyCount(img))
	}
	// Two more boots must consume the standbys.
	submit(2)
	if o.StandbyCount(img) != 0 {
		t.Fatalf("standby count %d after 2 boots, want 0", o.StandbyCount(img))
	}
	m := o.Metrics()
	if m.Boots[TierWarm] != 2 {
		t.Fatalf("warm boots %d, want 2", m.Boots[TierWarm])
	}
	o.EvictWarm(img)
	if img.HasWarm() || o.StandbyCount(img) != 0 {
		t.Fatal("EvictWarm left warm state behind")
	}
	o.Close()
	eng.Run()
}
