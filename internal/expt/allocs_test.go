package expt

import (
	"runtime"
	"testing"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// Alloc-regression pins: the zero-copy loader work (staging-blob
// aliasing, span RMP, memoized digests) and the shared page directory
// are visible as hard ceilings on heap allocations and bytes per boot.
// The counts are deliberately generous (~25% over the measured steady
// state) so they only trip on a regression class — a per-page loop
// reappearing, a digest memo going cold, a fresh copy of a bulk segment
// — not on incidental churn. The byte ceilings are looser still: counts
// alone let a dense 512 KiB page table per guest (two allocations) go
// unpinned for five PRs.
const (
	coldAllocCeilingPerBoot = 265 // measured ~209 at 64 VMs
	coldKiBCeilingPerBoot   = 900 // measured ~415; 1143 with a dense per-guest table
	// The warm iteration amortizes one full cold seed (plan + staging
	// blob + snapshot capture) over the fleet, so its per-boot figure
	// sits above the steady-state fork cost.
	warmAllocCeilingPerBoot = 550 // measured ~437 at 64 VMs
	forkKiBCeilingPerBoot   = 64  // steady state, seed excluded: measured ~5; 1021 with per-adoption page structs
)

// allocFleetIteration runs one fleet iteration — register + vms boots —
// mirroring HostBench's cold and warm scenarios.
func allocFleetIteration(tb testing.TB, preset kernelgen.Preset, initrd []byte, vms int, warm bool) {
	tb.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	if warm {
		o := fleet.New(eng, host, fleet.Config{Standalone: true, EnableWarm: true})
		img, err := o.RegisterImage("fn", preset, initrd)
		if err != nil {
			tb.Fatal(err)
		}
		var bootErr error
		eng.Go("alloc", func(p *sim.Proc) {
			done := func(_ *sim.Proc, _ fleet.Tier, err error) {
				if err != nil && bootErr == nil {
					bootErr = err
				}
			}
			for i := 0; i < vms; i++ {
				o.Serve(p, fleet.Request{Tenant: "t0", Image: img, Done: done})
			}
		})
		eng.Run()
		if bootErr != nil {
			tb.Fatal(bootErr)
		}
		if err := o.Err(); err != nil {
			tb.Fatal(err)
		}
		return
	}
	o := fleet.New(eng, host, fleet.Config{Workers: vms})
	img, err := o.RegisterImage("fn", preset, initrd)
	if err != nil {
		tb.Fatal(err)
	}
	if err := (fleet.Workload{Arrivals: vms, Images: []*fleet.Image{img}, Seed: 1}).Run(eng, o); err != nil {
		tb.Fatal(err)
	}
	eng.Run()
	if err := o.Err(); err != nil {
		tb.Fatal(err)
	}
}

// measureFleet runs fleet iterations of vms boots and returns the heap
// allocations and bytes (MemStats.Mallocs / TotalAlloc) of one.
func measureFleet(t *testing.T, vms int, warm bool) (allocs, bytes float64) {
	t.Helper()
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	preset := kernelgen.Lupine()
	initrd := kernelgen.BuildInitrd(7, 4<<20)
	// One untimed pass warms the process-lifetime caches (generated
	// kernels, decompressed payloads, interned artifacts) exactly as
	// HostBench's warm-up iteration does.
	allocFleetIteration(t, preset, initrd, vms, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		allocFleetIteration(t, preset, initrd, vms, warm)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// byteRegression names what a broken byte ceiling means: per-boot bytes
// an order of magnitude over the handful of pages a boot writes have one
// cause.
const byteRegression = "an O(guest-size) or O(resident-pages) allocation is back on the boot path"

func TestColdBootAllocCeiling(t *testing.T) {
	const vms = 64
	allocs, bytes := measureFleet(t, vms, false)
	if got := allocs / vms; got > coldAllocCeilingPerBoot {
		t.Errorf("cold path allocates %.1f per boot, ceiling %d — a zero-copy loader or digest memo regressed",
			got, coldAllocCeilingPerBoot)
	}
	if got := bytes / vms / 1024; got > coldKiBCeilingPerBoot {
		t.Errorf("cold path allocates %.0f KiB per boot, ceiling %d — %s", got, coldKiBCeilingPerBoot, byteRegression)
	}
}

func TestWarmForkAllocCeiling(t *testing.T) {
	const vms = 64
	allocs, bytes := measureFleet(t, vms, true)
	if got := allocs / vms; got > warmAllocCeilingPerBoot {
		t.Errorf("warm-fork path allocates %.1f per boot, ceiling %d — fork aliasing or digest reuse regressed",
			got, warmAllocCeilingPerBoot)
	}
	// Steady state: the cold seed costs the same in a fleet twice the
	// size, so the difference is vms forked boots and nothing else.
	_, bytes2 := measureFleet(t, 2*vms, true)
	if got := (bytes2 - bytes) / vms / 1024; got > forkKiBCeilingPerBoot {
		t.Errorf("a forked boot allocates %.0f KiB, ceiling %d — %s", got, forkKiBCeilingPerBoot, byteRegression)
	}
}
