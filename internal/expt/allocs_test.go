package expt

import (
	"runtime"
	"syscall"
	"testing"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
)

// Alloc-regression pins: the zero-copy loader work (staging-blob
// aliasing, span RMP, memoized digests) and the shared page directory
// are visible as hard ceilings on heap allocations and bytes per boot.
// The warm count is deliberately generous (~25% over the measured
// steady state) so it only trips on a regression class — a per-page loop
// reappearing, a digest memo going cold, a fresh copy of a bulk segment
// — not on incidental churn. The cold count, which a single-threaded
// run fixes, is held to 3 % over what it measures under the race
// detector, whose sync.Pool drops add ~3 allocations per boot. The byte
// ceilings are looser still: counts alone let a dense 512 KiB page table
// per guest (two allocations) go unpinned for five PRs.
const (
	coldAllocCeilingPerBoot = 54 // measured ~50.7 at 64 VMs, ~52.1 under -race; ~52.7 (~54.6) while the kernel built its initrd memo key with fmt.Sprintf on every boot; ~56.7 (~59.1) while the kernel's MP-table read decrypted the never-written page past the EBDA and it made strings of its command line and rootfs sector to inspect them; ~68 while each launch staged through an update batch and a hostwork job; ~69 when the admission gate's certificate appended its rule trace and covering domains instead of being one allocation; ~98 when the launch's update batch, the verifier's stages, the E820 table, the RMP's spans and the virtio reads regrew step-scoped slices on every boot; ~118 when each recorded span, metric-key lookup, Timeline map, intern-table key and launch-digest hash allocated; ~179 when every scheduled simulator event was an allocation of its own, ~186 when the host's GHCB decode returned each exit's view on the heap and the kernel stage and verifier copied out four reads they only parse
	coldKiBCeilingPerBoot   = 47 // measured ~42.5 (~42.7 under -race): the 64 boots arrive together, so none is built from another's released memory (TestSecondCachedColdBootOwnsNothingNew pins that one is); ~43.6 with the MP-table decrypt and the two strings above, ~58 when the kernel copied out its boot_params page and MP table and the virtio driver its used ring, response and ring zeros, ~63 with the four copies above, ~126 when a boot copied twelve pages every boot writes the same and built its page tables afresh, ~247 when it owned nine dense 512-page leaves, ~415 when it owned all 24 it touches, 1143 with a dense per-guest table
	// The warm iteration amortizes one full cold seed (plan + staging
	// blob + snapshot capture) over the fleet, so its per-boot figure
	// sits above the steady-state fork cost.
	warmAllocCeilingPerBoot = 25 // measured ~20 at 64 VMs; ~26 when each recorded span, metric-key lookup and Timeline map allocated; ~437 when the ceiling was first set
	forkKiBCeilingPerBoot   = 64 // steady state, seed excluded: measured ~5; 1021 with per-adoption page structs
)

// allocFleetIteration runs one same-image fleet iteration — register +
// vms boots — and returns its virtual makespan and the host it ran on.
// Cold: vms workers, vms open-loop arrivals, the first boot measures and
// the rest hit the measured-image cache. Warm: a standalone orchestrator
// serves one cold seed and then vms-1 sequential forks of its snapshot.
func allocFleetIteration(tb testing.TB, preset kernelgen.Preset, initrd []byte, vms int, warm bool) (sim.Time, *kvm.Host) {
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
		return eng.Now(), host
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
	return eng.Now(), host
}

// measureFleet runs fleet iterations of vms boots and returns the heap
// allocations and bytes (MemStats.Mallocs / TotalAlloc) of one, and the
// host the last one ran on.
func measureFleet(t *testing.T, vms int, warm bool) (allocs, bytes float64, last *kvm.Host) {
	t.Helper()
	const runs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	preset := kernelgen.Lupine()
	initrd := kernelgen.BuildInitrd(7, 4<<20)
	// One untimed pass warms the process-lifetime caches (generated
	// kernels, decompressed payloads, interned artifacts), as they
	// would be across fleet shards in one host process.
	allocFleetIteration(t, preset, initrd, vms, warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, last = allocFleetIteration(t, preset, initrd, vms, warm)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs, last
}

// byteRegression names what a broken byte ceiling means: per-boot bytes
// an order of magnitude over the handful of pages a boot writes have one
// cause.
const byteRegression = "an O(guest-size) or O(resident-pages) allocation is back on the boot path"

func TestColdBootAllocCeiling(t *testing.T) {
	const vms = 64
	allocs, bytes, host := measureFleet(t, vms, false)
	if got := allocs / vms; got > coldAllocCeilingPerBoot {
		t.Errorf("cold path allocates %.1f per boot, ceiling %d — a zero-copy loader or digest memo regressed",
			got, coldAllocCeilingPerBoot)
	}
	if got := bytes / vms / 1024; got > coldKiBCeilingPerBoot {
		t.Errorf("cold path allocates %.0f KiB per boot, ceiling %d — %s, or whole-leaf and whole-chunk loads stopped sharing templates",
			got, coldKiBCeilingPerBoot, byteRegression)
	}
	_, counters := host.HostStats.Snapshot()
	per := func(name string) float64 { return float64(counters[name]) / vms }
	t.Logf("per boot: %.1f allocations, %.1f KiB; nodes %.2f owned, template leaves %.2f shared; chunks %.2f owned, %.2f templates shared",
		allocs/vms, bytes/vms/1024, per("guestmem.leaf.owned"), per("guestmem.leaf.shared"), per("guestmem.chunk.owned"), per("guestmem.chunk.shared"))
}

// TestColdBootOwnsOnlyDirtiedChunks pins the census behind the byte
// ceiling, exact where the bytes are not. A cached cold lupine boot with a
// 4 MiB initrd touches 24 root slots. 15 are whole 2 MiB runs of one
// artifact, shared as template leaves. In the other 9 — two segment seams,
// three ragged tails, four sparse slots — it owns the node, shares the 28
// whole 256 KiB runs as chunk templates, and owns the 12 chunks it really
// stores to: 18 KiB of page state where nine dense leaves were 108.
func TestColdBootOwnsOnlyDirtiedChunks(t *testing.T) {
	const vms = 8
	_, host := allocFleetIteration(t, kernelgen.Lupine(), kernelgen.BuildInitrd(7, 4<<20), vms, false)
	_, counters := host.HostStats.Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"guestmem.leaf.owned", 9}, {"guestmem.chunk.owned", 12},
		{"guestmem.leaf.shared", 15}, {"guestmem.chunk.shared", 28},
	} {
		if got := counters[c.name]; got != c.want*vms {
			t.Errorf("%d cold boots: %s = %d, want %d a boot — a template path stopped firing, or a store reaches a chunk it did not", vms, c.name, got, c.want)
		}
	}
}

// coldBootDonor serves one cold lupine boot with a 4 MiB initrd on a
// standalone warm orchestrator and returns the image, whose donor is the
// machine that boot left.
func coldBootDonor(t *testing.T) *fleet.Image {
	t.Helper()
	eng := sim.NewEngine()
	o := fleet.New(eng, kvm.NewHost(eng, costmodel.Default(), 1), fleet.Config{Standalone: true, EnableWarm: true})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	eng.Go("seed", func(p *sim.Proc) { o.Serve(p, fleet.Request{Tenant: "t0", Image: img}) })
	eng.Run()
	if err := o.Err(); err != nil || img.ForkState() == nil {
		t.Fatalf("cold boot parked no donor (err %v)", err)
	}
	return img
}

// TestColdBootOwnsFourPages pins, exactly, the pages a cold boot holds
// bytes of its own for: the GHCB page, the virtio probe's ring and request
// buffer, and the zero page the verifier patches the initrd size into.
// Every other resident page aliases bytes some other guest, the host or
// an artifact holds too — the twelve every boot writes the same among them:
// five ELF-segment seams, the last page of the staged bzImage and initrd,
// the two verified copies of those, and the three page-table pages.
func TestColdBootOwnsFourPages(t *testing.T) {
	s := coldBootDonor(t).ForkState().Donor.Mem.Stats()
	if owned := s.ResidentPages - s.AliasedPages; owned != 4 {
		t.Errorf("a cold boot owns %d of its %d resident pages outright, want 4 — a write every boot makes the same copies a page again", owned, s.ResidentPages)
	}
}

// TestSecondCachedColdBootOwnsNothingNew: cached cold boots served one
// after another on one host. A guest goes back to its host when its
// request ends, so the second cached boot is built out of the first: every
// directory, node, chunk and page buffer it owns is one the first released,
// and it allocates none of its own.
func TestSecondCachedColdBootOwnsNothingNew(t *testing.T) {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	var guest *kvm.Machine
	o := fleet.New(eng, host, fleet.Config{Standalone: true, OnServed: func(_ *sim.Proc, m *kvm.Machine, _ fleet.Tier) { guest = m }})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(want fleet.Tier) map[string]int64 {
		t.Helper()
		eng.Go("serve", func(p *sim.Proc) {
			o.Serve(p, fleet.Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, tier fleet.Tier, err error) {
				if err != nil || tier != want {
					t.Errorf("boot served %v (err %v), want %v", tier, err, want)
				}
			}})
		})
		eng.Run()
		_, counters := host.HostStats.Snapshot()
		return counters
	}
	serve(fleet.TierCold)
	first := serve(fleet.TierCachedCold)
	second := serve(fleet.TierCachedCold)
	delta := func(name string) int64 { return second[name] - first[name] }
	if n := delta("guestmem.dir.reused"); n != 1 {
		t.Errorf("the second cached cold boot drew %d released directories, want 1", n)
	}
	// Nodes and chunks are counted as a guest takes them; page buffers are
	// what it holds outright at the end.
	s := guest.Mem.Stats()
	pages := int64(s.ResidentPages - s.AliasedPages)
	for _, c := range []struct {
		kind          string
		owned, reused int64
	}{
		{"node", delta("guestmem.leaf.owned"), delta("guestmem.leaf.reused")},
		{"chunk", delta("guestmem.chunk.owned"), delta("guestmem.chunk.reused")},
		{"page buffer", pages, delta("guestmem.page.reused")},
	} {
		if c.owned == 0 || c.reused != c.owned {
			t.Errorf("the second cached cold boot owns %d %ss, %d of them drawn from the first's release: it allocated %d of its own", c.owned, c.kind, c.reused, c.owned-c.reused)
		}
	}
}

func TestWarmForkAllocCeiling(t *testing.T) {
	const vms = 64
	allocs, bytes, _ := measureFleet(t, vms, true)
	if got := allocs / vms; got > warmAllocCeilingPerBoot {
		t.Errorf("warm-fork path allocates %.1f per boot, ceiling %d — fork aliasing or digest reuse regressed",
			got, warmAllocCeilingPerBoot)
	}
	// Steady state: the cold seed costs the same in a fleet twice the
	// size, so the difference is vms forked boots and nothing else.
	_, bytes2, _ := measureFleet(t, 2*vms, true)
	if got := (bytes2 - bytes) / vms / 1024; got > forkKiBCeilingPerBoot {
		t.Errorf("a forked boot allocates %.0f KiB, ceiling %d — %s", got, forkKiBCeilingPerBoot, byteRegression)
	}
}

// TestCaptureForkAllocCeiling: capturing a booted guest as a fork
// container costs what the guest dirtied — the nine nodes and twelve chunks
// it owns, frozen (its fifteen template leaves and twenty-eight chunk
// templates are shared as they are), the extent table and thirteen copied
// pages, measured 82 KiB — not a copy of the 37.7 MiB it holds. The
// thirteen are the pages without artifact provenance: the four the guest
// owns and nine that alias padded edge pages. The page-table pages alias
// the host's tables with provenance, so they are extents, not copies. The
// extents are the container's page table too: a list of its ~9.6 k pages
// beside them made the capture 234 KiB.
func TestCaptureForkAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	img := coldBootDonor(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fork, err := snapshot.CaptureFork(nil, img.ForkState().Donor, img.ForkState().Digest)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	resident := fork.Src.NumPages() * guestmem.PageSize
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("capturing %d resident bytes allocated %d", resident, got)
	if got >= 128<<10 || resident < 16<<20 {
		t.Errorf("capturing %d resident bytes allocated %d, ceiling 128 KiB — %s", resident, got, byteRegression)
	}
}

// TestFirstBzBootDecodesNothing: the process that built a kernel holds the
// vmlinux it compressed, and the bzImage remembers it, so even the first
// SEVeriFast boot of the kernel places that vmlinux instead of decoding the
// payload into a second one. With the initrd warmed by a boot of another
// kernel, a first boot of the 61 MiB Ubuntu vmlinux allocates under a
// quarter of it; a decode alone would be all of it.
func TestFirstBzBootDecodesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	initrd := kernelgen.BuildInitrd(7, 4<<20)
	if _, err := bootOnce(costmodel.Default(), kernelgen.Lupine(), initrd, schemeSEVeriFast, 1, false); err != nil {
		t.Fatal(err)
	}
	art, err := kernelgen.Cached(kernelgen.Ubuntu())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := schemeSEVeriFast.config(kernelgen.Ubuntu(), initrd)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld(costmodel.Default(), 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = w.boot(schemeSEVeriFast, cfg, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a first Ubuntu boot allocated %d KiB", got>>10)
	if got >= uint64(len(art.VMLinux)/4) {
		t.Errorf("a first Ubuntu boot allocated %d KiB, ceiling %d: the bootstrap loader decoded a kernel the process holds",
			got>>10, len(art.VMLinux)/4>>10)
	}
}

// TestFleetVirtualMakespanPins holds the virtual makespan of the
// 1024-VM same-image fleet, in nanoseconds, for the two scenarios the
// iteration above runs. Host-side work (caches, zero-copy loaders, fork
// aliasing, worker counts) never moves these; a change to the cost model
// or to what a boot charges does, and says so by editing a pin. The
// constants hold only at this fleet size, kernel and initrd.
func TestFleetVirtualMakespanPins(t *testing.T) {
	const vms = 1024
	preset := kernelgen.Lupine()
	initrd := kernelgen.BuildInitrd(7, 4<<20)
	for _, tc := range []struct {
		name string
		warm bool
		want sim.Time
	}{
		{"cold", false, 29349565470},
		{"warm-fork", true, 93397749027},
	} {
		if got, _ := allocFleetIteration(t, preset, initrd, vms, tc.warm); got != tc.want {
			t.Errorf("%s: virtual makespan %d ns, pinned %d ns", tc.name, got, tc.want)
		}
	}
	// ROADMAP: no tier-1 test process over 1 GiB. ru_maxrss is the
	// process's peak so far — every test that ran before this one
	// included — and is in KiB only on Linux. The race detector's
	// shadow memory is not the program's (measured 1778 MiB with it).
	if runtime.GOOS == "linux" && !raceDetector {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		if mib := ru.Maxrss >> 10; mib > 1024 {
			t.Errorf("test process peaked at %d MiB resident, ceiling 1024", mib)
		}
	}
}
