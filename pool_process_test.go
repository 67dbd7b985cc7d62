package severifast

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// poolWarmBootAllocCeiling pins what one warm Pool.Boot allocates after
// the seed boot, the measured value plus one allocation: measured ~8.5
// with the pool's registry indexing nothing, its engine tracing no
// scheduling and its fleet mirroring no metrics; ~8.9 with the admission
// certificate one allocation and the call's serve and done functions
// bound once; ~20 when each call built its closures and the certificate
// grew its rule trace and domain list by appending; ~49 when each span,
// metric lookup and Timeline allocated; ~70 when every call started a
// process of its own (a coroutine, its Proc and a formatted name) and the
// fork's launch start derived a digest it then discarded and expanded the
// donor's key again.
const poolWarmBootAllocCeiling = 9.5

// poolWarmBootBytesCeiling pins the bytes one warm Pool.Boot allocates
// after the seed boot, the measured value plus 10 %, the bound of the
// benchmark's alloc_kib_per_boot: measured ~2 420 with the pool's
// registry indexing nothing, its engine tracing no scheduling and its
// fleet mirroring no metrics; ~3 080 when the registry kept every span
// and event of every boot, the three PSP service spans and the fleet.boot
// span of each, and a series sample per boot.
const poolWarmBootBytesCeiling = 2660

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	pool, err := NewPool(Config{Kernel: KernelLupine, Seed: 42, InitrdMiB: 2}, PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func bootOrFatal(t *testing.T, pool *Pool) *Result {
	t.Helper()
	res, err := pool.Boot()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPoolWarmBootAllocCeiling(t *testing.T) {
	const boots = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := newTestPool(t)
	defer pool.Close()
	// The seed boot, and one warm boot to grow what every later one reuses.
	bootOrFatal(t, pool)
	bootOrFatal(t, pool)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < boots; i++ {
		if _, err := pool.Boot(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / boots
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / boots
	t.Logf("%.2f allocations, %.0f bytes per warm boot", got, bytes)
	if got > poolWarmBootAllocCeiling {
		t.Errorf("a warm Pool.Boot allocates %.2f times, ceiling %.1f: a per-call closure, a certificate growing its rules by appending, a per-call process or a per-fork key expansion is back", got, poolWarmBootAllocCeiling)
	}
	if bytes > poolWarmBootBytesCeiling {
		t.Errorf("a warm Pool.Boot allocates %.0f bytes, ceiling %d: the pool's registry records scheduler spans, fleet metrics or an index of its boots again", bytes, poolWarmBootBytesCeiling)
	}
}

// TestPoolRetentionIsBounded: a long-lived Pool whose Results are dropped
// keeps almost nothing per finished boot. Its live heap after 40 000 warm
// boots is within 64 bytes a boot of its heap after 2 000: what is left
// is the fleet's per-boot latency samples, which Stats reads.
func TestPoolRetentionIsBounded(t *testing.T) {
	const early, late, perBootCeiling = 2000, 40000, 64
	pool := newTestPool(t)
	defer pool.Close()
	bootN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := pool.Boot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	bootN(early)
	before := live()
	bootN(late - early)
	after := live()
	perBoot := (float64(after) - float64(before)) / (late - early)
	t.Logf("live heap %d bytes after %d boots, %d after %d: %.1f bytes per boot", before, early, after, late, perBoot)
	if perBoot > perBootCeiling {
		t.Errorf("a Pool keeps %.1f bytes per finished boot, ceiling %d: something holds every boot's spans, events or machine", perBoot, perBootCeiling)
	}
}

// recordJobs makes the pool record the process each of its calls runs
// on, in call order.
func recordJobs(pool *Pool) *[]*sim.Proc {
	procs := new([]*sim.Proc)
	pool.onJob = func(p *sim.Proc) { *procs = append(*procs, p) }
	return procs
}

// sameProcess reports whether procs are all one process named "pool".
func sameProcess(procs []*sim.Proc) bool {
	for _, p := range procs {
		if p != procs[0] || p.Name() != "pool" {
			return false
		}
	}
	return true
}

// TestPoolCloseLeavesNoGoroutine: the pool's standing process is the only
// goroutine a Pool keeps, and Close ends it. The baseline is taken before
// the first pool.
func TestPoolCloseLeavesNoGoroutine(t *testing.T) {
	cycle := func() {
		pool := newTestPool(t)
		bootOrFatal(t, pool)
		bootOrFatal(t, pool)
		if _, err := pool.Prewarm(1); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cycle()
	}
	// A goroutine that returned may take a moment to be counted out.
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines after three closed pools, %d before", n, base)
	}
}

// TestPoolBootAfterError: a Boot that fails leaves the standing process
// idle and serving. A tampered fork source fails the next warm boot and
// evicts the warm pool; the Boot after it cold boots, on the same process.
func TestPoolBootAfterError(t *testing.T) {
	pool := newTestPool(t)
	procs := recordJobs(pool)
	cold := bootOrFatal(t, pool)
	pool.img.ForkState().Src.Blob().Corrupt(0, 0x01)
	if _, err := pool.Boot(); err == nil {
		t.Fatal("a boot forked from a tampered source succeeded")
	}
	next, err := pool.Boot()
	if err != nil {
		t.Fatalf("Boot after a failed Boot: %v", err)
	}
	if next.LaunchDigest != cold.LaunchDigest {
		t.Fatal("the boot after a failed one measured a different digest")
	}
	if len(*procs) != 3 || !sameProcess(*procs) {
		t.Fatalf("three boots ran on processes %v, want one pool process", *procs)
	}
	if s := pool.Stats(); s.Failed != 1 || s.Boots != 2 {
		t.Fatalf("stats %+v, want 1 failed and 2 served", s)
	}
	if err := pool.Close(); err == nil {
		t.Fatal("Close did not report the tampered fork")
	}
}

// TestPoolCloseAfterPanickedCall: a call whose body panics ends the
// standing process, and the panic reaches the caller; Close afterwards
// (as a deferred Close runs while the panic unwinds) returns instead of
// waking the process that is gone.
func TestPoolCloseAfterPanickedCall(t *testing.T) {
	pool := newTestPool(t)
	bootOrFatal(t, pool)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a panicking call returned normally")
			}
		}()
		pool.run(func(*sim.Proc) { panic("job failed") })
	}()
	closed := make(chan error, 1)
	go func() { closed <- pool.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close after a panicked call did not return")
	}
}

// TestPoolPrewarmThenBootShareTheProcess: Prewarm starts the standing
// process and Boot is served on it, on its one trace lane.
func TestPoolPrewarmThenBootShareTheProcess(t *testing.T) {
	pool := newTestPool(t)
	defer pool.Close()
	procs := recordJobs(pool)
	if _, err := pool.Prewarm(2); err != nil {
		t.Fatal(err)
	}
	// On a pool not yet seeded, Prewarm makes two calls: the cold boot
	// that seeds it, then the forks.
	if len(*procs) != 2 || !sameProcess(*procs) {
		t.Fatalf("Prewarm ran on processes %v, want two calls on the pool's", *procs)
	}
	res := bootOrFatal(t, pool)
	if len(*procs) != 3 || !sameProcess(*procs) {
		t.Fatalf("Boot after Prewarm ran on processes %v, want Prewarm's", *procs)
	}
	if track := res.timeline.Spans()[0].Track; track != "pool" {
		t.Fatalf("boot traced on lane %q, want pool", track)
	}
}

// TestPoolWarmBootSpansRepeat: on the shared lane, two consecutive warm
// boots record the same span tree — names, parents relative to the boot,
// attributes, offsets and durations — and the second boot's spans all
// hang under its own root, none under a span of the first.
func TestPoolWarmBootSpansRepeat(t *testing.T) {
	pool := newTestPool(t)
	defer pool.Close()
	bootOrFatal(t, pool)
	first := bootOrFatal(t, pool)
	firstRaw := first.timeline.Spans()
	second := bootOrFatal(t, pool)
	secondRaw := second.timeline.Spans()

	if got := len(first.timeline.Spans()); got != len(firstRaw) {
		t.Fatalf("the first boot's tree grew from %d to %d spans during the second", len(firstRaw), got)
	}
	if secondRaw[0].Parent != 0 {
		t.Fatalf("the second boot's root has parent %d, want none", secondRaw[0].Parent)
	}
	if last := firstRaw[len(firstRaw)-1].ID; secondRaw[0].ID <= last {
		t.Fatalf("the second boot's root (span %d) predates the first boot's last span (%d)", secondRaw[0].ID, last)
	}
	if !reflect.DeepEqual(relativeParents(firstRaw), relativeParents(secondRaw)) {
		t.Fatal("the two warm boots' span trees differ in shape")
	}
	if a, b := first.Spans(), second.Spans(); !reflect.DeepEqual(a, b) {
		t.Fatalf("the two warm boots' spans differ:\n%+v\n%+v", a, b)
	}
}

// relativeParents maps each span of a subtree to its parent's index in
// it, -1 for the root.
func relativeParents(spans []*telemetry.Span) []int {
	at := make(map[int]int, len(spans))
	out := make([]int, len(spans))
	for i, s := range spans {
		at[s.ID] = i
		out[i] = -1
		if j, ok := at[s.Parent]; ok && i > 0 {
			out[i] = j
		}
	}
	return out
}
