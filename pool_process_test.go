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
// the seed boot: measured ~20 with spans carved from the registry's slabs,
// metric lookups keyed on the stack and a map-free Timeline; ~49 when each
// of those allocated; ~70 when every call started a process of its own (a
// coroutine, its Proc and a formatted name) and the fork's launch start
// derived a digest it then discarded and expanded the donor's key again.
const poolWarmBootAllocCeiling = 24

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	cfg := NewConfig(WithKernel(KernelLupine), WithSeed(42))
	cfg.InitrdMiB = 2
	pool, err := NewPool(cfg, PoolOptions{})
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
	if got := float64(after.Mallocs-before.Mallocs) / boots; got > poolWarmBootAllocCeiling {
		t.Errorf("a warm Pool.Boot allocates %.1f times, ceiling %d: a per-call process or a per-fork key expansion is back", got, poolWarmBootAllocCeiling)
	}
}

// TestPoolCloseLeavesNoGoroutine: the pool's standing process is the only
// goroutine a Pool keeps, and Close ends it. The baseline is taken after
// one pool has come and gone, so process-wide workers started on first use
// are in it.
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
	cycle()
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
	cold := bootOrFatal(t, pool)
	proc := pool.proc
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
	if pool.proc != proc {
		t.Fatal("the pool started a second process")
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
	if _, err := pool.Prewarm(2); err != nil {
		t.Fatal(err)
	}
	proc := pool.proc
	if proc == nil || proc.Name() != "pool" {
		t.Fatalf("Prewarm left process %v, want the pool's", proc)
	}
	res := bootOrFatal(t, pool)
	if pool.proc != proc {
		t.Fatal("Boot after Prewarm ran on another process")
	}
	if track := res.timeline.Track(); track != "pool" {
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
