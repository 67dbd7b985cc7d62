package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// testFleet assembles an engine, host, and orchestrator with the Lupine
// preset (the smallest kernel — these tests boot the full simulated path
// dozens of times).
func testFleet(t testing.TB, cfg Config) (*sim.Engine, *Orchestrator, *Image) {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	o := New(eng, host, cfg)
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return eng, o, img
}

// TestRegisterTakesTheLaunch: RegisterImage is Register with the design
// launch, and Register refuses a launch that is not measured.
func TestRegisterTakesTheLaunch(t *testing.T) {
	_, o, img := testFleet(t, Config{})
	preset := kernelgen.Lupine()
	art, err := kernelgen.Cached(preset)
	if err != nil {
		t.Fatal(err)
	}
	design := firecracker.Config{
		Preset:    preset,
		Artifacts: art,
		Initrd:    img.Spec().Initrd,
		Level:     sev.SNP,
		Scheme:    firecracker.SchemeSEVeriFastBz,
	}
	got, err := o.Register("fn", design)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheKey() != img.CacheKey() || !reflect.DeepEqual(got.Spec(), img.Spec()) {
		t.Errorf("Register(design launch) spec %+v key %x, RegisterImage spec %+v key %x",
			got.Spec(), got.CacheKey(), img.Spec(), img.CacheKey())
	}
	for _, tc := range []struct {
		name string
		set  func(*firecracker.Config)
	}{
		{"unencrypted", func(c *firecracker.Config) { c.Level = sev.None }},
		{"stock", func(c *firecracker.Config) { c.Scheme = firecracker.SchemeStock }},
	} {
		launch := design
		tc.set(&launch)
		if _, err := o.Register("fn", launch); err == nil || !strings.Contains(err.Error(), "measured guests only") {
			t.Errorf("%s: Register error = %v, want a measured-guests-only refusal", tc.name, err)
		}
	}
}

func runWorkload(t testing.TB, eng *sim.Engine, o *Orchestrator, w Workload) {
	t.Helper()
	if err := w.Run(eng, o); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFleet64BootsAcross8Workers is the acceptance run: 64 boots admitted
// through an 8-worker pool, all served, with the measured-image cache
// planning exactly once. Run under -race this also exercises the cache's
// locking from the engine goroutine.
func TestFleet64BootsAcross8Workers(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 8})
	runWorkload(t, eng, o, Workload{
		Arrivals:         64,
		MeanInterarrival: 100 * time.Microsecond,
		ExecTime:         2 * time.Millisecond,
		Tenants:          []string{"a", "b", "c", "d"},
		Images:           []*Image{img},
		Seed:             42,
	})

	m := o.Metrics()
	if m.Submitted != 64 || m.Rejected != 0 {
		t.Fatalf("submitted %d rejected %d, want 64/0", m.Submitted, m.Rejected)
	}
	if got := m.TotalBoots(); got != 64 {
		t.Fatalf("TotalBoots = %d, want 64", got)
	}
	cs := o.CacheStats()
	if cs.Plans != 1 {
		t.Fatalf("cache planned %d times for one image, want 1", cs.Plans)
	}
	if cs.Hits != 63 || cs.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 63/1", cs.Hits, cs.Misses)
	}
	if m.Boots[TierCold] != 1 || m.Boots[TierCachedCold] != 63 {
		t.Fatalf("boots per tier = %v, want 1 cold + 63 cached-cold", m.Boots)
	}
	// Arrivals outpace 8 workers, so the queue must have backed up.
	if m.QueueDepthMax == 0 {
		t.Fatal("queue never backed up despite arrival burst")
	}
	if len(m.EndToEnd) != 64 || len(m.QueueWait) != 64 {
		t.Fatalf("latency series lengths = %d/%d, want 64", len(m.EndToEnd), len(m.QueueWait))
	}
	for tenant, n := range m.PerTenant {
		if n != 16 {
			t.Fatalf("tenant %s served %d, want 16", tenant, n)
		}
	}
	report := m.Report(cs, 60)
	for _, want := range []string{"64 submitted", "cached-cold", "hit ratio 0.98"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestCachedBootSkipsMeasurement is the cache-effect acceptance test: the
// second boot of an identical image must not re-run measure.Plan (plan
// counter stays 1, hit counter rises) and must be faster in virtual time
// because the measurement pass is skipped.
func TestCachedBootSkipsMeasurement(t *testing.T) {
	bootOnceThrough := func(cache *Cache) time.Duration {
		eng := sim.NewEngine()
		host := kvm.NewHost(eng, costmodel.Default(), 1)
		o := New(eng, host, Config{Workers: 1, Cache: cache})
		img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		eng.Go("submit", func(p *sim.Proc) {
			if err := o.Submit(p, Request{Tenant: "t", Image: img}); err != nil {
				t.Error(err)
			}
			o.Close()
		})
		eng.Run()
		if err := o.Err(); err != nil {
			t.Fatal(err)
		}
		return eng.Now().Sub(0)
	}

	shared := NewCache()
	coldTime := bootOnceThrough(shared)
	if s := shared.Stats(); s.Plans != 1 || s.Misses != 1 {
		t.Fatalf("after cold boot: %+v, want 1 plan, 1 miss", s)
	}
	cachedTime := bootOnceThrough(shared)
	s := shared.Stats()
	if s.Plans != 1 {
		t.Fatalf("cached boot re-planned: %d plans", s.Plans)
	}
	if s.Hits < 1 {
		t.Fatalf("cached boot missed: %+v", s)
	}
	if cachedTime >= coldTime {
		t.Fatalf("cached boot (%v) not faster than cold boot (%v)", cachedTime, coldTime)
	}
	t.Logf("cold %v, cached %v (saved %v)", coldTime, cachedTime, coldTime-cachedTime)
}

// TestDeterminism: identical seeds must reproduce the run bit for bit —
// same virtual end time, same report.
func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, string) {
		eng, o, img := testFleet(t, Config{
			Workers:    4,
			QueueDepth: 16,
			Faults:     &FaultPlan{Rate: 0.2, Seed: 9, Site: FaultPSP},
			Retry:      RetryPolicy{Max: 3, Backoff: time.Millisecond},
		})
		runWorkload(t, eng, o, Workload{
			Arrivals:         32,
			MeanInterarrival: time.Millisecond,
			ExecTime:         time.Millisecond,
			Tenants:          []string{"a", "b"},
			Images:           []*Image{img},
			Seed:             5,
		})
		return eng.Now(), o.Metrics().Report(o.CacheStats(), 60)
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 {
		t.Fatalf("virtual end times differ: %v vs %v", t1, t2)
	}
	if r1 != r2 {
		t.Fatalf("reports differ:\n%s\n---\n%s", r1, r2)
	}
}

// TestBackpressure: a bounded queue with a slow pool must shed load, and
// the bookkeeping must balance (served + rejected == submitted).
func TestBackpressure(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1, QueueDepth: 2})
	runWorkload(t, eng, o, Workload{
		Arrivals:         16,
		MeanInterarrival: 10 * time.Microsecond, // far faster than one worker boots
		Images:           []*Image{img},
		Seed:             3,
	})
	m := o.Metrics()
	if m.Rejected == 0 {
		t.Fatal("bounded queue rejected nothing under overload")
	}
	if m.QueueDepthMax > 2 {
		t.Fatalf("queue depth high-water %d exceeds bound 2", m.QueueDepthMax)
	}
	if m.TotalBoots()+m.Rejected != m.Submitted {
		t.Fatalf("bookkeeping: %d boots + %d rejected != %d submitted",
			m.TotalBoots(), m.Rejected, m.Submitted)
	}
}

// TestTenantFairness: with one worker, a tenant submitting one request
// behind a burst from another tenant must be served round-robin — second,
// not last.
func TestTenantFairness(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1})
	var order []string
	eng.Go("submit", func(p *sim.Proc) {
		done := func(tenant string) func(*sim.Proc, Tier, error) {
			return func(_ *sim.Proc, _ Tier, err error) {
				if err != nil {
					t.Error(err)
				}
				order = append(order, tenant)
			}
		}
		for i := 0; i < 8; i++ {
			if err := o.Submit(p, Request{Tenant: "noisy", Image: img, Done: done("noisy")}); err != nil {
				t.Error(err)
			}
		}
		if err := o.Submit(p, Request{Tenant: "quiet", Image: img, Done: done("quiet")}); err != nil {
			t.Error(err)
		}
		o.Close()
	})
	eng.Run()
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 9 {
		t.Fatalf("served %d requests, want 9", len(order))
	}
	if order[1] != "quiet" {
		t.Fatalf("quiet tenant served at position %d (order %v), want 1", indexOf(order, "quiet"), order)
	}
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// TestFaultRetryExhaustion: with a certain fault every attempt, each
// request burns its full retry budget in exponential virtual-time backoff
// and fails.
func TestFaultRetryExhaustion(t *testing.T) {
	const arrivals, maxRetry = 4, 2
	eng, o, img := testFleet(t, Config{
		Workers: 1,
		Faults:  &FaultPlan{Rate: 1.0, Seed: 1, Site: FaultPSP},
		Retry:   RetryPolicy{Max: maxRetry, Backoff: time.Millisecond},
	})
	runWorkload(t, eng, o, Workload{Arrivals: arrivals, Images: []*Image{img}, Seed: 2})
	m := o.Metrics()
	if m.Failed != arrivals {
		t.Fatalf("failed %d, want all %d", m.Failed, arrivals)
	}
	if m.TotalBoots() != 0 {
		t.Fatalf("booted %d despite certain faults", m.TotalBoots())
	}
	if want := arrivals * (maxRetry + 1); m.Faults != want {
		t.Fatalf("faults observed %d, want %d", m.Faults, want)
	}
	if want := arrivals * maxRetry; m.Retries != want {
		t.Fatalf("retries %d, want %d", m.Retries, want)
	}
	// Each request backs off 1ms + 2ms; the run cannot finish before the
	// serialized backoffs alone.
	if minBackoff := time.Duration(arrivals) * 3 * time.Millisecond; eng.Now().Sub(0) < minBackoff {
		t.Fatalf("run ended at %v, before the %v of mandatory backoff", eng.Now(), minBackoff)
	}
	if o.Err() != nil {
		t.Fatalf("injected faults surfaced as deterministic error: %v", o.Err())
	}
}

// TestFaultRecovery: transient faults at a moderate rate must be absorbed
// by retries without losing requests.
func TestFaultRecovery(t *testing.T) {
	for _, site := range []FaultSite{FaultPSP, FaultVerifier} {
		t.Run(site.String(), func(t *testing.T) {
			eng, o, img := testFleet(t, Config{
				Workers: 4,
				Faults:  &FaultPlan{Rate: 0.3, Seed: 11, Site: site},
				Retry:   RetryPolicy{Max: 8, Backoff: 500 * time.Microsecond},
			})
			runWorkload(t, eng, o, Workload{
				Arrivals:         24,
				MeanInterarrival: time.Millisecond,
				Images:           []*Image{img},
				Seed:             6,
			})
			m := o.Metrics()
			if m.Faults == 0 {
				t.Fatal("no faults fired at rate 0.3")
			}
			if m.TotalBoots() != 24 || m.Failed != 0 {
				t.Fatalf("boots %d failed %d, want 24/0 (faults %d, retries %d)",
					m.TotalBoots(), m.Failed, m.Faults, m.Retries)
			}
		})
	}
}

// TestWarmTierRestores: with the warm pool on, the first boot is cold and
// donates a snapshot; later boots restore from it and are faster.
func TestWarmTierRestores(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1, EnableWarm: true})
	// Space arrivals far apart so per-tier latency is pure boot service
	// time, not queue wait.
	runWorkload(t, eng, o, Workload{
		Arrivals:         4,
		MeanInterarrival: 2 * time.Second,
		Images:           []*Image{img},
		Seed:             8,
	})
	m := o.Metrics()
	if m.Boots[TierCold] != 1 {
		t.Fatalf("cold boots = %d, want exactly the donor", m.Boots[TierCold])
	}
	if m.Boots[TierWarm] != 3 {
		t.Fatalf("warm boots = %d, want 3", m.Boots[TierWarm])
	}
	cold := m.Latency[TierCold].Percentile(50)
	warm := m.Latency[TierWarm].Percentile(50)
	if warm >= cold {
		t.Fatalf("warm restore (%v) not faster than cold boot (%v)", warm, cold)
	}
	t.Logf("cold %v, warm %v", cold, warm)
}

// TestSharedCacheAcrossShards runs four orchestrator shards on four OS
// goroutines — each with its own engine and host — all sharing one
// measured-image cache. Under -race this is the load-bearing concurrency
// test: the cache is the only cross-goroutine state.
func TestSharedCacheAcrossShards(t *testing.T) {
	const shards, bootsPerShard = 4, 8
	shared := NewCache()
	var wg sync.WaitGroup
	errs := make(chan error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng := sim.NewEngine()
			host := kvm.NewHost(eng, costmodel.Default(), int64(s+1))
			o := New(eng, host, Config{Workers: 2, Cache: shared})
			img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
			if err != nil {
				errs <- err
				return
			}
			if err := (Workload{
				Arrivals:         bootsPerShard,
				MeanInterarrival: time.Millisecond,
				Images:           []*Image{img},
				Seed:             int64(s),
			}).Run(eng, o); err != nil {
				errs <- err
				return
			}
			eng.Run()
			if err := o.Err(); err != nil {
				errs <- err
				return
			}
			if got := o.Metrics().TotalBoots(); got != bootsPerShard {
				errs <- fmt.Errorf("shard %d booted %d, want %d", s, got, bootsPerShard)
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.Entries != 1 {
		t.Fatalf("shared cache holds %d entries for one image, want 1", st.Entries)
	}
	if st.Hits+st.Misses != shards*bootsPerShard {
		t.Fatalf("lookups = %d, want %d", st.Hits+st.Misses, shards*bootsPerShard)
	}
	// Every miss planned, but racing planners all collapsed to one entry;
	// once published, no further misses are possible.
	if st.Plans != st.Misses {
		t.Fatalf("plans %d != misses %d", st.Plans, st.Misses)
	}
	if st.Hits < uint64(shards*bootsPerShard-shards) {
		t.Fatalf("hits %d implausibly low: %+v", st.Hits, st)
	}
}

// TestSubmitAfterClose and queue bookkeeping on the error paths.
func TestSubmitAfterClose(t *testing.T) {
	eng, o, img := testFleet(t, Config{Workers: 1})
	eng.Go("submit", func(p *sim.Proc) {
		o.Close()
		if err := o.Submit(p, Request{Tenant: "t", Image: img}); !errors.Is(err, ErrClosed) {
			t.Errorf("Submit after Close = %v, want ErrClosed", err)
		}
	})
	eng.Run()
	m := o.Metrics()
	if m.Submitted != 1 || m.Rejected != 1 {
		t.Fatalf("submitted/rejected = %d/%d, want 1/1", m.Submitted, m.Rejected)
	}
}
