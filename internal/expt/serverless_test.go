package expt

import (
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kernelgen"
)

// traffic is one arrival process of the keep-alive platform.
type traffic struct {
	invocations   int
	meanGap, exec time.Duration
	seed          int64
}

// sparse arrivals lie far apart: every request misses the keep-alive
// window.
var sparse = traffic{invocations: 8, meanGap: 30 * time.Second, exec: 100 * time.Millisecond, seed: 1}

// dense arrivals bunch up: most requests hit the pool.
var dense = traffic{invocations: 30, meanGap: 50 * time.Millisecond, exec: 20 * time.Millisecond, seed: 2}

func runPlatform(t *testing.T, sc scheme, warm bool, ttl time.Duration, tr traffic) *keepAlive {
	t.Helper()
	cfg, err := sc.config(kernelgen.Lupine(), kernelgen.BuildInitrd(tr.seed, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	cfg.AllowKeySharing = warm
	k, err := runKeepAlive(newWorld(costmodel.Default(), tr.seed), sc, cfg, ttl, tr.invocations, tr.meanGap, tr.exec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSparseTrafficIsAllCold(t *testing.T) {
	k := runPlatform(t, schemeSEVeriFast, false, time.Millisecond, sparse)
	if k.cold != sparse.invocations {
		t.Fatalf("%d cold of %d; sparse arrivals must all miss the pool", k.cold, sparse.invocations)
	}
}

func TestDenseTrafficHitsPool(t *testing.T) {
	k := runPlatform(t, schemeSEVeriFast, false, 10*time.Second, dense)
	if k.hits == 0 {
		t.Fatal("dense arrivals never hit the keep-alive pool")
	}
	if f := float64(k.cold) / float64(dense.invocations); f > 0.7 {
		t.Fatalf("cold fraction %.2f too high for dense traffic", f)
	}
}

func TestKeepAliveZeroDisablesPool(t *testing.T) {
	if k := runPlatform(t, schemeSEVeriFast, false, 0, dense); k.hits != 0 {
		t.Fatalf("pool hits %d with zero keep-alive", k.hits)
	}
}

func TestSEVColdSlowerThanPlain(t *testing.T) {
	plain := runPlatform(t, schemeStock, false, time.Second, sparse)
	sevc := runPlatform(t, schemeSEVeriFast, false, time.Second, sparse)
	if sevc.startup.Mean() <= plain.startup.Mean() {
		t.Fatalf("SEV cold startup %v not slower than plain %v", sevc.startup.Mean(), plain.startup.Mean())
	}
}

func TestWarmPoolCutsSEVStartup(t *testing.T) {
	// §7's promise: shared-key snapshot restore beats cold boot for pool
	// misses.
	cold := runPlatform(t, schemeSEVeriFast, false, time.Second, sparse)
	warm := runPlatform(t, schemeSEVeriFast, true, time.Second, sparse)
	if warm.startup.Mean() >= cold.startup.Mean() {
		t.Fatalf("warm pool startup %v not below cold %v", warm.startup.Mean(), cold.startup.Mean())
	}
	if warm.cold != 0 || warm.forks == 0 {
		t.Fatalf("%d cold starts and %d forks despite the snapshot pool", warm.cold, warm.forks)
	}
}

func TestLatencyIncludesExecution(t *testing.T) {
	k := runPlatform(t, schemeStock, false, time.Second, sparse)
	if k.latency.Mean() < k.startup.Mean()+sparse.exec {
		t.Fatal("latency does not include execution time")
	}
}

func TestEveryInvocationIsCounted(t *testing.T) {
	k := runPlatform(t, schemeSEVeriFast, false, 10*time.Second, dense)
	if len(k.latency) != dense.invocations || len(k.startup) != dense.invocations {
		t.Fatalf("latency samples %d/%d of %d invocations", len(k.latency), len(k.startup), dense.invocations)
	}
	if k.cold+k.forks+k.hits != dense.invocations {
		t.Fatalf("cold %d + forks %d + hits %d != %d", k.cold, k.forks, k.hits, dense.invocations)
	}
}

func TestSameSeedReplaysThePlatform(t *testing.T) {
	a := runPlatform(t, schemeSEVeriFast, false, 10*time.Second, dense)
	b := runPlatform(t, schemeSEVeriFast, false, 10*time.Second, dense)
	if a.cold != b.cold || a.hits != b.hits || a.latency.Mean() != b.latency.Mean() {
		t.Fatal("platform run not deterministic")
	}
}
