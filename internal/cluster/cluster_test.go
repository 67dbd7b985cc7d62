package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// testInitrd builds a small valid initrd so boots stay fast.
// noFaults fails t if the cluster recorded a fault of its own or any
// shard failed a boot.
func noFaults(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("cluster fault: %v", err)
	}
	for _, s := range c.shards {
		if err := s.Orch.Err(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func testInitrd(n int) []byte {
	return kernelgen.BuildInitrd(1, n)
}

// runScenario builds a cluster, registers images, replays a trace, and
// returns the cluster and its summary.
func runScenario(t *testing.T, cfg Config, spec TraceSpec, images int, exec time.Duration) (*Cluster, Summary) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	var imgs []*Image
	for i := 0; i < images; i++ {
		preset := kernelgen.Lupine()
		preset.Cmdline = fmt.Sprintf("%s img=%d", preset.Cmdline, i)
		// Distinct initrd per image: each image is its own blob in the
		// replication layer, so placement geography shows up in bytes.
		img, err := c.RegisterImage(fmt.Sprintf("img-%d", i), preset, kernelgen.BuildInitrd(int64(i+1), 256<<10))
		if err != nil {
			t.Fatalf("RegisterImage: %v", err)
		}
		imgs = append(imgs, img)
	}
	arr, err := spec.Generate()
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	if err := c.Play(arr, imgs, exec); err != nil {
		t.Fatalf("Play: %v", err)
	}
	eng.Run()
	return c, c.Summarize()
}

func smallSpec(arrivals, images int) TraceSpec {
	return TraceSpec{
		Kind:     TraceZipf,
		Arrivals: arrivals,
		MeanGap:  500 * time.Microsecond,
		Images:   images,
		Tenants:  3,
		ZipfS:    1.2,
		Seed:     11,
	}
}

// TestClusterDeterminism: two identical runs must produce byte-equal
// JSON summaries — the property the CI smoke job and the acceptance
// criteria pin at 8 hosts/512 boots.
func TestClusterDeterminism(t *testing.T) {
	run := func() []byte {
		cfg := Config{
			Hosts: 4, ASIDsPerHost: 4, WorkersPerHost: 2,
			EnableWarm: true, Seed: 42,
			Telemetry: telemetry.NewRegistry(),
		}
		cfg.Policy, _ = PolicyByName("cache-affinity", cfg.Seed)
		c, sum := runScenario(t, cfg, smallSpec(64, 6), 6, 2*time.Millisecond)
		noFaults(t, c)
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("summaries differ across identical runs:\n%s\n%s", a, b)
	}
}

// TestCacheAffinityBeatsRandom is the acceptance comparison: cache-
// affinity placement must serve a higher warm/cached-cold fraction than
// random placement, and move fewer replicated bytes. Warm pools are off
// so the per-host measured-image cache is the differentiator: random
// placement pays a cold measurement pass per (host, image) first touch,
// affinity concentrates an image's boots where its measurement lives.
// (With warm pools on, every host self-captures on its first cold boot
// and both policies converge — the warm path is covered by
// TestWarmAdoption instead.)
func TestCacheAffinityBeatsRandom(t *testing.T) {
	run := func(policy string) Summary {
		cfg := Config{
			Hosts: 4, ASIDsPerHost: 4, WorkersPerHost: 2,
			EnableWarm: false, Seed: 42,
			Telemetry: telemetry.NewRegistry(),
		}
		var err error
		cfg.Policy, err = PolicyByName(policy, cfg.Seed)
		if err != nil {
			t.Fatalf("policy: %v", err)
		}
		c, sum := runScenario(t, cfg, smallSpec(96, 8), 8, 2*time.Millisecond)
		noFaults(t, c)
		return sum
	}
	random := run("random")
	affinity := run("cache-affinity")
	if affinity.HitRate <= random.HitRate {
		t.Errorf("cache-affinity hit rate %.3f not above random %.3f",
			affinity.HitRate, random.HitRate)
	}
	randBytes := random.Replication.PeerBytes + random.Replication.OriginBytes
	affBytes := affinity.Replication.PeerBytes + affinity.Replication.OriginBytes
	if affBytes >= randBytes {
		t.Errorf("cache-affinity moved %d replication bytes, random %d — affinity should move less",
			affBytes, randBytes)
	}
}

// TestASIDCapRespected: the per-host live-guest count must never exceed
// the pool, and with demand far beyond capacity every pool should hit
// its peak.
func TestASIDCapRespected(t *testing.T) {
	cfg := Config{
		Hosts: 2, ASIDsPerHost: 3, WorkersPerHost: 3,
		Seed:      5,
		Telemetry: telemetry.NewRegistry(),
	}
	cfg.Policy, _ = PolicyByName("binpack", cfg.Seed)
	spec := TraceSpec{
		Kind: TraceBursty, Arrivals: 48, MeanGap: 100 * time.Microsecond,
		Images: 2, BurstFactor: 8, BurstOn: time.Millisecond, BurstOff: 2 * time.Millisecond,
		Seed: 5,
	}
	// Long exec pins ASIDs, forcing the dispatcher to park on exhaustion.
	c, sum := runScenario(t, cfg, spec, 2, 20*time.Millisecond)
	noFaults(t, c)
	if sum.Served != 48 {
		t.Fatalf("served %d of 48 (failed %d, shed %d)", sum.Served, sum.Failed, sum.Shed)
	}
	for _, h := range sum.PerHost {
		if h.ASIDPeak > cfg.ASIDsPerHost {
			t.Errorf("%s: ASID peak %d exceeds pool of %d", h.Host, h.ASIDPeak, cfg.ASIDsPerHost)
		}
		if h.ASIDPeak != cfg.ASIDsPerHost {
			t.Errorf("%s: ASID peak %d never saturated the pool of %d under overload",
				h.Host, h.ASIDPeak, cfg.ASIDsPerHost)
		}
	}
	// The occupancy gauges must have recorded the saturation.
	if got := cfg.Telemetry.Gauge("severifast_cluster_asid_peak", telemetry.A("host", "h0")).Value(); got != float64(cfg.ASIDsPerHost) {
		t.Errorf("asid peak gauge = %v, want %d", got, cfg.ASIDsPerHost)
	}
}

// TestClusterBackpressure: a bounded admission queue sheds load instead
// of growing without limit.
func TestClusterBackpressure(t *testing.T) {
	cfg := Config{
		Hosts: 1, ASIDsPerHost: 1, WorkersPerHost: 1, QueueDepth: 2,
		Seed:      9,
		Telemetry: telemetry.NewRegistry(),
	}
	spec := TraceSpec{
		Kind: TraceUniform, Arrivals: 24, MeanGap: 50 * time.Microsecond,
		Images: 1, Seed: 9,
	}
	c, sum := runScenario(t, cfg, spec, 1, 30*time.Millisecond)
	if sum.Shed == 0 {
		t.Error("overloaded bounded queue shed nothing")
	}
	if sum.Served+sum.Shed+sum.Failed != sum.Submitted {
		t.Errorf("accounting leak: served %d + shed %d + failed %d != submitted %d",
			sum.Served, sum.Shed, sum.Failed, sum.Submitted)
	}
	if sum.QueueMax > cfg.QueueDepth {
		t.Errorf("queue high-water %d exceeds bound %d", sum.QueueMax, cfg.QueueDepth)
	}
	noFaults(t, c)
}

// TestWarmAdoption: with one ASID per host and two hosts, a hot image's
// boots spill to the second host, which must adopt the sealed snapshot
// over the fabric (peer bytes) and serve warm instead of cold booting.
// The arrival schedule is hand-built so the spill provably lands after
// the first boot's publish: boot 1 cold-boots on h0 and holds its only
// ASID for a long exec; boot 2 arrives well after the publish, finds h0
// full, and must adopt on h1.
func TestWarmAdoption(t *testing.T) {
	cfg := Config{
		Hosts: 2, ASIDsPerHost: 1, WorkersPerHost: 1,
		EnableWarm: true, Seed: 3,
		Telemetry: telemetry.NewRegistry(),
	}
	cfg.Policy, _ = PolicyByName("asid-pressure", cfg.Seed)
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	img, err := c.RegisterImage("hot", kernelgen.Lupine(), testInitrd(64<<10))
	if err != nil {
		t.Fatalf("RegisterImage: %v", err)
	}
	arr := []Arrival{{At: 0}}
	for i := 0; i < 5; i++ {
		arr = append(arr, Arrival{At: 5*time.Second + time.Duration(i)*10*time.Millisecond})
	}
	if err := c.Play(arr, []*Image{img}, 30*time.Second); err != nil {
		t.Fatalf("Play: %v", err)
	}
	eng.Run()
	sum := c.Summarize()
	noFaults(t, c)
	if sum.WarmPool.Captures != 1 {
		t.Errorf("captures = %d, want 1", sum.WarmPool.Captures)
	}
	if sum.WarmPool.Adoptions == 0 {
		t.Error("no host adopted the published warm snapshot")
	}
	if sum.Replication.PeerBytes == 0 {
		t.Error("adoption moved no peer bytes — sealed blob not replicated")
	}
	warm := sum.TierBoots["warm"].Boots
	cold := sum.TierBoots["cold"].Boots
	if warm == 0 {
		t.Error("no warm boots despite warm pool")
	}
	// Only the very first boot pays the cold path: h1's first touch of
	// the image happens after the publish and adopts instead.
	if cold != 1 {
		t.Errorf("%d cold boots of one image — want exactly the first", cold)
	}
}

// TestRevocationFlipsAdmissions is the policy-gate acceptance scenario:
// a cluster whose dispatch, fleet, and broker all answer to the broker's
// policy store, with the broker's minimum-TCB platform claim revoked at
// a fixed virtual instant mid-run. Every boot dispatched at or before
// the instant serves; every later one is refused at the dispatch gate
// with a per-rule denial count — and two identical runs agree on the
// flip boot-for-boot, byte-for-byte.
func TestRevocationFlipsAdmissions(t *testing.T) {
	// Arrivals span ~2.3s; the revocation lands mid-trace, late enough
	// that early boots finish end to end before it.
	revokeAt := 1200 * time.Millisecond
	run := func() ([]byte, Summary, map[string]int) {
		auth := kbs.NewAuthority(31)
		tcb, err := kbs.ParseTCB("2.1.8.115")
		if err != nil {
			t.Fatalf("tcb: %v", err)
		}
		broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: tcb, Seed: 31})
		for i := 0; i < 3; i++ {
			broker.AddTenant(fmt.Sprintf("t%d", i), []byte(fmt.Sprintf("secret-%d", i)))
		}
		cfg := Config{
			Hosts: 2, ASIDsPerHost: 4, WorkersPerHost: 2,
			Seed:      31,
			Telemetry: telemetry.NewRegistry(),
			KBS:       broker,
			Authority: auth,
			TCB:       tcb,
			Admission: broker.PolicyEngine(),
			Retry:     fleet.RetryPolicy{Max: 1, Backoff: time.Millisecond},
		}
		cfg.Policy, _ = PolicyByName("asid-pressure", cfg.Seed)
		eng := sim.NewEngine()
		c, err := New(eng, cfg)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		img, err := c.RegisterImage("fn", kernelgen.Lupine(), testInitrd(64<<10))
		if err != nil {
			t.Fatalf("RegisterImage: %v", err)
		}
		// The revocation lands at a virtual instant: the floor claim stays
		// good through revokeAt inclusive, and every evaluation strictly
		// after it must refuse.
		eng.After(revokeAt, func() {
			if err := broker.Policy().RevokeClaim("*", policy.FloorClaimID, eng.Now()); err != nil {
				t.Errorf("RevokeClaim: %v", err)
			}
		})
		spec := TraceSpec{
			Kind: TraceUniform, Arrivals: 24, MeanGap: 100 * time.Millisecond,
			Images: 1, Tenants: 3, Seed: 31,
		}
		arr, err := spec.Generate()
		if err != nil {
			t.Fatalf("trace: %v", err)
		}
		if err := c.Play(arr, []*Image{img}, time.Millisecond); err != nil {
			t.Fatalf("Play: %v", err)
		}
		eng.Run()
		sum := c.Summarize()
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		stats := broker.Policy().Stats()
		return b, sum, stats.DenialsByRule
	}
	b1, sum, byRule := run()
	b2, _, byRule2 := run()
	if !bytes.Equal(b1, b2) {
		t.Errorf("summaries differ across identical runs:\n%s\n%s", b1, b2)
	}
	if sum.PolicyDenied == 0 {
		t.Fatal("revocation flipped nothing: no dispatch-gate denials")
	}
	if sum.Served == 0 {
		t.Fatal("no boot served before the revocation instant")
	}
	// Every failure is policy-rooted: refused at the dispatch gate, at a
	// shard's serve-time re-check, or at the broker itself — depending on
	// where each in-flight boot stood when the revocation landed. All
	// three gates consult the same store.
	fleetDenied, brokerDenied := 0, 0
	for _, h := range sum.PerHost {
		for _, n := range h.PolicyDenials {
			fleetDenied += n
		}
		brokerDenied += h.Denials["policy"]
	}
	if sum.Failed != sum.PolicyDenied+fleetDenied+brokerDenied {
		t.Errorf("failed %d != dispatch %d + fleet %d + broker %d denials — policy gates must be the only failures",
			sum.Failed, sum.PolicyDenied, fleetDenied, brokerDenied)
	}
	if sum.Served+sum.Failed+sum.Shed != sum.Submitted {
		t.Errorf("accounting leak: served %d + failed %d + shed %d != submitted %d",
			sum.Served, sum.Failed, sum.Shed, sum.Submitted)
	}
	// The per-rule counters: a revoked floor claim refuses at the platform
	// rule with the claim-expired reason, and nothing else denies.
	if byRule["platform/claim-expired"] == 0 {
		t.Errorf("per-rule denial counters missing platform/claim-expired: %v", byRule)
	}
	if fmt.Sprint(byRule) != fmt.Sprint(byRule2) {
		t.Errorf("per-rule counters differ across identical runs: %v vs %v", byRule, byRule2)
	}
}

// outageKBS makes one host's broker transport fail unconditionally.
// Failures are transport errors (not denials), the food of the circuit
// breaker.
type outageKBS struct{ kbs.Service }

func (f *outageKBS) Challenge(string, sim.Time) (kbs.Challenge, error) {
	return kbs.Challenge{}, fmt.Errorf("kbs transport: connection refused")
}
func (f *outageKBS) Redeem(kbs.RedeemRequest, sim.Time) (*kbs.RedeemResult, error) {
	return nil, fmt.Errorf("kbs transport: connection refused")
}

// TestPerHostBreakerIsolation: host 0's broker transport is dead for
// the whole run. Its own circuit breaker must open — and the other
// host's must stay closed, keep attesting, and serve its boots. This is
// the per-host wiring of the PR 5 breaker: one degraded host must not
// poison cluster-wide admission.
func TestPerHostBreakerIsolation(t *testing.T) {
	auth := kbs.NewAuthority(77)
	tcb, err := kbs.ParseTCB("3.8.0.9")
	if err != nil {
		t.Fatalf("tcb: %v", err)
	}
	broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: tcb, Seed: 77})
	for i := 0; i < 3; i++ {
		broker.AddTenant(fmt.Sprintf("t%d", i), []byte(fmt.Sprintf("secret-%d", i)))
	}
	cfg := Config{
		Hosts: 2, ASIDsPerHost: 4, WorkersPerHost: 2,
		Seed:      77,
		Telemetry: telemetry.NewRegistry(),
		KBS:       broker,
		Authority: auth,
		TCB:       tcb,
		Breaker:   fleet.BreakerPolicy{Threshold: 2, Cooldown: 50 * time.Millisecond},
		Retry:     fleet.RetryPolicy{Max: 1, Backoff: time.Millisecond},
		WrapKBS: func(host int, svc kbs.Service) kbs.Service {
			if host == 0 {
				return &outageKBS{svc}
			}
			return svc
		},
	}
	cfg.Policy, _ = PolicyByName("asid-pressure", cfg.Seed)
	spec := TraceSpec{
		Kind: TraceUniform, Arrivals: 24, MeanGap: 2 * time.Millisecond,
		Images: 2, Tenants: 3, Seed: 77,
	}
	c, sum := runScenario(t, cfg, spec, 2, time.Millisecond)
	// Host 0's boots fail with deterministic breaker denials. They stay in
	// its own Orch.Err and are no fault of the cluster.
	if err := c.Err(); err != nil {
		t.Errorf("cluster fault %v; host 0's failed boots are not one", err)
	}
	if c.shards[0].Orch.Err() == nil {
		t.Error("host 0 failed boots but its orchestrator kept no error")
	}
	h0, h1 := sum.PerHost[0], sum.PerHost[1]
	if h0.BreakerStates["open"] == 0 {
		t.Errorf("host 0 breaker never opened under a total outage: %+v", h0.BreakerStates)
	}
	if h0.Attested != 0 {
		t.Errorf("host 0 attested %d boots through a dead transport", h0.Attested)
	}
	if h1.BreakerStates["open"] != 0 {
		t.Errorf("host 1 breaker opened (%+v) — outage leaked across hosts", h1.BreakerStates)
	}
	if h1.Attested == 0 {
		t.Error("healthy host attested nothing")
	}
	if h1.Failed != 0 {
		t.Errorf("healthy host failed %d boots", h1.Failed)
	}
	if sum.Served == 0 {
		t.Error("cluster served nothing despite a healthy host")
	}
}

// TestClusterRace4x64 is the race-detector scenario from the issue: a
// 4-host, 64-VM cluster with warm pools, shared telemetry, and the
// full per-host machinery. CI runs the package under -race; this test
// exists to put cross-goroutine surfaces (caches, registry, intern
// table) under cluster-shaped load.
func TestClusterRace4x64(t *testing.T) {
	cfg := Config{
		Hosts: 4, ASIDsPerHost: 4, WorkersPerHost: 2,
		EnableWarm: true, Seed: 64,
		Telemetry: telemetry.NewRegistry(),
	}
	cfg.Policy, _ = PolicyByName("cache-affinity", cfg.Seed)
	spec := TraceSpec{
		Kind: TraceZipf, Arrivals: 64, MeanGap: 300 * time.Microsecond,
		Images: 6, Tenants: 4, ZipfS: 1.3, Seed: 64,
	}
	c, sum := runScenario(t, cfg, spec, 6, 3*time.Millisecond)
	noFaults(t, c)
	if sum.Served != 64 {
		t.Fatalf("served %d of 64 (failed %d, shed %d)", sum.Served, sum.Failed, sum.Shed)
	}
	total := 0
	for _, h := range sum.PerHost {
		total += h.Boots
	}
	if total != 64 {
		t.Errorf("per-host boots sum to %d, want 64", total)
	}
}

// TestReplicationChargesAppearInSummary: a cold multi-host run must
// show origin pulls for the kernel/initrd and a nonzero makespan
// contribution from them (transfer latency is on the boot path).
func TestReplicationChargesAppearInSummary(t *testing.T) {
	cfg := Config{
		Hosts: 2, ASIDsPerHost: 2, WorkersPerHost: 1,
		Seed: 21, Telemetry: telemetry.NewRegistry(),
	}
	cfg.Policy, _ = PolicyByName("asid-pressure", cfg.Seed)
	spec := TraceSpec{
		Kind: TraceUniform, Arrivals: 8, MeanGap: 100 * time.Microsecond,
		Images: 2, Seed: 21,
	}
	c, sum := runScenario(t, cfg, spec, 2, 0)
	noFaults(t, c)
	if sum.Replication.OriginFetches == 0 {
		t.Error("no origin fetches recorded for a cold cluster")
	}
	if sum.Replication.OriginBytes == 0 {
		t.Error("origin fetches moved no bytes")
	}
	// Both hosts booted, so both must have pulled the kernel once and
	// hit locally afterwards.
	for _, h := range sum.PerHost {
		if h.Boots > 1 && h.Replication.LocalHits == 0 {
			t.Errorf("%s: repeat boots produced no local replication hits", h.Host)
		}
	}
	// The fetch counters must be mirrored into telemetry.
	got := cfg.Telemetry.Counter("severifast_replication_fetch_total",
		telemetry.A("host", "h0"), telemetry.A("source", "origin")).Value()
	if got == 0 {
		t.Error("replication telemetry counter empty")
	}
}
