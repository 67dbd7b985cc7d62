package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sim"
)

// fleetTCB is the broker's minimum TCB in these tests, and the enrolled
// platform's unless a test enrolls it elsewhere.
var fleetTCB = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}

// testKBSFleet assembles a fleet whose boots are gated by an in-process
// key broker: the host PSP is enrolled at fleetTCB under an authority,
// the broker pins the authority root, and the orchestrator provisions
// reference digests from its measured-image cache.
func testKBSFleet(t testing.TB, cfg Config, tenants ...string) (*sim.Engine, *Orchestrator, *Image, *kbs.Broker) {
	t.Helper()
	return kbsFleetAt(t, cfg, fleetTCB, tenants...)
}

// kbsFleetAt is testKBSFleet with the host enrolled at tcb.
func kbsFleetAt(t testing.TB, cfg Config, tcb kbs.TCB, tenants ...string) (*sim.Engine, *Orchestrator, *Image, *kbs.Broker) {
	t.Helper()
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	auth := kbs.NewAuthority(99)
	enr := auth.Enroll(host.PSP, "chip-A", tcb)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{
		MinTCB:   fleetTCB,
		NonceTTL: time.Second,
		Seed:     7,
	})
	if len(tenants) == 0 {
		tenants = []string{"t0"}
	}
	for _, tn := range tenants {
		broker.AddTenant(tn, []byte("disk key for "+tn))
	}
	cfg.KBS = broker
	cfg.Enrollment = enr
	cfg.AgentSeed = 1000
	o := New(eng, host, cfg)
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return eng, o, img, broker
}

// TestKBSGatedFleetGrantsAll is the e2e acceptance run: every boot runs
// the attest→key-release exchange against the broker, every fresh report
// on a provisioned digest is granted, and the attest span shows up in the
// fleet report.
func TestKBSGatedFleetGrantsAll(t *testing.T) {
	const arrivals = 16
	eng, o, img, broker := testKBSFleet(t, Config{Workers: 4}, "acme", "globex")
	runWorkload(t, eng, o, Workload{
		Arrivals:         arrivals,
		MeanInterarrival: time.Millisecond,
		ExecTime:         time.Millisecond,
		Tenants:          []string{"acme", "globex"},
		Images:           []*Image{img},
		Seed:             5,
	})

	m := o.Metrics()
	if m.TotalBoots() != arrivals || m.Failed != 0 {
		t.Fatalf("boots %d failed %d, want %d/0", m.TotalBoots(), m.Failed, arrivals)
	}
	if m.Attested != arrivals {
		t.Fatalf("attested %d boots, want %d", m.Attested, arrivals)
	}
	if len(m.Denials) != 0 {
		t.Fatalf("unexpected denials: %v", m.Denials)
	}
	if len(m.AttestLatency) != arrivals {
		t.Fatalf("attest latency series length %d, want %d", len(m.AttestLatency), arrivals)
	}
	bs, err := broker.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if bs.Grants != arrivals || bs.Challenges != arrivals {
		t.Fatalf("broker grants/challenges = %d/%d, want %d/%d", bs.Grants, bs.Challenges, arrivals, arrivals)
	}
	if bs.RefValues == 0 {
		t.Fatal("reference store empty: cache subscription never provisioned")
	}
	report := m.Report(o.CacheStats(), 60)
	if !strings.Contains(report, "attest: 16 granted") {
		t.Fatalf("report missing attest line:\n%s", report)
	}
}

// TestKBSDenialSites: a broker refusal is a verdict, not a transient
// failure. A host the broker will never trust — enrolled one TCB step
// below its floor, or on a revoked chip — is refused once per request
// for that reason, with no retry; each refusal is counted once in the
// fleet's and the broker's denials and printed in the report, and the
// run's error is that denial.
func TestKBSDenialSites(t *testing.T) {
	const arrivals = 3
	stale, err := fleetTCB.Predecessor()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		reason kbs.Reason
		tcb    kbs.TCB
		revoke bool
	}{
		{kbs.ReasonStaleTCB, stale, false},
		{kbs.ReasonRevoked, fleetTCB, true},
	} {
		t.Run(string(tc.reason), func(t *testing.T) {
			eng, o, img, broker := kbsFleetAt(t, Config{
				Workers: 1,
				Retry:   RetryPolicy{Max: 2, Backoff: time.Millisecond},
			}, tc.tcb)
			if tc.revoke {
				if err := broker.File(kbs.RevocationClaim("chip-A", 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := (Workload{Arrivals: arrivals, Images: []*Image{img}, Seed: 2}).Run(eng, o); err != nil {
				t.Fatal(err)
			}
			eng.Run()

			m := o.Metrics()
			if m.Failed != arrivals || m.TotalBoots() != 0 {
				t.Fatalf("failed %d boots %d, want %d/0", m.Failed, m.TotalBoots(), arrivals)
			}
			if m.Faults != 0 || m.Retries != 0 {
				t.Fatalf("faults %d retries %d: a denial was retried", m.Faults, m.Retries)
			}
			if got := m.Denials[string(tc.reason)]; got != arrivals || len(m.Denials) != 1 {
				t.Fatalf("denials %v, want only %s=%d", m.Denials, tc.reason, arrivals)
			}
			bs, err := broker.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if got := bs.Denials[string(tc.reason)]; got != arrivals || len(bs.Denials) != 1 {
				t.Fatalf("broker denials %v, want only %s=%d", bs.Denials, tc.reason, arrivals)
			}
			report := m.Report(o.CacheStats(), 60)
			if want := fmt.Sprintf("%s=%d", tc.reason, arrivals); !strings.Contains(report, want) {
				t.Fatalf("report missing denial counter %s:\n%s", want, report)
			}
			if err := o.Err(); kbs.ReasonOf(err) != tc.reason || !errors.Is(err, kbs.ErrDenied) {
				t.Fatalf("Err() = %v, want the %s denial", err, tc.reason)
			}
		})
	}
}

// TestKBSChainCacheHotBoots: the broker walks the VCEK→ASK→ARK chain once
// per distinct chain and caches the verdict per (chip, TCB, digest,
// policy, level) — hot boots skip both, which shows up as a cheaper
// attest span.
func TestKBSChainCacheHotBoots(t *testing.T) {
	const arrivals = 4
	eng, o, img, broker := testKBSFleet(t, Config{Workers: 1})
	runWorkload(t, eng, o, Workload{
		Arrivals:         arrivals,
		MeanInterarrival: 100 * time.Millisecond,
		Images:           []*Image{img},
		Seed:             3,
	})
	if got := o.Metrics().Attested; got != arrivals {
		t.Fatalf("attested %d, want %d", got, arrivals)
	}
	bs, err := broker.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if bs.ChainMiss != 1 || bs.ChainHits != arrivals-1 {
		t.Fatalf("chain cache hits/misses = %d/%d, want %d/1", bs.ChainHits, bs.ChainMiss, arrivals-1)
	}
	if bs.VerdictMis != 1 || bs.VerdictHit != arrivals-1 {
		t.Fatalf("verdict cache hits/misses = %d/%d, want %d/1", bs.VerdictHit, bs.VerdictMis, arrivals-1)
	}
	lat := o.Metrics().AttestLatency
	if lat[0] <= lat[1] {
		t.Fatalf("first (cold-chain) attest %v not slower than hot %v", lat[0], lat[1])
	}
}

// TestKBSUnknownTenantFailsDeterministically: a tenant the broker has
// never heard of is a genuine denial, not a transient fault — it fails
// the request immediately and surfaces as the orchestrator's first error.
func TestKBSUnknownTenantFailsDeterministically(t *testing.T) {
	eng, o, img, _ := testKBSFleet(t, Config{Workers: 1}, "acme")
	eng.Go("submit", func(p *sim.Proc) {
		if err := o.Submit(p, Request{Tenant: "mallory", Image: img}); err != nil {
			t.Error(err)
		}
		o.Close()
	})
	eng.Run()
	err := o.Err()
	if err == nil {
		t.Fatal("unknown tenant was granted")
	}
	if kbs.ReasonOf(err) != kbs.ReasonTenant || !errors.Is(err, kbs.ErrDenied) {
		t.Fatalf("error %v is not a tenant denial", err)
	}
	m := o.Metrics()
	if m.Failed != 1 || m.Denials["tenant"] != 1 {
		t.Fatalf("failed %d denials %v, want 1 failure with one tenant denial", m.Failed, m.Denials)
	}
}

// TestKBSWarmTierAttested: warm restores are attested too. On the fork
// path a warm boot inherits the donor's launch digest, so the broker's
// reference store holds exactly one derived digest — the measured cold
// image — and warm restores attest against it with no extra
// provisioning.
func TestKBSWarmTierAttested(t *testing.T) {
	const arrivals = 4
	eng, o, img, broker := testKBSFleet(t, Config{Workers: 1, EnableWarm: true})
	runWorkload(t, eng, o, Workload{
		Arrivals:         arrivals,
		MeanInterarrival: 2 * time.Second,
		Images:           []*Image{img},
		Seed:             8,
	})
	m := o.Metrics()
	if m.Boots[TierCold] != 1 || m.Boots[TierWarm] != arrivals-1 {
		t.Fatalf("boots per tier %v, want 1 cold + %d warm", m.Boots, arrivals-1)
	}
	if m.Attested != arrivals {
		t.Fatalf("attested %d, want all %d including warm restores", m.Attested, arrivals)
	}
	bs, err := broker.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if bs.RefValues != 1 {
		t.Fatalf("reference store holds %d digests, want 1 (fork inherits the cold digest)", bs.RefValues)
	}
	if bs.Grants != arrivals {
		t.Fatalf("broker granted %d, want %d", bs.Grants, arrivals)
	}
	cold := m.Latency[TierCold].Percentile(50)
	warm := m.Latency[TierWarm].Percentile(50)
	if warm >= cold {
		t.Fatalf("attested warm restore (%v) not faster than cold boot (%v)", warm, cold)
	}
}

// TestKBSRefStoreHoldsOnlyMeasuredDigests: the broker's reference store is
// derived from measured launches and nothing else. After a warm,
// broker-gated run over K images it holds exactly K digests, and a guest
// that opened a launch context but measured nothing — its report carries
// the content-free psp.InitialDigest — is denied for its measurement even
// though its platform evidence is honest.
func TestKBSRefStoreHoldsOnlyMeasuredDigests(t *testing.T) {
	const images = 3
	eng, o, img0, broker := testKBSFleet(t, Config{Standalone: true, EnableWarm: true})
	imgs := []*Image{img0}
	for i := 1; i < images; i++ {
		img, err := o.RegisterImage(fmt.Sprintf("fn-%d", i), kernelgen.Lupine(), kernelgen.BuildInitrd(int64(7+i), 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	var denial error
	eng.Go("run", func(p *sim.Proc) {
		for _, img := range imgs {
			for _, want := range []Tier{TierCold, TierWarm} {
				o.Serve(p, Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, tier Tier, err error) {
					if err != nil || tier != want {
						t.Errorf("%s: served %v (err %v), want %v", img.Name, tier, err, want)
					}
				}})
			}
		}

		// A launch finished without a single measured page, run through
		// the fleet's own attest exchange.
		spec := img0.Spec()
		m := o.host.NewMachine(p, spec.MemSize, spec.Level)
		if err := m.StartLaunch(p, spec.Policy); err != nil {
			t.Error(err)
			return
		}
		ctx := m.Launch
		if _, err := ctx.LaunchFinish(p); err != nil {
			t.Error(err)
			return
		}
		if ctx.Digest() != psp.InitialDigest(spec.Policy, spec.Level) {
			t.Error("unmeasured guest does not carry the initial digest")
		}
		denial = o.attestExchange(p, &request{Request: Request{Tenant: "t0"}}, m)
	})
	eng.Run()
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
	if got := kbs.ReasonOf(denial); got != kbs.ReasonMeasurement {
		t.Fatalf("initial-digest redeem: reason %q (err %v), want %q", got, denial, kbs.ReasonMeasurement)
	}
	bs, err := broker.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if bs.RefValues != images {
		t.Fatalf("reference store holds %d digests, want %d (one per measured image)", bs.RefValues, images)
	}
	if bs.Grants != 2*images {
		t.Fatalf("broker granted %d, want %d", bs.Grants, 2*images)
	}
}
