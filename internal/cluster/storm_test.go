package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

var stormTCB = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}

func stormFloor() kbs.TCB {
	f := stormTCB
	f.SNP++
	f.Microcode += 5
	return f
}

// runStormScenario replays the acceptance trace — 8 hosts in two chip
// generations, 512 Zipf boots arriving across the storm, warm pools on
// — through a generation revocation plus floor bump at virtual 2s, with
// rolling drift from 1s every 250ms straddling it. Returns the summary,
// its JSON bytes, and the broker for gate reconciliation.
func runStormScenario(t *testing.T, policy string) (Summary, []byte, *kbs.Broker) {
	t.Helper()
	eng := sim.NewEngine()
	auth := kbs.NewAuthority(5)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: stormTCB, Seed: 5})
	for _, tn := range []string{"t0", "t1", "t2"} {
		broker.AddTenant(tn, []byte("key"))
	}
	cfg := Config{
		Hosts: 8, ASIDsPerHost: 4, WorkersPerHost: 2,
		EnableWarm: true, Seed: 42, Generations: 2,
		Telemetry: telemetry.NewRegistry(),
		KBS:       broker, Authority: auth, TCB: stormTCB, AgentSeed: 9,
		Admission: broker.PolicyEngine(),
		Retry:     fleet.RetryPolicy{Max: 3, Backoff: time.Millisecond},
	}
	var err error
	cfg.Policy, err = PolicyByName(policy, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallStorm(broker, StormConfig{
		At:            2 * time.Second,
		Generation:    "gen0",
		Floor:         stormFloor(),
		DriftStart:    time.Second,
		DriftInterval: 250 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	var imgs []*Image
	for i, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		img, err := c.RegisterImage(name, kernelgen.Lupine(),
			kernelgen.BuildInitrd(int64(i+1), 128<<10))
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	spec := TraceSpec{
		Kind: TraceZipf, Arrivals: 512, MeanGap: 10 * time.Millisecond,
		Images: 8, Tenants: 3, ZipfS: 1.2, Seed: 11,
	}
	arr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Play(arr, imgs, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	sum := c.Summarize()
	blob, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return sum, blob, broker
}

// reconcileGates pins the three-gate ledger on any storm run: the
// dispatch gate's per-reason map sums to the refused-placement count,
// every broker denial was observed by exactly one fleet (and vice
// versa, minus the fleet-local breaker reason), and every failed boot
// is attributable to the dispatch gate or a fleet-level exhaustion.
func reconcileGates(t *testing.T, sum Summary, broker *kbs.Broker) {
	t.Helper()
	dispatch := 0
	for _, v := range sum.DispatchDenials {
		dispatch += v
	}
	if dispatch != sum.PolicyDenied {
		t.Errorf("dispatch denial map sums to %d, PolicyDenied = %d", dispatch, sum.PolicyDenied)
	}

	stats, err := broker.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for reason, n := range stats.Denials {
		if got := sum.Denials[reason]; got != n {
			t.Errorf("broker denied %d %s exchanges, fleets observed %d", n, reason, got)
		}
	}
	for reason, n := range sum.Denials {
		if reason == string(kbs.ReasonUnavailable) {
			t.Errorf("unexpected breaker fast-fails in a fault-free run: %d", n)
			continue
		}
		if got := stats.Denials[reason]; got != n {
			t.Errorf("fleets observed %d %s denials, broker issued %d", n, reason, got)
		}
	}

	fleetFailed := 0
	for _, h := range sum.PerHost {
		fleetFailed += h.Failed
	}
	if sum.Failed != sum.PolicyDenied+fleetFailed {
		t.Errorf("failed = %d, want dispatch %d + fleet %d",
			sum.Failed, sum.PolicyDenied, fleetFailed)
	}
}

// TestStormGoldenRun is the acceptance scenario: the storm cascade must
// be byte-identical across runs, the three admission gates must
// reconcile their denial counts exactly, no forked boot may be served
// from a revoked donor, and the recovery makespan and warm-pool
// invalidation cost must land in the JSON summary.
func TestStormGoldenRun(t *testing.T) {
	sum, blob, broker := runStormScenario(t, "tcb-aware")
	_, blob2, _ := runStormScenario(t, "tcb-aware")
	if !bytes.Equal(blob, blob2) {
		t.Errorf("storm summaries differ across identical runs:\n%s\n%s", blob, blob2)
	}

	st := sum.Storm
	if st == nil {
		t.Fatal("summary has no storm block")
	}
	if st.AtNs != int64(2*time.Second) {
		t.Errorf("storm at %d ns, want %d", st.AtNs, int64(2*time.Second))
	}
	if st.RevokedHosts != 4 {
		t.Errorf("revoked hosts = %d, want 4 (gen0 of 8 over 2 generations)", st.RevokedHosts)
	}
	if st.TaintedWarmServed != 0 {
		t.Errorf("%d forked boots served from revoked donors, want 0", st.TaintedWarmServed)
	}
	if st.WarmInvalidations == 0 || st.WarmInvalidatedBytes == 0 {
		t.Errorf("storm eviction cost = %d pools / %d bytes; pools seeded by 2s should be tainted",
			st.WarmInvalidations, st.WarmInvalidatedBytes)
	}
	if st.MakespanToGreenNs < 0 {
		t.Error("fleet never went green after the storm")
	}
	if st.Drifted == 0 {
		t.Error("rolling drift updated no hosts")
	}
	if len(st.DenialSpike) == 0 {
		t.Error("storm produced no denial spike")
	}
	for _, h := range sum.PerHost {
		if h.Revoked && h.TCB == "" {
			t.Errorf("%s: revoked host missing TCB in summary", h.Host)
		}
	}
	reconcileGates(t, sum, broker)
}

// TestTCBAwareBeatsRandomUnderDrift pins the placement win: on the
// identical trace and storm, tcb-aware placement must produce strictly
// fewer trust-plane denials during the drift than random placement —
// it steers boots away from revoked platforms and stragglers still
// below the bumped floor instead of burning boots on guaranteed
// refusals — and must serve strictly more boots. Both runs still
// reconcile their gates and serve nothing tainted.
func TestTCBAwareBeatsRandomUnderDrift(t *testing.T) {
	denials := func(sum Summary) int {
		n := sum.PolicyDenied
		for _, v := range sum.Denials {
			n += v
		}
		return n
	}
	random, _, randomBroker := runStormScenario(t, "random")
	aware, _, awareBroker := runStormScenario(t, "tcb-aware")
	reconcileGates(t, random, randomBroker)
	reconcileGates(t, aware, awareBroker)
	if da, dr := denials(aware), denials(random); da >= dr {
		t.Errorf("tcb-aware saw %d denials, random %d — tcb-aware must be strictly lower", da, dr)
	}
	if aware.Served <= random.Served {
		t.Errorf("tcb-aware served %d boots, random %d — steering should save boots",
			aware.Served, random.Served)
	}
	if random.PolicyDenied == 0 {
		t.Error("random placement burned no boots on the dispatch gate; storm scenario too gentle")
	}
	if aware.Deferred == 0 {
		t.Error("tcb-aware never deferred a placement; storm scenario too gentle")
	}
	if aware.Storm.TaintedWarmServed != 0 || random.Storm.TaintedWarmServed != 0 {
		t.Error("tainted warm serves under either policy")
	}
}

// TestStormFilingFaultIsReturned: a storm whose revocation cannot be
// filed is a fault of the cluster, and Err returns it. The revocation of
// h0 is filed ahead of the storm, so the storm's own filing is a
// duplicate.
func TestStormFilingFaultIsReturned(t *testing.T) {
	eng := sim.NewEngine()
	auth := kbs.NewAuthority(5)
	broker := kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: stormTCB, Seed: 5})
	broker.AddTenant("t0", []byte("key"))
	c, err := New(eng, Config{
		Hosts: 2, ASIDsPerHost: 4, WorkersPerHost: 1, Seed: 42, Generations: 2,
		Telemetry: telemetry.NewRegistry(),
		KBS:       broker, Authority: auth, TCB: stormTCB, AgentSeed: 9,
		Admission: broker.PolicyEngine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallStorm(broker, StormConfig{At: 10 * time.Millisecond, Generation: "gen0"}); err != nil {
		t.Fatal(err)
	}
	if err := broker.Policy().File(broker.Signer(), kbs.RevocationClaim("chip-h0", sim.Time(time.Hour))); err != nil {
		t.Fatal(err)
	}
	img, err := c.RegisterImage("a", kernelgen.Lupine(), kernelgen.BuildInitrd(1, 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	spec := TraceSpec{Kind: TraceZipf, Arrivals: 4, MeanGap: 5 * time.Millisecond, Images: 1, Tenants: 1, ZipfS: 1.2, Seed: 11}
	arr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Play(arr, []*Image{img}, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := c.Err(); !errors.Is(err, policy.ErrDuplicate) || !strings.Contains(err.Error(), "revoking h0") {
		t.Fatalf("Err() = %v, want the storm's duplicate revocation of h0", err)
	}
}
