package chaos

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
)

// TestCampaignZeroEscapes is the headline acceptance run: a fixed-seed
// campaign across every family must end with zero ESCAPEs — every tamper
// is either caught by the layer that owns it or provably without effect.
func TestCampaignZeroEscapes(t *testing.T) {
	rep, err := Run(Config{Seed: 42, Boots: 3, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) == 0 {
		t.Fatal("campaign ran no trials")
	}
	fams := make(map[string]bool)
	for _, tr := range rep.Trials {
		fams[tr.Family] = true
		if tr.Outcome == Escape {
			t.Errorf("ESCAPE: %s/%s (%s): %s", tr.Family, tr.Name, tr.Params, tr.Detail)
		}
		if tr.Outcome == Unexpected {
			t.Errorf("unexpected detection: %s/%s (%s): %s", tr.Family, tr.Name, tr.Params, tr.Detail)
		}
	}
	for _, f := range AllFamilies {
		if !fams[f] {
			t.Errorf("family %q ran no trials", f)
		}
	}
	if rep.Escapes != 0 {
		t.Fatalf("campaign reports %d escapes; outcomes: %v", rep.Escapes, rep.Outcomes)
	}
	if rep.Outcomes[Caught] == 0 {
		t.Fatalf("no mutation was caught — the adversary isn't biting: %v", rep.Outcomes)
	}
	// The outcome counts cover every trial once.
	counted := 0
	for _, n := range rep.Outcomes {
		counted += n
	}
	if counted != len(rep.Trials) {
		t.Fatalf("outcome counts sum to %d, want %d", counted, len(rep.Trials))
	}
}

// TestCampaignDeterminism: two campaigns from the same seed must marshal
// to byte-identical reports — schedules, outcomes, virtual end times and
// all. A third campaign from a different seed must draw different
// parameters (same shape, different bytes).
func TestCampaignDeterminism(t *testing.T) {
	run := func(seed int64) []byte {
		rep, err := Run(Config{Seed: seed, Boots: 3, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed campaigns diverged:\n%s\n---\n%s", a, b)
	}
	c := run(43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports — the seed is not reaching the draws")
	}
}

// TestWeakenedVerifierEscapes is the oracle self-test: with the digest
// check and broker gate disabled and every launch digest tampered, the
// tampered boots go live — and the oracle MUST say ESCAPE. If it cannot
// fail here, its zero-escape verdicts elsewhere mean nothing.
func TestWeakenedVerifierEscapes(t *testing.T) {
	rep, err := Run(Config{Seed: 42, Boots: 3, Weakened: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escapes == 0 {
		t.Fatalf("weakened verifier produced no ESCAPE; outcomes: %v", rep.Outcomes)
	}
	for _, tr := range rep.Trials {
		if tr.Outcome == Escape {
			t.Logf("expected escape observed: %s/%s: %s", tr.Family, tr.Name, tr.Detail)
		}
	}
}

// TestTCBStormFamily pins the policy family's verdicts mutation by
// mutation. The store tampers and revocation storms must be Caught; so
// must the storm rows' forged un-revocation and floor-restore claims and
// the stale-floor evidence replay (the storm keeps biting through the
// forgery); and the pristine recovery control — a ghost-chip revocation
// plus an identical floor re-file that invalidates every cached verdict —
// must be Harmless, byte for byte.
func TestTCBStormFamily(t *testing.T) {
	rep, err := Run(Config{Seed: 42, Boots: 3, Trials: 1, Families: []string{"policy"}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Outcome{
		"forged-ref-claim":      Caught,
		"rescoped-ref-claim":    Caught,
		"revoke-refs-storm":     Caught,
		"revoke-platform-floor": Caught,
		"forged-unrevoke":       Caught,
		"stale-floor-replay":    Caught,
		"forged-floor-restore":  Caught,
		"pristine-recovery":     Harmless,
	}
	if len(rep.Trials) != len(want) {
		t.Fatalf("policy campaign ran %d trials, want %d", len(rep.Trials), len(want))
	}
	for _, tr := range rep.Trials {
		if tr.Family != "policy" {
			t.Fatalf("foreign family in restricted campaign: %s/%s", tr.Family, tr.Name)
		}
		if w, ok := want[tr.Name]; !ok {
			t.Errorf("unknown policy mutation %q", tr.Name)
		} else if tr.Outcome != w {
			t.Errorf("%s (%s): outcome %s, want %s: %s", tr.Name, tr.Params, tr.Outcome, w, tr.Detail)
		}
	}
}

// TestIdentityRows: evidence under a genuine VCEK of another identity —
// the enrolled chip one TCB step back, or a revoked twin — is refused
// with that identity's reason on every boot. The verdict calls the row
// caught only then: a grant is an ESCAPE, any other refusal unexpected.
func TestIdentityRows(t *testing.T) {
	cfg := Config{Boots: 2}
	cfg.fillDefaults()
	initrd := kernelgen.BuildInitrd(7, 1<<20)
	clean, err := runTrial(cfg, initrd, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []site{kbsStaleTCB(), kbsRevokedTwin()} {
		res, err := runTrial(cfg, initrd, &s)
		if err != nil {
			t.Fatal(err)
		}
		if out, detail := classify(s, res, clean); out != Caught {
			t.Errorf("%s (%s): %s: %s", s.name, s.params, out, detail)
		}
	}

	stale, forged := &kbs.Denial{Reason: kbs.ReasonStaleTCB}, &kbs.Denial{Reason: kbs.ReasonForged}
	for _, tc := range []struct {
		errs []error
		want Outcome
	}{
		{[]error{stale, stale}, Caught},
		{[]error{stale, nil}, Escape},
		{[]error{stale, forged}, Unexpected},
		{[]error{fmt.Errorf("%w: connection refused", fleet.ErrKBSUnreachable), stale}, Unexpected},
	} {
		if out, detail, _ := identityVerdict(&RunResult{BootErrs: tc.errs}, kbs.ReasonStaleTCB); out != tc.want {
			t.Errorf("boot errors %v: %s (%s), want %s", tc.errs, out, detail, tc.want)
		}
	}
}

// TestSingleFamilyCampaign: family selection restricts the catalog, and a
// family the catalog does not have is refused, not run as an empty
// campaign.
func TestSingleFamilyCampaign(t *testing.T) {
	for _, fams := range [][]string{{"bogus"}, {"snapshot", "bogus"}} {
		rep, err := Run(Config{Seed: 7, Boots: 2, Trials: 1, Families: fams})
		var unknown unknownFamilyError
		if !errors.As(err, &unknown) || string(unknown) != "bogus" || rep != nil {
			t.Fatalf("Families %v: report %v, err %v; want an unknownFamilyError naming bogus", fams, rep, err)
		}
		for _, f := range AllFamilies {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("error %q does not list family %q", err, f)
			}
		}
	}
	rep, err := Run(Config{Seed: 7, Boots: 2, Trials: 1, Families: []string{"snapshot"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 5 {
		t.Fatalf("snapshot-only campaign ran %d trials, want 5", len(rep.Trials))
	}
	for _, tr := range rep.Trials {
		if tr.Family != "snapshot" {
			t.Fatalf("foreign family in restricted campaign: %s/%s", tr.Family, tr.Name)
		}
		if tr.Outcome == Escape || tr.Outcome == Unexpected {
			t.Fatalf("%s/%s: %s: %s", tr.Family, tr.Name, tr.Outcome, tr.Detail)
		}
	}
}

// TestForkFamily pins the fork family's verdicts: a bit flipped between
// capture and fork must be Caught whether it lands in the container's
// dirty blob or in an artifact the container only names, the untouched
// control must be Harmless, and the process-wide kernel image the aliased
// trial attacks must be left as it was found.
func TestForkFamily(t *testing.T) {
	arts, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(arts.BzImageLZ4)
	rep, err := Run(Config{Seed: 42, Boots: 3, Trials: 2, Families: []string{"fork"}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Outcome{"parent-dirty": Caught, "aliased-artifact": Caught, "pristine-control": Harmless}
	ran := map[string]int{}
	for _, tr := range rep.Trials {
		ran[tr.Name]++
		if w, ok := want[tr.Name]; !ok || tr.Family != "fork" {
			t.Errorf("unknown fork mutation %s/%s", tr.Family, tr.Name)
		} else if tr.Outcome != w {
			t.Errorf("%s (%s): outcome %s, want %s: %s", tr.Name, tr.Params, tr.Outcome, w, tr.Detail)
		}
	}
	if ran["parent-dirty"] != 2 || ran["aliased-artifact"] != 2 || ran["pristine-control"] != 1 {
		t.Fatalf("fork campaign ran %v", ran)
	}
	if sha256.Sum256(arts.BzImageLZ4) != before {
		t.Fatal("the aliased-artifact trial left the shared kernel image tampered")
	}
}

// pinFamily runs a one-family campaign and requires exactly the named
// sites, each the given number of times, each with its pinned outcome.
func pinFamily(t *testing.T, family string, trials int, want map[string]Outcome, times map[string]int) {
	t.Helper()
	rep, err := Run(Config{Seed: 42, Boots: 3, Trials: trials, Families: []string{family}})
	if err != nil {
		t.Fatal(err)
	}
	ran := map[string]int{}
	for _, tr := range rep.Trials {
		ran[tr.Name]++
		if w, ok := want[tr.Name]; !ok || tr.Family != family {
			t.Errorf("unknown %s site %s/%s", family, tr.Family, tr.Name)
		} else if tr.Outcome != w {
			t.Errorf("%s (%s): outcome %s, want %s: %s", tr.Name, tr.Params, tr.Outcome, w, tr.Detail)
		}
	}
	for name, n := range times {
		if ran[name] != n {
			t.Errorf("%s campaign ran %s %d time(s), want %d (all: %v)", family, name, ran[name], n, ran)
		}
	}
}

// TestArtifactFamily pins the artifact family's verdicts — a flipped
// kernel byte, a poisoned cache prediction and a dirtied plan blob are
// Caught, the untouched plan is Harmless — and that the campaign leaves
// the process-wide kernel image as it found it.
func TestArtifactFamily(t *testing.T) {
	arts, err := kernelgen.Cached(kernelgen.Lupine())
	if err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(arts.BzImageLZ4)
	pinFamily(t, "artifact", 2,
		map[string]Outcome{"kernel-corrupt": Caught, "cache-poison": Caught, "plan-blob-dirty": Caught, "plan-pristine-control": Harmless},
		map[string]int{"kernel-corrupt": 2, "cache-poison": 1, "plan-blob-dirty": 2, "plan-pristine-control": 1})
	if sha256.Sum256(arts.BzImageLZ4) != before {
		t.Fatal("the artifact family left the shared kernel image tampered")
	}
}

// TestPlanBlobLeftAsFound drives one plan-blob-dirty site by hand, so the
// test can hold the bytes the site flips (the region bulkRegion picks):
// the flip must be seen by boot 1 (it is refused) and the bytes must be
// identical before the flip and after the trial.
func TestPlanBlobLeftAsFound(t *testing.T) {
	h, err := newHarness(kernelgen.BuildInitrd(7, 1<<20), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	s := planBlobDirty(123457, 0x5a)
	s.arm(h)
	var (
		blob          *artifact.Buf
		before, dirty [32]byte
	)
	flip := h.Between
	h.Between = func(next int, img *fleet.Image) {
		if next == 1 {
			blob = bulkRegion(h.Cfg.Cache.Get(img.CacheKey()).Regions).Art
			before = sha256.Sum256(blob.Bytes())
		}
		flip(next, img)
		if next == 1 {
			dirty = sha256.Sum256(blob.Bytes())
		}
	}
	res, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out, detail := classify(s, res, nil); out != Caught {
		t.Fatalf("plan-blob-dirty: %s: %s", out, detail)
	}
	if dirty == before {
		t.Fatal("the site never flipped a byte of the staging blob")
	}
	if sha256.Sum256(blob.Bytes()) != before {
		t.Fatal("the staging blob was not restored after the trial")
	}
}

// TestSnapshotFamily pins the snapshot family: every byte-level tamper of
// the sealed container is Caught, the duplicate delivery is Harmless.
func TestSnapshotFamily(t *testing.T) {
	pinFamily(t, "snapshot", 1,
		map[string]Outcome{"truncate": Caught, "bitflip": Caught, "header": Caught, "extend": Caught, "duplicate": Harmless},
		map[string]int{"truncate": 1, "bitflip": 1, "header": 1, "extend": 1, "duplicate": 1})
}

// TestEveryTrialRunsOnOneWorld: the clean reference and every trial of
// every family are built by newHarness — there is no second world.
func TestEveryTrialRunsOnOneWorld(t *testing.T) {
	before := worlds.Load()
	rep, err := Run(Config{Seed: 42, Boots: 2, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for _, tr := range rep.Trials {
		fams[tr.Family] = true
	}
	if len(fams) != len(AllFamilies) {
		t.Fatalf("campaign covered %d families, want %d", len(fams), len(AllFamilies))
	}
	if got, want := worlds.Load()-before, int64(len(rep.Trials)+1); got != want {
		t.Fatalf("campaign built %d harnesses for %d trials + the clean run, want %d", got, len(rep.Trials), want)
	}
}
