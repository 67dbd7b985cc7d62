// Package chaos is a deterministic, seed-driven adversary engine for the
// whole boot path. It runs mutation campaigns — guest-memory scribbles,
// canonical-artifact, plan-blob and measured-image-cache poisoning,
// pre-encryption launch-page tampering, PSP digest truncation, snapshot
// corruption, parent-snapshot dirtying between capture and fork,
// key-broker evidence corruption/delay/duplication/outage and forged
// identities (reports re-signed under a stale-TCB or revoked-twin VCEK),
// and policy-store subversion (forged, rescoped, expired, and revoked
// trust claims, and TCB storms: mid-run chip revocations and floor bumps
// with forged un-revocation and floor-restore claims riding the recovery).
// Every family is a set of rows in one site table (site.go); Run arms
// each row on a fresh Harness — the only world the package builds — runs
// it, and an invariant oracle classifies the trial:
//
//   - Caught: the boot failed with the error class the mutation is
//     expected to provoke (launch-digest mismatch, verifier abort, broker
//     denial, deadline, breaker refusal), or the tamper was detected and
//     recovered by the degraded-mode policy with honest digests.
//   - Harmless: every boot succeeded and the run's state — per-boot
//     outcomes, served launch digests, virtual end time, and the full
//     telemetry summary — is byte-identical to an unmutated run of the
//     same seed.
//   - ESCAPE: the tamper survived to a successfully served boot (a served
//     launch digest the clean run never produced, or divergent state with
//     no detection). Any ESCAPE fails the campaign.
//   - Unexpected: the boot failed, but outside the mutation's expected
//     error class — a detection, but by the wrong layer; reported
//     distinctly so CI can decide how strict to be.
//
// Everything is virtual-time deterministic: the same seed produces the
// same mutations, the same schedules, the same outcomes, and a
// byte-identical report.
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"github.com/severifast/severifast/internal/kernelgen"
)

// Outcome is the oracle's verdict for one trial.
type Outcome string

// Trial outcomes. Escape is upper-case in reports so a grep for failures
// cannot miss it.
const (
	Caught     Outcome = "caught"
	Harmless   Outcome = "harmless"
	Escape     Outcome = "ESCAPE"
	Unexpected Outcome = "unexpected"
)

// Families, in campaign order.
var AllFamilies = []string{"guestmem", "artifact", "psp", "snapshot", "fork", "kbs", "policy"}

// Config sizes a campaign.
type Config struct {
	// Seed drives every mutation draw and schedule. Same seed, same
	// campaign, same report bytes.
	Seed int64
	// Boots is the boot count per fleet trial. Defaults to 4.
	Boots int
	// Trials scales the randomized mutations per family (fixed-shape
	// mutations always run once). Defaults to 2.
	Trials int
	// Families selects a subset of AllFamilies; empty means all.
	Families []string
	// Weakened runs the oracle self-test instead of a campaign: the
	// digest check and the key-broker gate are disabled (a deliberately
	// broken verifier) and the PSP digest is tampered on every launch.
	// The expected result is an ESCAPE — proving the oracle can fail.
	Weakened bool
}

func (c *Config) fillDefaults() {
	if c.Boots <= 0 {
		c.Boots = 4
	}
	if c.Trials <= 0 {
		c.Trials = 2
	}
	if len(c.Families) == 0 {
		c.Families = AllFamilies
	}
}

// TrialReport is one classified trial.
type TrialReport struct {
	Family  string  `json:"family"`
	Name    string  `json:"name"`
	Params  string  `json:"params"`
	Outcome Outcome `json:"outcome"`
	Detail  string  `json:"detail"`
	// EndNS is the trial's virtual end time: a determinism witness (two
	// same-seed campaigns must agree on it to the nanosecond).
	EndNS int64 `json:"end_ns"`
}

// Report is a campaign's result. It contains no wall-clock state, so two
// runs with the same Config marshal to identical JSON.
type Report struct {
	Seed     int64           `json:"seed"`
	Boots    int             `json:"boots"`
	Families []string        `json:"families"`
	Weakened bool            `json:"weakened,omitempty"`
	Trials   []TrialReport   `json:"trials"`
	Outcomes map[Outcome]int `json:"outcomes"`
	Escapes  int             `json:"escapes"`
}

// JSON renders the report deterministically (map keys sorted by
// encoding/json).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// unknownFamilyError refuses a campaign that names a family the catalog
// does not have, rather than running it as an empty one.
type unknownFamilyError string

func (e unknownFamilyError) Error() string {
	return fmt.Sprintf("chaos: unknown family %q (have: %s)", string(e), strings.Join(AllFamilies, ", "))
}

// Run executes a campaign: one clean reference run, then every site in
// the catalog, each armed on a fresh harness, run, and classified against
// the reference. There is one loop and one world: what "zero ESCAPE"
// covers is exactly the site table.
func Run(cfg Config) (*Report, error) {
	cfg.fillDefaults()
	for _, f := range cfg.Families {
		if !slices.Contains(AllFamilies, f) {
			return nil, unknownFamilyError(f)
		}
	}
	// One canonical initrd for the whole campaign: every harness interns
	// the same slice, so trials share artifact buffers the way fleet
	// shards do — which is exactly the surface the artifact family
	// attacks (and must restore).
	initrd := kernelgen.BuildInitrd(7, 1<<20)

	rep := &Report{
		Seed:     cfg.Seed,
		Boots:    cfg.Boots,
		Families: cfg.Families,
		Weakened: cfg.Weakened,
		Outcomes: make(map[Outcome]int),
	}

	// The clean reference: same harness, same workload, no site armed. Its
	// failure would mean the harness itself is broken, not the system
	// under test.
	clean, err := runTrial(cfg, initrd, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: clean run: %w", err)
	}
	if n := len(clean.failures()); n != 0 {
		return nil, fmt.Errorf("chaos: clean run had %d boot failures (first: %v)", n, clean.failures()[0])
	}

	for _, s := range catalog(cfg) {
		res, err := runTrial(cfg, initrd, &s)
		if err != nil {
			return nil, fmt.Errorf("chaos: trial %s/%s: %w", s.family, s.name, err)
		}
		outcome, detail := classify(s, res, clean)
		tr := TrialReport{
			Family:  s.family,
			Name:    s.name,
			Params:  s.params,
			Outcome: outcome,
			Detail:  detail,
			EndNS:   int64(res.End),
		}
		rep.Trials = append(rep.Trials, tr)
		rep.Outcomes[tr.Outcome]++
		if tr.Outcome == Escape {
			rep.Escapes++
		}
	}
	return rep, nil
}

// runTrial builds a fresh harness, arms s on it (nil is the clean
// reference), runs the workload, and lets the site restore whatever
// process-global state it touched.
func runTrial(cfg Config, initrd []byte, s *site) (*RunResult, error) {
	h, err := newHarness(initrd, cfg.Boots, cfg.Weakened)
	if err != nil {
		return nil, err
	}
	if s != nil {
		if s.cleanup != nil {
			defer s.cleanup()
		}
		s.arm(h)
	}
	return h.Run()
}

// classify is the invariant oracle.
func classify(s site, res, clean *RunResult) (Outcome, string) {
	if s.verdict != nil {
		if out, detail, decided := s.verdict(res, clean); decided {
			return out, detail
		}
	}
	if fails := res.failures(); len(fails) > 0 {
		for _, e := range fails {
			if !matchesAny(e, s.expected) {
				return Unexpected, fmt.Sprintf("boot failed outside the expected class: %v", e)
			}
		}
		return Caught, fmt.Sprintf("%d boot(s) refused with the expected error class", len(fails))
	}
	// Every boot succeeded. A served launch digest the clean run never
	// produced means the tamper went live: that is the escape the oracle
	// exists to catch.
	if i, d, ok := res.foreignDigest(clean); ok {
		return Escape, fmt.Sprintf("served boot %d went live with digest %x, never produced by the clean run", i, d[:8])
	}
	if res.Metrics.Degraded > 0 {
		return Caught, fmt.Sprintf("tamper detected and recovered in degraded mode (%d recoveries), all served digests honest", res.Metrics.Degraded)
	}
	if res.fingerprint() == clean.fingerprint() {
		return Harmless, "run state byte-identical to the clean run"
	}
	return Escape, "boots succeeded with honest digests but run state diverged without detection"
}

// campaignRNG derives the per-mutation PRNG: stable under catalog order,
// independent across mutations.
func campaignRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(idx)*7_919 + 12345))
}
