// sevf-chaos runs deterministic adversary campaigns against the boot
// path: guest-memory scribbles, artifact, plan-blob and cache poisoning,
// PSP launch tampering, sealed-snapshot corruption, fork parents dirtied
// between capture and fork, key-broker evidence faults and outages
// (including reports re-signed under a genuine VCEK of a stale TCB or of
// a revoked twin chip), and policy-store subversion (forged, rescoped,
// and revoked trust claims, and TCB storms: mid-run revocations and
// floor bumps with forged recovery claims) —
// seven families, one site table, each trial classified by the invariant
// oracle as caught, harmless, or ESCAPE. The seed-42 campaign is pinned
// byte for byte in testdata/.
//
//	sevf-chaos                                   # all families, seed 1
//	sevf-chaos -seed 42 -boots 4 -trials 2       # bigger fixed-seed campaign
//	sevf-chaos -campaign kbs,snapshot            # family subset
//	sevf-chaos -report-out report.json           # machine-readable report
//	sevf-chaos -weaken                           # oracle self-test: MUST escape
//
// Exit status is non-zero on any ESCAPE (or, with -strict, on any
// unexpected detection class). With -weaken the polarity flips: the
// deliberately broken verifier must produce an ESCAPE, and the command
// fails if the oracle cannot see it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/severifast/severifast/internal/chaos"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sevf-chaos", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 1, "campaign seed: same seed, same report bytes")
		campaign  = fs.String("campaign", "all", "comma-separated families ("+strings.Join(chaos.AllFamilies, ",")+") or \"all\"")
		boots     = fs.Int("boots", 4, "boots per fleet trial")
		trials    = fs.Int("trials", 2, "randomized mutations per family")
		reportOut = fs.String("report-out", "", "write the JSON report to this path")
		weaken    = fs.Bool("weaken", false, "oracle self-test: run with a broken verifier and demand an ESCAPE")
		strict    = fs.Bool("strict", false, "also fail on detections outside the expected error class")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := chaos.Config{
		Seed:     *seed,
		Boots:    *boots,
		Trials:   *trials,
		Weakened: *weaken,
	}
	if *campaign != "" && *campaign != "all" {
		for _, f := range strings.Split(*campaign, ",") {
			cfg.Families = append(cfg.Families, strings.TrimSpace(f))
		}
	}

	rep, err := chaos.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "chaos campaign: seed %d, %d boots/trial, %d trials\n", rep.Seed, rep.Boots, len(rep.Trials))
	for _, tr := range rep.Trials {
		fmt.Fprintf(out, "  %-10s %-22s %-10s %s\n", tr.Family, tr.Name, tr.Outcome, tr.Detail)
	}
	var keys []string
	for o := range rep.Outcomes {
		keys = append(keys, string(o))
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "outcomes:")
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%d", k, rep.Outcomes[chaos.Outcome(k)])
	}
	fmt.Fprintln(out)

	if *reportOut != "" {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportOut, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(out, "report written to %s\n", *reportOut)
	}

	if *weaken {
		if rep.Escapes == 0 {
			return fmt.Errorf("weakened verifier produced no ESCAPE: the oracle cannot fail, so its passes are meaningless")
		}
		fmt.Fprintf(out, "oracle self-test passed: the weakened verifier escaped %d time(s), and the oracle saw it\n", rep.Escapes)
		return nil
	}
	if rep.Escapes > 0 {
		return fmt.Errorf("%d ESCAPE(s): tampering survived to served boots", rep.Escapes)
	}
	if *strict && rep.Outcomes[chaos.Unexpected] > 0 {
		return fmt.Errorf("%d detection(s) outside the expected error class (strict mode)", rep.Outcomes[chaos.Unexpected])
	}
	return nil
}
