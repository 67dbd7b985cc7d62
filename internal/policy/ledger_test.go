package policy

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestLedgerViews counts refusals at every gate and reads them back:
// each gate's view keys by Denial.Key, gates stay apart, Merge and Sub
// add and take cell by cell, and an empty gate's view is nil.
func TestLedgerViews(t *testing.T) {
	stale := &Denial{Gate: GateBroker, Rule: RulePlatform, Reason: ReasonTCBFloor}
	var l Ledger
	for _, d := range []*Denial{
		stale, stale,
		{Gate: GateBroker, Rule: RuleMeasurement, Reason: ReasonExpired},
		{Gate: GateBroker, Rule: RuleMeasurement, Reason: ReasonMeasurementUnknown},
		{Gate: GateBroker, Rule: RuleDomain, Reason: ReasonUnknownDomain},
		{Gate: GateBroker, Reason: "replay"},
		{Gate: GateFleet, Rule: RulePlatform, Reason: ReasonRevoked},
	} {
		l.Add(d)
	}
	if got, want := l.Counts(GateBroker), map[string]int{"stale-tcb": 2, "measurement": 2, "policy": 1, "replay": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("broker view = %v, want %v", got, want)
	}
	if got, want := l.Counts(GateFleet), map[string]int{"platform/platform-revoked": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("fleet view = %v, want %v", got, want)
	}
	if got := l.Counts(GateDispatch); got != nil {
		t.Errorf("dispatch view = %v, want nil", got)
	}

	before := l
	l.Add(stale)
	l.Merge(&before)
	l.Sub(&before)
	l.Sub(&before)
	if got, want := l.Counts(GateBroker), map[string]int{"stale-tcb": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("one refusal after a copy: %v, want %v", got, want)
	}
}

// TestLedgerCountsForeignReasonsAsOther: a reason or rule this build does
// not know — a remote broker's newer word, or the bare gate sentinel —
// is still counted, as "other".
func TestLedgerCountsForeignReasonsAsOther(t *testing.T) {
	var l Ledger
	l.Add(&Denial{Gate: GateBroker, Reason: "quota"})
	l.Add(&Denial{Gate: GateBroker, Rule: "firmware", Reason: ReasonExpired})
	l.Add(&Denial{Gate: GateBroker})
	if got, want := l.Counts(GateBroker), map[string]int{"other": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("broker view = %v, want %v", got, want)
	}
}

// TestLedgerAddAllocatesNothing: counting a refusal is an index into
// the fixed table.
func TestLedgerAddAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	var l Ledger
	d := &Denial{Gate: GateFleet, Rule: RuleMeasurement, Reason: ReasonUnauthorized}
	if got := testing.AllocsPerRun(100, func() { l.Add(d) }); got != 0 {
		t.Errorf("Ledger.Add allocates %v times, want 0", got)
	}
}

// TestDenialIsAndError pins the one denial type's matching and text at
// each gate: ErrDenied matches engine verdicts only, a gate-only target
// matches its gate, a keyed target its key, and the text names the gate's
// prefix and the key.
func TestDenialIsAndError(t *testing.T) {
	verdict := &Denial{Rule: RulePlatform, Reason: ReasonRevoked, Detail: `chip "c" revoked`, Claim: "revoked-c"}
	broker := *verdict
	broker.Gate = GateBroker
	own := &Denial{Gate: GateBroker, Reason: "replay", Cause: errors.New("cause")}
	for _, tc := range []struct {
		err    error
		target error
		want   bool
	}{
		{verdict, ErrDenied, true},
		{&broker, ErrDenied, true},
		{own, ErrDenied, false},
		{&broker, &Denial{Gate: GateBroker}, true},
		{verdict, &Denial{Gate: GateBroker}, false},
		{&broker, &Denial{Gate: GateBroker, Reason: ReasonRevoked}, true},
		{&broker, &Denial{Gate: GateBroker, Reason: "replay"}, false},
		{own, &Denial{Gate: GateBroker, Reason: "replay"}, true},
		{fmt.Errorf("wrapped: %w", own), own.Cause, true},
		{&Denial{Gate: GateFleet, Rule: RulePlatform, Reason: ReasonRevoked}, &Denial{Gate: GateFleet, Rule: RulePlatform, Reason: ReasonRevoked}, true},
		{&Denial{Gate: GateFleet, Rule: RulePlatform, Reason: ReasonRevoked}, &Denial{Gate: GateFleet, Rule: RulePlatform, Reason: ReasonExpired}, false},
	} {
		if got := errors.Is(tc.err, tc.target); got != tc.want {
			t.Errorf("errors.Is(%v, %v) = %v, want %v", tc.err, tc.target, got, tc.want)
		}
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{verdict, `policy: denied (platform/platform-revoked): chip "c" revoked`},
		{&broker, `kbs: denied (revoked): chip "c" revoked`},
		{&Denial{Gate: GateBroker}, "kbs: denied"},
		{&Denial{Gate: GateBroker, Reason: "unavailable"}, "kbs: denied (unavailable)"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
	if d := DenialOf(fmt.Errorf("fleet: %w", &broker)); d == nil || d.Claim != "revoked-c" {
		t.Errorf("DenialOf lost the claim: %+v", d)
	}
}
