package policy

// A Ledger's axes. The reasons after the engine's are the key broker's
// own (internal/kbs); "other" counts a rule or reason this build does not
// know, such as a newer remote broker's.
var (
	ledgerRules   = [...]string{"", RuleDomain, RulePlatform, RuleMeasurement}
	ledgerReasons = [...]Reason{
		"other",
		ReasonUnknownDomain, ReasonPlatformUntrusted, ReasonTCBFloor, ReasonRevoked,
		ReasonMeasurementUnknown, ReasonExpired, ReasonForged, ReasonScope, ReasonUnauthorized,
		"tenant", "replay", "expired", "malformed", "forged", "binding", "policy", "unavailable",
	}
)

const ledgerCells = len(ledgerRules) * len(ledgerReasons)

// Ledger counts refusals by gate, rule and reason in a fixed table, so
// Add allocates nothing; the maps callers report are its Counts views.
type Ledger struct {
	n [int(numGates) * ledgerCells]int
}

// Add counts one refusal.
func (l *Ledger) Add(d *Denial) {
	r, q := -1, 0
	for i, rule := range ledgerRules {
		if rule == d.Rule {
			r = i
		}
	}
	for i, reason := range ledgerReasons {
		if i > 0 && reason == d.Reason {
			q = i
		}
	}
	if r < 0 || q == 0 {
		r, q = 0, 0
	}
	l.n[int(d.Gate)*ledgerCells+r*len(ledgerReasons)+q]++
}

// Merge adds every count of o to l.
func (l *Ledger) Merge(o *Ledger) {
	for i := range l.n {
		l.n[i] += o.n[i]
	}
}

// Sub takes every count of o from l: what l counted since it was o.
func (l *Ledger) Sub(o *Ledger) {
	for i := range l.n {
		l.n[i] -= o.n[i]
	}
}

// Counts is the view of gate g's refusals by Denial.Key, nil when the
// gate counted none.
func (l *Ledger) Counts(g Gate) map[string]int {
	var m map[string]int
	for c, n := range l.n[int(g)*ledgerCells : int(g+1)*ledgerCells] {
		if n == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int)
		}
		d := Denial{Gate: g, Rule: ledgerRules[c/len(ledgerReasons)], Reason: ledgerReasons[c%len(ledgerReasons)]}
		m[d.Key()] += n
	}
	return m
}
