package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/telemetry"
	"github.com/severifast/severifast/internal/trace"
)

// Tier is the path a boot request was served through.
type Tier int

// Boot tiers, fastest first.
const (
	// TierWarm restores a shared-key snapshot from the warm pool (§7).
	TierWarm Tier = iota
	// TierCachedCold is a full cold boot whose measurement artifacts came
	// from the measured-image cache (no re-hash, no re-plan).
	TierCachedCold
	// TierCold is a full cold boot including the measurement pass.
	TierCold
	numTiers
)

func (t Tier) String() string {
	switch t {
	case TierWarm:
		return "warm"
	case TierCachedCold:
		return "cached-cold"
	case TierCold:
		return "cold"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Metrics is the orchestrator's registry. All mutation happens from
// simulation processes, which the engine runs one at a time, so the
// fields need no locking; Report/snapshot readers run after eng.Run.
type Metrics struct {
	// Boots counts completed boots per tier.
	Boots [numTiers]int
	// Latency holds per-tier request latency (admission to VM up), in
	// virtual time.
	Latency [numTiers]trace.Series
	// QueueWait is admission-to-dispatch time across all requests.
	QueueWait trace.Series
	// EndToEnd is admission-to-completion (boot + function execution).
	EndToEnd trace.Series

	// Submitted counts requests offered to the orchestrator; Rejected
	// counts those refused by backpressure (queue full or closed).
	Submitted int
	Rejected  int
	// Failed counts requests that exhausted their retry budget.
	Failed int
	// Faults counts transient boot-attempt failures observed (broker
	// unreachable, re-attestation, warm pool invalidated); Retries counts
	// boot attempts made after one.
	Faults  int
	Retries int

	// QueueDepthMax is the high-water mark of queued requests.
	QueueDepthMax int
	// PerTenant counts served (completed or failed) requests by tenant.
	PerTenant map[string]int

	// Attested counts boots whose attest→key-release exchange was
	// granted; AttestLatency is the exchange span (challenge to secret
	// unwrapped) per granted boot.
	Attested      int
	AttestLatency trace.Series
	// Denials counts key-broker refusals by reason (kbs.Reason strings).
	Denials map[string]int
	// PolicyDenials counts admission-gate refusals from the policy
	// engine, keyed "rule/reason" (e.g. "platform/tcb-below-floor").
	PolicyDenials map[string]int

	// DeadlineExceeded counts requests abandoned because their per-boot
	// virtual-time budget (Config.BootDeadline) ran out.
	DeadlineExceeded int
	// Degraded counts launch-digest mismatches the degraded-mode policy
	// attributed to a poisoned measured-image cache entry and recovered
	// from on the cold path (Config.DegradedFallback).
	Degraded int
	// BreakerFastFails counts exchanges refused outright while the KBS
	// circuit breaker was open.
	BreakerFastFails int
	// BreakerTransitions counts breaker state entries by state name
	// ("open", "half-open", "closed").
	BreakerTransitions map[string]int

	// Reenrolls counts platform identity swaps (Orchestrator.Reenroll):
	// the host's rolling TCB updates.
	Reenrolls int
	// Reattests counts exchanges whose denial straddled a Reenroll and
	// was retried as a re-attestation (ErrReattest).
	Reattests int
	// ReattestQueuePeak is the high-water mark of requests concurrently
	// waiting out a re-attestation backoff — the thundering-herd depth a
	// rolling update builds on this host.
	ReattestQueuePeak int
	reattestWaiting   int
	// WarmInvalidated counts warm boots refused at serve time because the
	// image's warm pool was evicted mid-boot (ErrWarmInvalidated) — the
	// cost of a revocation storm landing on forked standbys.
	WarmInvalidated int

	// reg, when non-nil, mirrors every field above into the shared
	// telemetry registry under severifast_fleet_* metric names, so a
	// fleet run exports the same numbers Report prints. Nil is inert.
	reg *telemetry.Registry
}

func newMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{PerTenant: make(map[string]int), reg: reg}
}

// The mutation helpers below are the orchestrator's single write path:
// they keep the exported struct fields (read by Report and tests) and
// the registry mirror in lockstep.

func (m *Metrics) submitted() {
	m.Submitted++
	m.reg.Counter("severifast_fleet_submitted_total").Inc()
}

func (m *Metrics) rejected() {
	m.Rejected++
	m.reg.Counter("severifast_fleet_rejected_total").Inc()
}

func (m *Metrics) queueDepth(depth int) {
	if depth > m.QueueDepthMax {
		m.QueueDepthMax = depth
	}
	m.reg.Gauge("severifast_fleet_queue_depth_max").Max(float64(depth))
}

func (m *Metrics) queueWait(d time.Duration) {
	m.QueueWait = append(m.QueueWait, d)
	m.reg.Series("severifast_fleet_queue_wait_seconds").Observe(d)
}

func (m *Metrics) boot(tier Tier, latency time.Duration, tenant string) {
	m.Boots[tier]++
	m.Latency[tier] = append(m.Latency[tier], latency)
	m.PerTenant[tenant]++
	m.reg.Counter("severifast_fleet_boots_total", telemetry.A("tier", tier.String())).Inc()
	m.reg.Counter("severifast_fleet_served_total", telemetry.A("tenant", tenant)).Inc()
	m.reg.Series("severifast_fleet_boot_latency_seconds", telemetry.A("tier", tier.String())).Observe(latency)
}

func (m *Metrics) failed(tenant string) {
	m.Failed++
	m.PerTenant[tenant]++
	m.reg.Counter("severifast_fleet_failed_total").Inc()
	m.reg.Counter("severifast_fleet_served_total", telemetry.A("tenant", tenant)).Inc()
}

func (m *Metrics) fault() {
	m.Faults++
	m.reg.Counter("severifast_fleet_faults_total").Inc()
}

func (m *Metrics) retry() {
	m.Retries++
	m.reg.Counter("severifast_fleet_retries_total").Inc()
}

func (m *Metrics) endToEnd(d time.Duration) {
	m.EndToEnd = append(m.EndToEnd, d)
	m.reg.Series("severifast_fleet_end_to_end_seconds").Observe(d)
}

func (m *Metrics) attested(d time.Duration) {
	m.Attested++
	m.AttestLatency = append(m.AttestLatency, d)
	m.reg.Counter("severifast_fleet_attested_total").Inc()
	m.reg.Series("severifast_fleet_attest_latency_seconds").Observe(d)
}

func (m *Metrics) denial(reason string) {
	if m.Denials == nil {
		m.Denials = make(map[string]int)
	}
	m.Denials[reason]++
	m.reg.Counter("severifast_fleet_denials_total", telemetry.A("reason", reason)).Inc()
}

func (m *Metrics) policyDenied(rule, reason string) {
	if m.PolicyDenials == nil {
		m.PolicyDenials = make(map[string]int)
	}
	m.PolicyDenials[rule+"/"+reason]++
	m.reg.Counter("severifast_fleet_policy_denials_total",
		telemetry.A("reason", reason), telemetry.A("rule", rule)).Inc()
}

func (m *Metrics) deadline() {
	m.DeadlineExceeded++
	m.reg.Counter("severifast_fleet_deadline_exceeded_total").Inc()
}

func (m *Metrics) degraded() {
	m.Degraded++
	m.reg.Counter("severifast_fleet_degraded_total").Inc()
}

func (m *Metrics) breakerFastFail() {
	m.BreakerFastFails++
	m.reg.Counter("severifast_fleet_breaker_fastfail_total").Inc()
}

func (m *Metrics) reenrolled() {
	m.Reenrolls++
	m.reg.Counter("severifast_fleet_reenrolls_total").Inc()
}

func (m *Metrics) reattest() {
	m.Reattests++
	m.reg.Counter("severifast_fleet_reattests_total").Inc()
}

func (m *Metrics) reattestWait(delta int) {
	m.reattestWaiting += delta
	if m.reattestWaiting > m.ReattestQueuePeak {
		m.ReattestQueuePeak = m.reattestWaiting
	}
	m.reg.Gauge("severifast_fleet_reattest_queue_depth").Max(float64(m.reattestWaiting))
}

func (m *Metrics) warmInvalidated() {
	m.WarmInvalidated++
	m.reg.Counter("severifast_fleet_warm_invalidated_total").Inc()
}

func (m *Metrics) breakerTransition(to string) {
	if m.BreakerTransitions == nil {
		m.BreakerTransitions = make(map[string]int)
	}
	m.BreakerTransitions[to]++
	m.reg.Counter("severifast_fleet_breaker_transitions_total", telemetry.A("to", to)).Inc()
}

// TotalBoots sums completed boots across tiers.
func (m *Metrics) TotalBoots() int {
	n := 0
	for _, b := range m.Boots {
		n += b
	}
	return n
}

// Report renders the registry as a fleet report: tier counters, cache
// effect, queue behaviour, and per-tier latency distributions drawn with
// internal/trace's CDF renderer.
func (m *Metrics) Report(cache CacheStats, width int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet report: %d submitted, %d served, %d rejected, %d failed\n",
		m.Submitted, m.TotalBoots(), m.Rejected, m.Failed)
	for t := Tier(0); t < numTiers; t++ {
		lat := m.Latency[t]
		if m.Boots[t] == 0 {
			fmt.Fprintf(&sb, "  %-11s %5d boots\n", t, m.Boots[t])
			continue
		}
		fmt.Fprintf(&sb, "  %-11s %5d boots  p50 %v  p99 %v\n", t, m.Boots[t],
			lat.Percentile(50).Round(10*time.Microsecond),
			lat.Percentile(99).Round(10*time.Microsecond))
	}
	fmt.Fprintf(&sb, "  cache: %d hits, %d misses (hit ratio %.2f), %d plans, %.1f MiB hashed\n",
		cache.Hits, cache.Misses, cache.HitRatio(), cache.Plans,
		float64(cache.HashedBytes)/(1<<20))
	fmt.Fprintf(&sb, "  queue: depth high-water %d, wait p50 %v p99 %v\n",
		m.QueueDepthMax,
		m.QueueWait.Percentile(50).Round(10*time.Microsecond),
		m.QueueWait.Percentile(99).Round(10*time.Microsecond))
	if m.Faults > 0 || m.Retries > 0 {
		fmt.Fprintf(&sb, "  faults: %d transient, %d retries, %d requests failed\n",
			m.Faults, m.Retries, m.Failed)
	}
	if m.DeadlineExceeded > 0 || m.Degraded > 0 {
		fmt.Fprintf(&sb, "  robustness: %d deadline-exceeded, %d degraded recoveries\n",
			m.DeadlineExceeded, m.Degraded)
	}
	if len(m.BreakerTransitions) > 0 || m.BreakerFastFails > 0 {
		states := make([]string, 0, len(m.BreakerTransitions))
		for s := range m.BreakerTransitions {
			states = append(states, s)
		}
		sort.Strings(states)
		fmt.Fprintf(&sb, "  breaker: %d fast-fails, transitions", m.BreakerFastFails)
		for _, s := range states {
			fmt.Fprintf(&sb, " %s=%d", s, m.BreakerTransitions[s])
		}
		sb.WriteByte('\n')
	}
	if m.Reenrolls > 0 || m.Reattests > 0 || m.WarmInvalidated > 0 {
		fmt.Fprintf(&sb, "  storm: %d reenrolls, %d reattests (queue peak %d), %d warm invalidations\n",
			m.Reenrolls, m.Reattests, m.ReattestQueuePeak, m.WarmInvalidated)
	}
	if m.Attested > 0 {
		fmt.Fprintf(&sb, "  attest: %d granted, p50 %v p99 %v\n", m.Attested,
			m.AttestLatency.Percentile(50).Round(10*time.Microsecond),
			m.AttestLatency.Percentile(99).Round(10*time.Microsecond))
	}
	if len(m.Denials) > 0 {
		reasons := make([]string, 0, len(m.Denials))
		for r := range m.Denials {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		sb.WriteString("  denials:")
		for _, r := range reasons {
			fmt.Fprintf(&sb, " %s=%d", r, m.Denials[r])
		}
		sb.WriteByte('\n')
	}
	if len(m.PolicyDenials) > 0 {
		keys := make([]string, 0, len(m.PolicyDenials))
		for k := range m.PolicyDenials {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("  policy denials:")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", k, m.PolicyDenials[k])
		}
		sb.WriteByte('\n')
	}
	if len(m.PerTenant) > 0 {
		tenants := make([]string, 0, len(m.PerTenant))
		for t := range m.PerTenant {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		sb.WriteString("  tenants:")
		for _, t := range tenants {
			fmt.Fprintf(&sb, " %s=%d", t, m.PerTenant[t])
		}
		sb.WriteByte('\n')
	}
	for t := Tier(0); t < numTiers; t++ {
		if len(m.Latency[t]) > 1 {
			sb.WriteString(trace.RenderCDF(fmt.Sprintf("%v boot latency", t), m.Latency[t], width))
		}
	}
	return sb.String()
}
