package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/trace"
)

// Percentiles summarizes a latency distribution in nanoseconds. Fields
// are int64 ns rather than time.Duration strings so the JSON is stable
// and machine-comparable.
type Percentiles struct {
	P50Ns int64 `json:"p50_ns"`
	P90Ns int64 `json:"p90_ns"`
	P99Ns int64 `json:"p99_ns"`
	MaxNs int64 `json:"max_ns"`
}

func percentilesOf(s trace.Series) Percentiles {
	if len(s) == 0 {
		return Percentiles{}
	}
	return Percentiles{
		P50Ns: int64(s.Percentile(50)),
		P90Ns: int64(s.Percentile(90)),
		P99Ns: int64(s.Percentile(99)),
		MaxNs: int64(s.Percentile(100)),
	}
}

// TierSummary is one boot tier's cluster-wide outcome.
type TierSummary struct {
	Boots   int         `json:"boots"`
	Latency Percentiles `json:"latency"`
}

// GeoSummary is replication geography: where blob demand was served.
type GeoSummary struct {
	LocalHits     int   `json:"local_hits"`
	Waits         int   `json:"waits"`
	PeerFetches   int   `json:"peer_fetches"`
	OriginFetches int   `json:"origin_fetches"`
	PeerBytes     int64 `json:"peer_bytes"`
	OriginBytes   int64 `json:"origin_bytes"`
}

func geoOf(g artifact.GeoStats) GeoSummary {
	return GeoSummary{
		LocalHits:     g.LocalHits,
		Waits:         g.Waits,
		PeerFetches:   g.PeerFetches,
		OriginFetches: g.OriginFetches,
		PeerBytes:     g.PeerBytes,
		OriginBytes:   g.OriginBytes,
	}
}

// HostSummary is one shard's slice of the run.
type HostSummary struct {
	Host      string         `json:"host"`
	Boots     int            `json:"boots"`
	TierBoots map[string]int `json:"tier_boots"`
	// ASIDPeak is the high-water mark of concurrently live guests.
	ASIDPeak int `json:"asid_peak"`
	// PSP utilization: busy time over makespan, plus raw accounting.
	PSPBusyNs      int64   `json:"psp_busy_ns"`
	PSPUtilization float64 `json:"psp_utilization"`
	PSPServed      uint64  `json:"psp_served"`
	PSPMaxQueue    int     `json:"psp_max_queue"`
	// Measured-image cache effect on this host.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Attestation outcome, when a KBS gates boots.
	Attested         int            `json:"attested,omitempty"`
	Denials          map[string]int `json:"denials,omitempty"`
	PolicyDenials    map[string]int `json:"policy_denials,omitempty"`
	BreakerFastFails int            `json:"breaker_fast_fails,omitempty"`
	BreakerStates    map[string]int `json:"breaker_states,omitempty"`
	Failed           int            `json:"failed,omitempty"`
	// Storm state, present only on runs with generations or a storm
	// installed (kept out of historic goldens otherwise).
	Generation        string     `json:"generation,omitempty"`
	TCB               string     `json:"tcb,omitempty"`
	Revoked           bool       `json:"revoked,omitempty"`
	Reenrolls         int        `json:"reenrolls,omitempty"`
	Reattests         int        `json:"reattests,omitempty"`
	ReattestQueuePeak int        `json:"reattest_queue_peak,omitempty"`
	WarmInvalidated   int        `json:"warm_invalidated,omitempty"`
	Replication       GeoSummary `json:"replication"`
}

// StormSummary is the disaster-and-recovery accounting of a run with an
// installed storm: what was distrusted, what it cost, and how long the
// fleet took to go green again.
type StormSummary struct {
	AtNs       int64  `json:"at_ns"`
	Generation string `json:"generation,omitempty"`
	// RevokedHosts counts platforms distrusted at the storm instant;
	// Drifted counts hosts the rolling schedule re-enrolled.
	RevokedHosts int    `json:"revoked_hosts"`
	Floor        string `json:"floor,omitempty"`
	Drifted      int    `json:"drifted"`
	// Warm-pool invalidation cost: pools evicted because their donor was
	// admitted under now-revoked trust, sealed publication bytes
	// withdrawn, and fresh post-storm captures that re-seeded the pool.
	WarmInvalidations    int   `json:"warm_invalidations"`
	WarmInvalidatedBytes int64 `json:"warm_invalidated_bytes"`
	Reseeds              int   `json:"reseeds"`
	// TaintedWarmServed is the tripwire: forked boots served from a
	// revoked donor's pool after the storm. It must be zero.
	TaintedWarmServed int `json:"tainted_warm_served"`
	// MakespanToGreenNs is the recovery makespan: storm instant to the
	// first instant every non-revoked host has served a post-storm boot.
	// -1 when the run ended before the fleet went green.
	MakespanToGreenNs int64 `json:"makespan_to_green_ns"`
	// DenialSpike is the per-reason denial growth after the storm
	// instant, across all three gates (dispatch/, fleet/, kbs/ prefixes).
	DenialSpike map[string]int `json:"denial_spike,omitempty"`
	// Re-attestation churn under the storm, summed over hosts.
	Reenrolls         int `json:"reenrolls"`
	Reattests         int `json:"reattests"`
	ReattestQueuePeak int `json:"reattest_queue_peak"`
}

// WarmPoolSummary is the cross-host warm pool's activity.
type WarmPoolSummary struct {
	// Captures counts images whose snapshot was sealed and published.
	Captures int `json:"captures"`
	// Adoptions counts hosts that seeded their warm tier from a
	// published sealed snapshot instead of cold booting.
	Adoptions int `json:"adoptions"`
	// PublishedBytes is the total sealed-container volume published.
	PublishedBytes int64 `json:"published_bytes"`
}

// Summary is one run's deterministic JSON artifact: same seed and
// config, byte-identical output. All maps marshal with sorted keys
// (encoding/json) and all durations are integer nanoseconds.
type Summary struct {
	Policy     string `json:"policy"`
	Hosts      int    `json:"hosts"`
	MakespanNs int64  `json:"makespan_ns"`

	Submitted int `json:"submitted"`
	Shed      int `json:"shed"`
	Served    int `json:"served"`
	Failed    int `json:"failed"`
	QueueMax  int `json:"queue_max"`
	// PolicyDenied counts placements the dispatch-side policy gate
	// refused before any staging or boot work. Omitted when zero so
	// default-policy runs keep their historic summary bytes.
	PolicyDenied int `json:"policy_denied,omitempty"`
	// Deferred counts dispatch rounds where the policy declined every
	// candidate host and the boot was held for capacity to move — the
	// tcb-aware policy's wait-for-drift behaviour under a storm.
	Deferred int `json:"deferred,omitempty"`
	// Cluster-level trust-plane aggregates (all omitted when empty):
	// DispatchDenials is the dispatch gate's per-rule/reason refusals;
	// Denials, PolicyDenials, and BreakerStates sum the same-named
	// per-host fleet counters, so the three admission gates reconcile in
	// one place.
	DispatchDenials map[string]int `json:"dispatch_denials,omitempty"`
	Denials         map[string]int `json:"denials,omitempty"`
	PolicyDenials   map[string]int `json:"policy_denials,omitempty"`
	BreakerStates   map[string]int `json:"breaker_states,omitempty"`

	TierBoots map[string]TierSummary `json:"tier_boots"`
	// HitRate is the warm/cached-cold fraction of served boots — the
	// fraction that avoided a full measurement pass.
	HitRate float64     `json:"hit_rate"`
	Latency Percentiles `json:"latency"`

	PerHost     []HostSummary   `json:"per_host"`
	Replication GeoSummary      `json:"replication"`
	WarmPool    WarmPoolSummary `json:"warm_pool"`
	Storm       *StormSummary   `json:"storm,omitempty"`
}

// Summarize snapshots the run; call it after eng.Run returns.
func (c *Cluster) Summarize() Summary {
	makespan := c.eng.Now().Duration()
	sum := Summary{
		Policy:       c.cfg.Policy.Name(),
		Hosts:        len(c.shards),
		MakespanNs:   int64(makespan),
		Submitted:    c.submitted,
		Shed:         c.shed,
		Served:       c.served,
		Failed:       c.failed,
		QueueMax:     c.queueMax,
		PolicyDenied: c.policyDenied,
		Deferred:     c.deferred,
		TierBoots:    make(map[string]TierSummary, 3),
		Latency:      percentilesOf(c.allLat),
		WarmPool: WarmPoolSummary{
			Captures:       c.captures,
			Adoptions:      c.adoptions,
			PublishedBytes: c.publishedBytes,
		},
	}
	hits := 0
	for t := fleet.TierWarm; t <= fleet.TierCold; t++ {
		n := len(c.tierLat[t])
		sum.TierBoots[t.String()] = TierSummary{Boots: n, Latency: percentilesOf(c.tierLat[t])}
		if t != fleet.TierCold {
			hits += n
		}
	}
	if c.served > 0 {
		sum.HitRate = float64(hits) / float64(c.served)
	}
	repl := c.repl.Stats()
	sum.Replication = geoOf(repl.Total)
	for _, s := range c.shards {
		met := s.Orch.Metrics()
		cache := s.Cache.Stats()
		res := s.Host.PSP.Resource()
		hs := HostSummary{
			Host:             s.Name,
			Boots:            s.boots,
			TierBoots:        make(map[string]int, 3),
			ASIDPeak:         s.asid.peak,
			PSPBusyNs:        int64(res.BusyTime()),
			PSPServed:        res.Served(),
			PSPMaxQueue:      res.MaxQueue(),
			CacheHits:        cache.Hits,
			CacheMisses:      cache.Misses,
			Attested:         met.Attested,
			BreakerFastFails: met.BreakerFastFails,
			Failed:           met.Failed,
			Replication:      geoOf(repl.PerHost[s.Index]),
		}
		if makespan > 0 {
			hs.PSPUtilization = float64(res.BusyTime()) / float64(makespan)
		}
		for t := fleet.TierWarm; t <= fleet.TierCold; t++ {
			hs.TierBoots[t.String()] = s.tiers[t]
		}
		if len(met.Denials) > 0 {
			hs.Denials = copyCounts(met.Denials)
		}
		if len(met.PolicyDenials) > 0 {
			hs.PolicyDenials = copyCounts(met.PolicyDenials)
		}
		if len(met.BreakerTransitions) > 0 {
			hs.BreakerStates = copyCounts(met.BreakerTransitions)
		}
		if c.cfg.Generations > 1 {
			hs.Generation = s.gen
		}
		if c.storm != nil {
			hs.TCB = s.tcb.String()
			hs.Revoked = s.revoked
		}
		hs.Reenrolls = met.Reenrolls
		hs.Reattests = met.Reattests
		hs.ReattestQueuePeak = met.ReattestQueuePeak
		hs.WarmInvalidated = met.WarmInvalidated
		mergeCounts(&sum.Denials, met.Denials)
		mergeCounts(&sum.PolicyDenials, met.PolicyDenials)
		mergeCounts(&sum.BreakerStates, met.BreakerTransitions)
		sum.PerHost = append(sum.PerHost, hs)
	}
	if len(c.dispatchDenials) > 0 {
		sum.DispatchDenials = copyCounts(c.dispatchDenials)
	}
	if st := c.storm; st != nil && st.fired {
		sum.Storm = c.stormSummary(st)
	}
	return sum
}

// stormSummary folds the storm accounting plus the per-host
// re-attestation churn into the summary block.
func (c *Cluster) stormSummary(st *stormState) *StormSummary {
	ss := &StormSummary{
		AtNs:                 int64(st.at),
		Generation:           st.cfg.Generation,
		RevokedHosts:         st.revokedHosts,
		Drifted:              st.drifted,
		WarmInvalidations:    st.invalidations,
		WarmInvalidatedBytes: st.invalidatedBytes,
		Reseeds:              st.reseeds,
		TaintedWarmServed:    st.taintedServed,
		MakespanToGreenNs:    -1,
	}
	if st.cfg.Floor != (kbs.TCB{}) {
		ss.Floor = st.cfg.Floor.String()
	}
	if st.greenAt > 0 || st.pendingGreen == 0 {
		ss.MakespanToGreenNs = int64(st.greenAt.Sub(st.at))
	}
	for k, v := range c.denialCounts() {
		if d := v - st.preDenials[k]; d > 0 {
			if ss.DenialSpike == nil {
				ss.DenialSpike = make(map[string]int)
			}
			ss.DenialSpike[k] = d
		}
	}
	for _, s := range c.shards {
		met := s.Orch.Metrics()
		ss.Reenrolls += met.Reenrolls
		ss.Reattests += met.Reattests
		if met.ReattestQueuePeak > ss.ReattestQueuePeak {
			ss.ReattestQueuePeak = met.ReattestQueuePeak
		}
	}
	return ss
}

// mergeCounts sums src into *dst, allocating it on first use so empty
// aggregates stay omitted from the JSON.
func mergeCounts(dst *map[string]int, src map[string]int) {
	if len(src) == 0 {
		return
	}
	if *dst == nil {
		*dst = make(map[string]int)
	}
	for k, v := range src {
		(*dst)[k] += v
	}
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Report renders a human-readable account of the run: the cluster
// totals, per-host PSP and cache effect, replication geography, and
// per-tier latency CDFs.
func (s Summary) Report(width int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cluster report: policy %s, %d hosts, makespan %v\n",
		s.Policy, s.Hosts, time.Duration(s.MakespanNs).Round(10*time.Microsecond))
	fmt.Fprintf(&sb, "  admission: %d submitted, %d served, %d shed, %d failed, queue high-water %d\n",
		s.Submitted, s.Served, s.Shed, s.Failed, s.QueueMax)
	tiers := make([]string, 0, len(s.TierBoots))
	for t := range s.TierBoots {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	for _, t := range tiers {
		ts := s.TierBoots[t]
		if ts.Boots == 0 {
			fmt.Fprintf(&sb, "  %-11s %5d boots\n", t, ts.Boots)
			continue
		}
		fmt.Fprintf(&sb, "  %-11s %5d boots  p50 %v  p99 %v\n", t, ts.Boots,
			time.Duration(ts.Latency.P50Ns).Round(10*time.Microsecond),
			time.Duration(ts.Latency.P99Ns).Round(10*time.Microsecond))
	}
	fmt.Fprintf(&sb, "  hit rate (warm+cached-cold): %.3f\n", s.HitRate)
	fmt.Fprintf(&sb, "  warm pool: %d captures, %d adoptions, %.1f KiB published\n",
		s.WarmPool.Captures, s.WarmPool.Adoptions, float64(s.WarmPool.PublishedBytes)/1024)
	r := s.Replication
	fmt.Fprintf(&sb, "  replication: %d local, %d peer (%.1f KiB), %d origin (%.1f KiB), %d waits\n",
		r.LocalHits, r.PeerFetches, float64(r.PeerBytes)/1024,
		r.OriginFetches, float64(r.OriginBytes)/1024, r.Waits)
	if st := s.Storm; st != nil {
		green := "never went green"
		if st.MakespanToGreenNs >= 0 {
			green = fmt.Sprintf("green in %v", time.Duration(st.MakespanToGreenNs).Round(10*time.Microsecond))
		}
		fmt.Fprintf(&sb, "  storm at %v: %d hosts revoked (%s), floor %s, %d drifted, %s\n",
			time.Duration(st.AtNs).Round(10*time.Microsecond), st.RevokedHosts,
			st.Generation, st.Floor, st.Drifted, green)
		fmt.Fprintf(&sb, "    warm pool: %d evictions (%.1f KiB withdrawn), %d reseeds, %d tainted served\n",
			st.WarmInvalidations, float64(st.WarmInvalidatedBytes)/1024,
			st.Reseeds, st.TaintedWarmServed)
		fmt.Fprintf(&sb, "    re-attestation: %d reenrolls, %d reattests (queue peak %d)\n",
			st.Reenrolls, st.Reattests, st.ReattestQueuePeak)
		if len(st.DenialSpike) > 0 {
			keys := make([]string, 0, len(st.DenialSpike))
			for k := range st.DenialSpike {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sb.WriteString("    denial spike:")
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%d", k, st.DenialSpike[k])
			}
			sb.WriteByte('\n')
		}
	}
	for _, h := range s.PerHost {
		fmt.Fprintf(&sb, "  %-4s %4d boots (warm %d, cached %d, cold %d)  asid peak %2d  psp util %5.1f%% (q max %d)  cache %d/%d\n",
			h.Host, h.Boots,
			h.TierBoots["warm"], h.TierBoots["cached-cold"], h.TierBoots["cold"],
			h.ASIDPeak, 100*h.PSPUtilization, h.PSPMaxQueue,
			h.CacheHits, h.CacheHits+h.CacheMisses)
	}
	return sb.String()
}

// LatencyCDFs renders the per-tier distributions; the CLI appends them
// after the report when asked for plots.
func (c *Cluster) LatencyCDFs(width int) string {
	var sb strings.Builder
	for t := fleet.TierWarm; t <= fleet.TierCold; t++ {
		if len(c.tierLat[t]) > 1 {
			sb.WriteString(trace.RenderCDF(fmt.Sprintf("%v boot latency", t), c.tierLat[t], width))
		}
	}
	return sb.String()
}
