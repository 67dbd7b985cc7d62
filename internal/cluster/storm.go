package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// StormConfig scripts a fleet-wide trust event against a running
// cluster: a platform-generation revocation storm, a minimum-TCB floor
// bump, and a rolling per-host firmware drift — all at fixed virtual
// instants, so the cascade through the broker, the dispatch gate, every
// shard's fleet admission, and the warm pools replays bit for bit.
type StormConfig struct {
	// At is the storm instant: every VCEK claim of Generation is revoked
	// and the floor bumped here. The boundary is inclusive, matching the
	// rest of the trust plane: an exchange at exactly At still admits,
	// one instant later is denied.
	At time.Duration
	// Generation names the chip generation to distrust ("gen0"). Empty
	// skips the revocation wave.
	Generation string
	// Floor, when non-zero, is the new minimum TCB filed at At, and the
	// firmware level hosts step to on the rolling update schedule.
	Floor kbs.TCB
	// DriftStart and DriftInterval schedule the rolling drift: one host
	// re-enrolls at Floor per interval tick starting at DriftStart, in an
	// order drawn from the cluster seed. DriftInterval 0 disables drift.
	DriftStart    time.Duration
	DriftInterval time.Duration
}

// stormState is the live accounting the storm and drift processes and
// bootDone share; Summarize folds it into StormSummary.
type stormState struct {
	cfg   StormConfig
	fired bool
	at    sim.Time

	revokedHosts     int
	drifted          int
	invalidations    int
	invalidatedBytes int64
	reseeds          int
	taintedServed    int

	// Recovery: a host is green once it serves its first boot at or
	// after the storm instant; the run is green when every non-revoked
	// host is.
	green        []bool
	pendingGreen int
	greenAt      sim.Time

	pre policy.Ledger // at the storm instant; the spike is what came since
}

// InstallStorm arms the storm and drift processes on the cluster's
// engine. Call it after New and before eng.Run; b must be the broker
// behind Config.KBS when the storm revokes or bumps: both are writes to
// its policy store, signed under its anchor, which the Service interface
// does not expose.
func (c *Cluster) InstallStorm(b *kbs.Broker, sc StormConfig) error {
	if c.storm != nil {
		return errors.New("cluster: storm already installed")
	}
	if (sc.Generation != "" || sc.Floor != (kbs.TCB{})) && b == nil {
		return errors.New("cluster: storm revocation needs the broker")
	}
	drift := sc.DriftInterval > 0
	if drift && c.cfg.Authority == nil {
		return errors.New("cluster: rolling drift needs Config.Authority (re-enrollment)")
	}
	st := &stormState{cfg: sc, green: make([]bool, len(c.shards))}
	c.storm = st
	c.eng.Go("storm", func(p *sim.Proc) { c.runStorm(p, b, st) })
	if drift {
		c.eng.Go("tcb-drift", func(p *sim.Proc) { c.runDrift(p, st) })
	}
	return nil
}

// runStorm lands the storm at its instant: revoke the generation's
// chips, bump the floor, evict every warm pool whose donor is now
// distrusted, and start the recovery clock.
func (c *Cluster) runStorm(p *sim.Proc, b *kbs.Broker, st *stormState) {
	if st.cfg.At > 0 {
		p.Sleep(st.cfg.At)
	}
	at := p.Now()
	st.at = at
	st.pre = c.ledger()
	for _, s := range c.shards {
		if st.cfg.Generation == "" || s.gen != st.cfg.Generation {
			continue
		}
		if err := b.Policy().File(b.Signer(), kbs.RevocationClaim("chip-"+s.Name, at)); err != nil {
			c.fail(fmt.Errorf("cluster: revoking %s: %w", s.Name, err))
			return
		}
		s.revoked = true
		st.revokedHosts++
		c.cfg.Telemetry.Counter("severifast_cluster_storm_revocations_total",
			telemetry.A("host", s.Name)).Inc()
	}
	if st.cfg.Floor != (kbs.TCB{}) {
		if err := b.Policy().BumpFloor(b.Signer(), st.cfg.Floor.Encode(), at); err != nil {
			c.fail(fmt.Errorf("cluster: bumping floor: %w", err))
			return
		}
		c.floor = st.cfg.Floor
	}
	c.invalidateTaintedWarm(st)
	for _, s := range c.shards {
		if !s.revoked {
			st.pendingGreen++
		}
	}
	if st.pendingGreen == 0 {
		st.greenAt = at
	}
	st.fired = true
}

// runDrift steps hosts to the floor's firmware level, one per interval
// tick, in a seed-drawn order. A tick whose host is revoked or already
// current passes idle, so the schedule itself is data-independent.
func (c *Cluster) runDrift(p *sim.Proc, st *stormState) {
	target := st.cfg.Floor
	if target == (kbs.TCB{}) {
		return
	}
	if st.cfg.DriftStart > 0 {
		p.Sleep(st.cfg.DriftStart)
	}
	order := rand.New(rand.NewSource(c.cfg.Seed ^ 0x5bd1e995)).Perm(len(c.shards))
	for k, idx := range order {
		if k > 0 {
			p.Sleep(st.cfg.DriftInterval)
		}
		s := c.shards[idx]
		if s.revoked || s.tcb.AtLeast(target) {
			continue
		}
		s.tcb = target
		// Re-enrollment replaces the host's PSP identity; the shard's
		// orchestrator flags in-flight exchanges signed under the old
		// VCEK for bounded re-attestation retries instead of hard
		// failure.
		s.Orch.Reenroll(c.cfg.Authority.Enroll(s.Host.PSP, "chip-"+s.Name, target))
		st.drifted++
		c.cfg.Telemetry.Counter("severifast_cluster_drift_updates_total",
			telemetry.A("host", s.Name)).Inc()
	}
}

// invalidateTaintedWarm evicts every warm pool seeded — locally or by
// adoption — from a donor whose platform the storm just distrusted, and
// withdraws tainted publications so no further host adopts them.
// In-flight forked boots from an evicted pool are refused by the
// fleet's pool-epoch check and retried cold.
func (c *Cluster) invalidateTaintedWarm(st *stormState) {
	for _, img := range c.images {
		for _, s := range c.shards {
			d := img.donorOf[s.Index]
			if d < 0 || !c.shards[d].revoked {
				continue
			}
			s.Orch.EvictWarm(img.perHost[s.Index])
			img.donorOf[s.Index] = -1
			st.invalidations++
			c.cfg.Telemetry.Counter("severifast_cluster_storm_warm_evictions_total",
				telemetry.A("host", s.Name)).Inc()
		}
		if img.published && img.donorHost >= 0 && c.shards[img.donorHost].revoked {
			st.invalidatedBytes += int64(img.sealedSize)
			c.withdrawWarm(img)
		}
	}
}

// stormObserve accounts a served boot against the storm: the
// tainted-warm tripwire (a forked guest from a revoked donor must never
// reach here) and the recovery clock.
func (c *Cluster) stormObserve(p *sim.Proc, s *HostShard, r *pending, tier fleet.Tier) {
	st := c.storm
	if st == nil || !st.fired {
		return
	}
	if tier == fleet.TierWarm {
		if d := r.Image.donorOf[s.Index]; d >= 0 && c.shards[d].revoked {
			st.taintedServed++
		}
	}
	if !s.revoked && !st.green[s.Index] {
		st.green[s.Index] = true
		st.pendingGreen--
		if st.pendingGreen == 0 {
			st.greenAt = p.Now()
		}
	}
}

// ledger sums the dispatch gate's ledger and every fleet's.
func (c *Cluster) ledger() policy.Ledger {
	l := c.denials
	for _, s := range c.shards {
		l.Merge(&s.Orch.Metrics().Ledger)
	}
	return l
}
