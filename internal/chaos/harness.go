package chaos

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// chaosTCB is the enrolled platform's TCB, also the broker's floor.
var chaosTCB = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}

// Harness is one trial's world: a fresh engine, host, broker, cache,
// telemetry registry, and fleet configuration, all seeded identically for
// every trial so that the only difference between runs is the armed
// site. It is the only world the package builds: every family's trials,
// and the clean reference, run on one. Sites reach into it from arm:
// schedule virtual-time events on Eng, install PSP tamper hooks via
// Host.PSP, observe machines via OnMachine or OnServed, wrap Service,
// subscribe to Cfg.Cache, or switch the arrival shape with closedLoop and
// register a Between step.
type Harness struct {
	Eng    *sim.Engine
	Host   *kvm.Host
	Broker *kbs.Broker
	// Service is what the fleet actually speaks to; mutations may replace
	// it with a decorator around Broker (evidence corruption, delivery
	// delay, duplication, outages).
	Service kbs.Service
	Reg     *telemetry.Registry
	Cfg     fleet.Config
	Preset  kernelgen.Preset
	Initrd  []byte
	// Kernel is the canonical kernel image every boot stages — the
	// process-interned artifact buffer the artifact family corrupts.
	Kernel []byte

	// Boots is how many boots Run submits: the campaign's count unless the
	// site chooses its own.
	Boots int
	// OnServed, when set, observes every boot that went live with its
	// machine, on the serving process and after the attestation gate — the
	// instant at which the snapshot family captures and seals its donor.
	OnServed func(p *sim.Proc, m *kvm.Machine, tier fleet.Tier)
	// Between, when set on a closed-loop harness, runs on the arrival
	// process after boot next-1 has returned and before boot next is
	// served — the instant of the fork and plan-blob sites, which dirty
	// what the first boot left behind and restore it one boot later.
	Between func(next int, img *fleet.Image)

	hooks  []func(*kvm.Machine)
	served []servedBoot
}

// worlds counts the harnesses this process has built, so a test can pin
// that every trial of every family ran on one.
var worlds atomic.Int64

// servedBoot is one boot that went live: its tier and the launch digest
// the PSP actually measured, captured through fleet.Config.OnServed after
// the attestation gate.
type servedBoot struct {
	Tier   fleet.Tier
	Digest [32]byte
}

// newHarness assembles a trial world. The weakened variant models a
// deliberately broken verifier — no digest check, no degraded fallback,
// no key-broker gate — so tampered boots go live and the oracle's ESCAPE
// verdict can be demonstrated.
func newHarness(initrd []byte, boots int, weakened bool) (*Harness, error) {
	worlds.Add(1)
	eng := sim.NewEngine()
	reg := telemetry.NewRegistry()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	host.Telemetry = reg

	preset := kernelgen.Lupine()
	art, err := kernelgen.Cached(preset)
	if err != nil {
		return nil, fmt.Errorf("chaos: building kernel artifacts: %w", err)
	}

	h := &Harness{
		Eng:    eng,
		Host:   host,
		Reg:    reg,
		Preset: preset,
		Initrd: initrd,
		Kernel: art.BzImageLZ4,
		Boots:  boots,
	}
	host.OnNewMachine = func(m *kvm.Machine) {
		for _, fn := range h.hooks {
			fn(m)
		}
	}

	h.Cfg = fleet.Config{
		Workers:      2,
		Retry:        fleet.RetryPolicy{Max: 2, Backoff: time.Millisecond},
		BootDeadline: 30 * time.Second,
		Breaker:      fleet.BreakerPolicy{Threshold: 3, Cooldown: 20 * time.Millisecond},
		Cache:        fleet.NewCache(),
		Telemetry:    reg,
	}
	if weakened {
		// Service stays nil: no broker gate.
		h.Cfg.InsecureSkipDigestCheck = true
		return h, nil
	}
	h.Cfg.DegradedFallback = true

	auth := kbs.NewAuthority(99)
	enr := auth.Enroll(host.PSP, "chip-chaos", chaosTCB)
	h.Broker = kbs.NewBroker(auth.Root(), kbs.Config{
		MinTCB:   chaosTCB,
		NonceTTL: time.Second,
		Seed:     7,
	})
	h.Broker.AddTenant("t0", []byte("tenant secret"))
	h.Service = h.Broker
	h.Cfg.Enrollment = enr
	h.Cfg.AgentSeed = 1000
	// Fleet admission shares the broker's policy engine, so a store-level
	// tamper (the policy mutation family) is visible to every gate.
	h.Cfg.Admission = h.Broker.PolicyEngine()
	return h, nil
}

// OnMachine registers an observer for every machine the host creates,
// in creation order. Mutations use it to target guest memory mid-boot.
func (h *Harness) OnMachine(fn func(*kvm.Machine)) {
	h.hooks = append(h.hooks, fn)
}

// closedLoop switches the harness to its second arrival shape: boots
// served back to back on one process (fleet Standalone mode), each
// starting when the last returned, instead of open-loop submissions to a
// worker pool. Sites whose instant is "between boot i and boot i+1" need
// it. The broker gate and the degraded-mode recovery are taken off the
// path, so that the one defense the site attacks — the fork root, the
// launch digest, the container seal — is what refuses the boot or nothing
// does; warm turns the snapshot-fork tier on.
func (h *Harness) closedLoop(boots int, warm bool) {
	h.Boots = boots
	h.Cfg.Standalone = true
	h.Cfg.EnableWarm = warm
	h.Cfg.DegradedFallback = false
	h.Service = nil
}

// RunResult is everything the oracle compares: per-boot outcomes and
// tiers in submission order, the served launch digests, the fleet
// metrics, the virtual end time, and the full deterministic telemetry
// summary.
type RunResult struct {
	BootErrs []error
	// Tiers is the tier each boot was served — or refused — from.
	Tiers   []fleet.Tier
	Served  []servedBoot
	Metrics *fleet.Metrics
	End     sim.Time
	Summary []byte
}

// failures returns the non-nil boot errors.
func (r *RunResult) failures() []error {
	var out []error
	for _, e := range r.BootErrs {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// foreignDigest reports the first served boot whose launch digest the
// clean run never produced — a tamper that went live.
func (r *RunResult) foreignDigest(clean *RunResult) (int, [32]byte, bool) {
	honest := make(map[[32]byte]bool, len(clean.Served))
	for _, s := range clean.Served {
		honest[s.Digest] = true
	}
	for i, s := range r.Served {
		if !honest[s.Digest] {
			return i, s.Digest, true
		}
	}
	return 0, [32]byte{}, false
}

// fingerprint hashes the run's observable state. Two runs with equal
// fingerprints behaved identically boot for boot, span for span, counter
// for counter — in virtual time, not just in outcome.
func (r *RunResult) fingerprint() string {
	hsh := sha256.New()
	for _, e := range r.BootErrs {
		if e == nil {
			hsh.Write([]byte("ok;"))
		} else {
			fmt.Fprintf(hsh, "err:%s;", e.Error())
		}
	}
	for _, s := range r.Served {
		fmt.Fprintf(hsh, "served:%s:%x;", s.Tier, s.Digest)
	}
	fmt.Fprintf(hsh, "end:%d;", int64(r.End))
	hsh.Write(r.Summary)
	return fmt.Sprintf("%x", hsh.Sum(nil))
}

// Run registers the image, drives the arrivals, and runs the engine to
// quiescence. Open loop (the default) submits boots at fixed virtual-time
// spacing to the worker pool; closed loop (Cfg.Standalone) serves them
// back to back, running the Between step in each gap. The orchestrator is
// built here — after arm — so sites that edit Cfg (breaker policy, cache
// subscriptions, arrival shape) or wrap Service take effect.
func (h *Harness) Run() (*RunResult, error) {
	cfg := h.Cfg
	cfg.KBS = h.Service
	res := &RunResult{BootErrs: make([]error, h.Boots), Tiers: make([]fleet.Tier, h.Boots)}
	cfg.OnServed = func(p *sim.Proc, m *kvm.Machine, tier fleet.Tier) {
		h.served = append(h.served, servedBoot{Tier: tier, Digest: m.Launch.Digest()})
		if h.OnServed != nil {
			h.OnServed(p, m, tier)
		}
	}
	o := fleet.New(h.Eng, h.Host, cfg)
	img, err := o.RegisterImage("fn", h.Preset, h.Initrd)
	if err != nil {
		return nil, fmt.Errorf("chaos: registering image: %w", err)
	}
	h.Eng.Go("chaos-arrivals", func(p *sim.Proc) {
		for i := 0; i < h.Boots; i++ {
			i := i
			req := fleet.Request{
				Tenant: "t0",
				Image:  img,
				Done: func(dp *sim.Proc, tier fleet.Tier, err error) {
					res.BootErrs[i], res.Tiers[i] = err, tier
				},
			}
			if cfg.Standalone {
				if i > 0 && h.Between != nil {
					h.Between(i, img)
				}
				o.Serve(p, req)
				continue
			}
			if err := o.Submit(p, req); err != nil {
				res.BootErrs[i] = err
			}
			p.Sleep(2 * time.Millisecond)
		}
		o.Close()
	})
	h.Eng.Run()

	res.Served = h.served
	res.Metrics = o.Metrics()
	res.End = h.Eng.Now()
	sum, err := json.Marshal(h.Reg.Summarize())
	if err != nil {
		return nil, fmt.Errorf("chaos: marshaling telemetry summary: %w", err)
	}
	res.Summary = sum
	return res, nil
}
