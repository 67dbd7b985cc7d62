package chaos

import (
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
)

// forkMutation dirties bytes the parent's frozen pages alias in the
// window between snapshot capture and fork adoption — the exact surface
// the fork root exists to defend. A fork container copies only the pages
// the donor dirtied (its blob); the rest alias the image's registered
// artifacts, so there are two places to flip a bit: the blob (bitflip)
// and an artifact the container only names (aliased — the kernel image).
// These trials run standalone (like the snapshot family): one cold boot
// seeds the fork container, the bytes are corrupted, and the next warm
// boot's AdoptFork must refuse with ErrForkTampered and evict the warm
// pool; the boot after that must recover cold with the honest measured
// digest. A fork of a dirtied parent going live — with any digest — is an
// ESCAPE.
type forkMutation struct {
	kind string // bitflip | aliased | pristine
	off  int
	mask byte
}

func (m *forkMutation) Family() string { return "fork" }
func (m *forkMutation) Name() string {
	switch m.kind {
	case "pristine":
		return "pristine-control"
	case "aliased":
		return "aliased-artifact"
	}
	return "parent-dirty"
}
func (m *forkMutation) Params() string {
	if m.kind == "pristine" {
		return "untouched parent blob"
	}
	return fmt.Sprintf("off=%d mask=%#02x", m.off, m.mask)
}
func (m *forkMutation) Expected() []error { return []error{guestmem.ErrForkTampered} }
func (m *forkMutation) Arm(*Harness)      {} // standalone; never armed on a fleet harness

// runForkTrial drives a standalone warm fleet through the
// capture → dirty → fork → recover sequence and classifies the result.
func runForkTrial(m *forkMutation, initrd []byte) TrialReport {
	tr := TrialReport{Family: m.Family(), Name: m.Name(), Params: m.Params()}
	fail := func(format string, args ...any) TrialReport {
		tr.Outcome = Unexpected
		tr.Detail = fmt.Sprintf(format, args...)
		return tr
	}

	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	var digests [][32]byte
	o := fleet.New(eng, host, fleet.Config{
		Name:       "fork-trial",
		Standalone: true,
		EnableWarm: true,
		OnServed: func(_ *sim.Proc, mach *kvm.Machine, _ fleet.Tier) {
			digests = append(digests, mach.Launch.Digest())
		},
	})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), initrd)
	if err != nil {
		return fail("registering image: %v", err)
	}

	var (
		tiers    []fleet.Tier
		errs     []error
		setupErr error
	)
	eng.Go("fork-trial", func(p *sim.Proc) {
		serve := func() {
			o.Serve(p, fleet.Request{Tenant: "t0", Image: img,
				Done: func(_ *sim.Proc, tier fleet.Tier, err error) {
					tiers, errs = append(tiers, tier), append(errs, err)
				}})
		}
		serve() // cold boot: measures, captures the fork container
		fk := img.ForkState()
		if fk == nil || fk.Src.Blob() == nil || fk.Src.Blob().Len() == 0 {
			setupErr = fmt.Errorf("cold boot left no forkable container")
			return
		}
		undo := func() {}
		switch m.kind {
		case "bitflip":
			// The dirty parent page. The blob belongs to this trial's fork
			// container alone (every capture freezes a fresh one), so the
			// tamper cannot leak into other trials.
			blob := fk.Src.Blob()
			blob.Corrupt(m.off%blob.Len(), m.mask)
		case "aliased":
			// The kernel image is process-wide (kernelgen.Cached), so the
			// flip is undone as soon as the fork attempt has seen it: the
			// recovery boot, and every later trial, must stage honest bytes.
			kernel := artifact.Lookup(img.Spec().Kernel)
			if kernel == nil {
				setupErr = fmt.Errorf("the image's kernel is not an interned artifact")
				return
			}
			off := m.off % kernel.Len()
			kernel.Corrupt(off, m.mask)
			undo = func() { kernel.Corrupt(off, m.mask) }
		}
		serve() // the fork attempt against the (possibly) dirtied parent
		undo()
		serve() // recovery: the evicted pool must re-seed cold, honestly
	})
	eng.Run()
	tr.EndNS = int64(eng.Now())

	if setupErr != nil {
		return fail("%v", setupErr)
	}
	if len(errs) != 3 {
		return fail("served %d boots, want 3", len(errs))
	}
	if errs[0] != nil {
		return fail("donor cold boot failed: %v", errs[0])
	}

	if m.kind == "pristine" {
		for i, e := range errs {
			if e != nil {
				return fail("boot %d refused with an untouched parent: %v", i, e)
			}
		}
		if tiers[1] != fleet.TierWarm || tiers[2] != fleet.TierWarm {
			return fail("pristine forks served %v/%v, want warm/warm", tiers[1], tiers[2])
		}
		for i, d := range digests {
			if d != digests[0] {
				tr.Outcome = Escape
				tr.Detail = fmt.Sprintf("pristine fork %d served digest %x, donor measured %x", i, d[:8], digests[0][:8])
				return tr
			}
		}
		tr.Outcome = Harmless
		tr.Detail = "pristine forks adopted; every boot carries the donor's measured digest"
		return tr
	}

	// bitflip: the fork attempt must have been refused.
	if errs[1] == nil {
		tr.Outcome = Escape
		tr.Detail = fmt.Sprintf("fork of a dirtied parent went live as %s with digest %x", tiers[1], digests[1][:8])
		return tr
	}
	if !errors.Is(errs[1], guestmem.ErrForkTampered) {
		return fail("fork refused outside the expected class: %v", errs[1])
	}
	if errs[2] != nil {
		return fail("post-eviction recovery boot failed: %v", errs[2])
	}
	if tiers[2] == fleet.TierWarm {
		tr.Outcome = Escape
		tr.Detail = "tampered warm pool survived detection: recovery boot was served warm"
		return tr
	}
	// Successful boots are the cold seed and the recovery; the recovery
	// must re-measure to the same honest digest.
	if len(digests) != 2 || digests[1] != digests[0] {
		tr.Outcome = Escape
		tr.Detail = "recovery boot served a digest the donor never measured"
		return tr
	}
	tr.Outcome = Caught
	tr.Detail = fmt.Sprintf("fork refused (%v); warm pool evicted; recovery re-seeded %s with the honest digest",
		guestmem.ErrForkTampered, tiers[2])
	return tr
}
