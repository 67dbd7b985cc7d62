package chaos

import (
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/measure"
)

// recoverSite is the data of one dirty → refuse → restore → recover site:
// three closed-loop boots of one image. Boot 0 is cold and leaves
// something behind that later boots trust without re-reading — a fork
// container, a measured plan. In the gap before boot 1 one byte of it is
// flipped; boot 1 must be refused with the refusal class; in the gap
// before boot 2 the flip is undone (Corrupt is XOR), and boot 2 must be
// served again, honestly. A row without locate is the pristine control:
// nothing is flipped and all three boots must serve.
type recoverSite struct {
	family, name, params string
	// refusal is the error class boot 1 must be refused with.
	refusal error
	// pristine is the tier boots 1 and 2 are served from when nothing was
	// flipped; TierWarm turns the harness's warm tier on.
	pristine fleet.Tier
	// locate finds the byte to flip, once boot 0 has returned.
	locate func(h *Harness, img *fleet.Image) (buf *artifact.Buf, off int, err error)
	mask   byte

	// Detail vocabulary: boot 1 is an attempt (a "fork", a "relaunch") on
	// a source (the "parent", the "plan blob").
	attempt, source string
	harmless        string
	caught          func(recovery fleet.Tier) string
}

func (rs recoverSite) site() site {
	var (
		setupErr error
		dirty    *artifact.Buf
		dirtyOff int
	)
	return site{
		family:   rs.family,
		name:     rs.name,
		params:   rs.params,
		expected: []error{rs.refusal},
		arm: func(h *Harness) {
			h.closedLoop(3, rs.pristine == fleet.TierWarm)
			if rs.locate == nil {
				return
			}
			h.Between = func(next int, img *fleet.Image) {
				if next == 1 {
					dirty, dirtyOff, setupErr = rs.locate(h, img)
				}
				// Before boot 1 this is the flip, before boot 2 its undo:
				// process-wide artifacts (the kernel image) must be honest
				// again for the recovery boot and for every later trial.
				if dirty != nil {
					dirty.Corrupt(dirtyOff, rs.mask)
				}
			}
		},
		verdict: func(res, _ *RunResult) (Outcome, string, bool) {
			if setupErr != nil {
				return Unexpected, setupErr.Error(), true
			}
			out, detail := rs.oracle(res)
			return out, detail, true
		},
	}
}

// oracle is the one dirty → refuse → restore → recover verdict.
func (rs recoverSite) oracle(res *RunResult) (Outcome, string) {
	errs, tiers, served := res.BootErrs, res.Tiers, res.Served
	if errs[0] != nil {
		return Unexpected, fmt.Sprintf("seeding cold boot failed: %v", errs[0])
	}
	honest := served[0].Digest

	if rs.locate == nil {
		for i, e := range errs {
			if e != nil {
				return Unexpected, fmt.Sprintf("boot %d refused with an untouched %s: %v", i, rs.source, e)
			}
		}
		if tiers[1] != rs.pristine || tiers[2] != rs.pristine {
			return Unexpected, fmt.Sprintf("pristine %ss served %v/%v, want %v/%v", rs.attempt, tiers[1], tiers[2], rs.pristine, rs.pristine)
		}
		for i, s := range served {
			if s.Digest != honest {
				return Escape, fmt.Sprintf("pristine %s %d served digest %x, boot 0 measured %x", rs.attempt, i, s.Digest[:8], honest[:8])
			}
		}
		return Harmless, rs.harmless
	}

	// Boot 1 ran against the dirtied source and must have been refused — a
	// stale digest memo or an unchecked fork root would let it go live.
	if errs[1] == nil {
		return Escape, fmt.Sprintf("%s of a dirtied %s went live as %s with digest %x", rs.attempt, rs.source, tiers[1], served[1].Digest[:8])
	}
	if !errors.Is(errs[1], rs.refusal) {
		return Unexpected, fmt.Sprintf("%s refused outside the expected class: %v", rs.attempt, errs[1])
	}
	if errs[2] != nil {
		return Unexpected, fmt.Sprintf("recovery boot failed: %v", errs[2])
	}
	if tiers[2] == fleet.TierWarm {
		return Escape, "tampered warm pool survived detection: recovery boot was served warm"
	}
	// Successful boots are the seeding cold boot and the recovery; the
	// recovery must re-measure to the same honest digest.
	if len(served) != 2 || served[1].Digest != honest {
		return Escape, "recovery boot served a digest boot 0 never measured"
	}
	return Caught, rs.caught(tiers[2])
}

// ---------------------------------------------------------------------------
// fork family: dirtying bytes the parent's frozen pages alias in the
// window between snapshot capture and fork adoption — the exact surface
// the fork root exists to defend. A fork container copies only the pages
// the donor dirtied (its blob); the rest alias the image's registered
// artifacts, so there are two places to flip a bit: the blob
// (parent-dirty) and an artifact the container only names
// (aliased-artifact — the kernel image). The cold boot seeds the fork
// container, the bytes are corrupted, and the next warm boot's AdoptFork
// must refuse with ErrForkTampered and evict the warm pool; the boot
// after that must recover cold with the honest measured digest. A fork
// of a dirtied parent going live — with any digest — is an ESCAPE.

var forkFamily = recoverSite{
	family:   "fork",
	refusal:  guestmem.ErrForkTampered,
	pristine: fleet.TierWarm,
	attempt:  "fork",
	source:   "parent",
	harmless: "pristine forks adopted; every boot carries the donor's measured digest",
	caught: func(recovery fleet.Tier) string {
		return fmt.Sprintf("fork refused (%v); warm pool evicted; recovery re-seeded %s with the honest digest",
			guestmem.ErrForkTampered, recovery)
	},
}

// forkBlob returns the seeded fork container's dirty blob.
func forkBlob(img *fleet.Image) (*artifact.Buf, error) {
	fk := img.ForkState()
	if fk == nil || fk.Src.Blob() == nil || fk.Src.Blob().Len() == 0 {
		return nil, fmt.Errorf("cold boot left no forkable container")
	}
	return fk.Src.Blob(), nil
}

// forkParentDirty flips a byte of the dirty parent pages. The blob belongs
// to this trial's fork container alone (every capture freezes a fresh
// one), so the tamper cannot leak into other trials.
func forkParentDirty(off int, mask byte) site {
	rs := forkFamily
	rs.name, rs.params, rs.mask = "parent-dirty", fmt.Sprintf("off=%d mask=%#02x", off, mask), mask
	rs.locate = func(_ *Harness, img *fleet.Image) (*artifact.Buf, int, error) {
		blob, err := forkBlob(img)
		if err != nil {
			return nil, 0, err
		}
		return blob, off % blob.Len(), nil
	}
	return rs.site()
}

// forkAliasedArtifact flips a byte of the kernel image, which the
// container names but does not hold. The image is process-wide
// (kernelgen.Cached), which is why the flip is undone as soon as the fork
// attempt has seen it.
func forkAliasedArtifact(off int, mask byte) site {
	rs := forkFamily
	rs.name, rs.params, rs.mask = "aliased-artifact", fmt.Sprintf("off=%d mask=%#02x", off, mask), mask
	rs.locate = func(_ *Harness, img *fleet.Image) (*artifact.Buf, int, error) {
		if _, err := forkBlob(img); err != nil {
			return nil, 0, err
		}
		kernel := artifact.Lookup(img.Spec().Kernel)
		if kernel == nil {
			return nil, 0, fmt.Errorf("the image's kernel is not an interned artifact")
		}
		return kernel, off % kernel.Len(), nil
	}
	return rs.site()
}

func forkPristine() site {
	rs := forkFamily
	rs.name, rs.params = "pristine-control", "untouched parent blob"
	return rs.site()
}

// ---------------------------------------------------------------------------
// artifact family, plan-blob sites: dirtying the measured plan's staging
// blob in the window between the first boot (the plan is published, its
// digest folded from honest bytes) and the next launch measurement — the
// exact surface the zero-copy loader exposes: guest pages alias the blob,
// so a flipped bit would ride into guest memory with full provenance. The
// defense is that Corrupt invalidates the artifact's digest memos,
// forcing the PSP to re-hash the bytes it actually measures; the cached
// prediction keeps the honest digest, and the boot must refuse with
// ErrDigestMismatch. The cached plan is reused as-is, so the recovery
// boot sees the restored bytes. A tampered boot going live under the
// registered digest is an ESCAPE.

var planFamily = recoverSite{
	family:   "artifact",
	refusal:  fleet.ErrDigestMismatch,
	pristine: fleet.TierCachedCold,
	attempt:  "relaunch",
	source:   "plan blob",
	harmless: "pristine relaunches reused the plan; every boot carries the registered digest",
	caught: func(fleet.Tier) string {
		return fmt.Sprintf("tampered plan refused (%v); restored blob re-measured the honest digest",
			fleet.ErrDigestMismatch)
	},
}

// planBlobDirty attacks the largest staged region of the cached plan
// (bulkRegion): the verifier image, whose bytes are opaque to the host —
// no structural checksum trips first, so the launch digest is the only
// defense. The plan points at the one verifier image every plan of its
// seed shares, so the flip reaches every later launch until it is undone.
func planBlobDirty(off int, mask byte) site {
	rs := planFamily
	rs.name, rs.params, rs.mask = "plan-blob-dirty", fmt.Sprintf("off=%d mask=%#02x", off, mask), mask
	rs.locate = func(h *Harness, img *fleet.Image) (*artifact.Buf, int, error) {
		mi := h.Cfg.Cache.Get(img.CacheKey())
		if mi == nil {
			return nil, 0, fmt.Errorf("cold boot left no cached plan")
		}
		reg := bulkRegion(mi.Regions)
		if reg.Art == nil {
			return nil, 0, fmt.Errorf("cached plan has no blob-backed regions to attack")
		}
		return reg.Art, reg.ArtOff + off%len(reg.Data), nil
	}
	return rs.site()
}

// bulkRegion is the largest region of a plan that stages from bytes the
// plan points at (Region.Art): the one plan-blob-dirty flips.
func bulkRegion(regions []measure.Region) measure.Region {
	var reg measure.Region
	for _, r := range regions {
		if r.Art != nil && len(r.Data) > len(reg.Data) {
			reg = r
		}
	}
	return reg
}

func planPristine() site {
	rs := planFamily
	rs.name, rs.params = "plan-pristine-control", "untouched staging blob"
	return rs.site()
}
