package chaos

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
)

// snapshotSite corrupts a sealed snapshot container in transit. The trial
// is one closed-loop boot whose served machine is captured and sealed on
// the spot; the mutation (kind: truncate | bitflip | header | extend |
// duplicate) is applied to the container bytes and the decoder's reaction
// is the verdict — the surface under test is the container integrity
// layer, not the fleet: DecodeSealed must refuse any byte-level tamper
// with ErrCorrupt, and accept only the exact written bytes.
func snapshotSite(kind string, off int, mask byte) site {
	var (
		out    = Unexpected
		detail = "no boot was served, so nothing was captured"
	)
	return site{
		family:   "snapshot",
		name:     kind,
		params:   fmt.Sprintf("off=%d mask=%#02x", off, mask),
		expected: []error{snapshot.ErrCorrupt},
		arm: func(h *Harness) {
			h.closedLoop(1, false)
			h.OnServed = func(p *sim.Proc, m *kvm.Machine, _ fleet.Tier) {
				out, detail = sealProbe(p, m, kind, off, mask)
			}
		},
		verdict: func(res, _ *RunResult) (Outcome, string, bool) {
			if err := res.BootErrs[0]; err != nil {
				return Unexpected, fmt.Sprintf("donor boot: %v", err), true
			}
			return out, detail, true
		},
	}
}

// sealProbe captures and seals the donor (charged in virtual time, like
// any capture), applies the mutation to a copy of the container bytes,
// and classifies the decoder's reaction.
func sealProbe(p *sim.Proc, donor *kvm.Machine, kind string, off int, mask byte) (Outcome, string) {
	img, err := snapshot.Capture(p, donor)
	if err != nil {
		return Unexpected, fmt.Sprintf("donor capture: %v", err)
	}
	sealed, err := snapshot.EncodeSealed(img)
	if err != nil {
		return Unexpected, fmt.Sprintf("sealing the donor's snapshot: %v", err)
	}

	mut := bytes.Clone(sealed)
	switch kind {
	case "truncate":
		mut = mut[:off%len(mut)]
	case "bitflip":
		mut[off%len(mut)] ^= mask
	case "header":
		mut[off%21] ^= mask // magic, flags, size, or npages field
	case "extend":
		mut = append(mut, mask)
	case "duplicate":
		// Delivered twice, unmodified: both decodes must succeed and agree.
	}

	got, err := snapshot.DecodeSealed(mut)
	switch {
	case errors.Is(err, snapshot.ErrCorrupt):
		if kind == "duplicate" {
			return Unexpected, fmt.Sprintf("pristine duplicate rejected: %v", err)
		}
		return Caught, fmt.Sprintf("seal refused the tampered container: %v", err)
	case err != nil:
		return Unexpected, fmt.Sprintf("decoder failed outside ErrCorrupt: %v", err)
	case kind == "duplicate":
		again, err := snapshot.DecodeSealed(mut)
		if err != nil {
			return Unexpected, fmt.Sprintf("second decode of identical bytes failed: %v", err)
		}
		if got.Size != again.Size || len(got.Pages) != len(again.Pages) {
			return Escape, "duplicate decode of identical bytes diverged"
		}
		return Harmless, "duplicate delivery decodes identically; idempotent by construction"
	case bytes.Equal(mut, sealed):
		return Harmless, "mutation was the identity on these bytes"
	}
	return Escape, fmt.Sprintf("%s accepted by the seal: tampered snapshot decoded cleanly", kind)
}
