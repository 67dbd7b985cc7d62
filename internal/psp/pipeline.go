package psp

// The parallel measurement pipeline. LAUNCH_UPDATE_DATA's real work has
// two halves with different ordering requirements:
//
//   - per-region content hashing (SHA-256 of the region's plain text) —
//     embarrassingly parallel, order-free;
//   - the digest chain fold (digest' = H(digest ‖ meta ‖ content)) —
//     inherently serial, order-sensitive.
//
// UpdateBatch exploits that split: regions staged into a batch are
// charged on the PSP and flipped private in submission order (virtual
// time is identical to calling LaunchUpdateData per region), but the
// content hashes are computed across the hostwork pool and only the
// cheap 113-byte fold runs serially. Because each content hash is a
// pure function of the region bytes and the fold consumes them in
// submission order, the final digest is bit-identical for every worker
// count, including one. Content hashes also hit the shared-artifact
// memo table, which is what makes the Nth same-image fleet boot cheap.

import (
	"fmt"
	"slices"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/hostwork"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// RegionMeta identifies one measured region in a digest fold.
type RegionMeta struct {
	PT  sev.PageType
	GPA uint64
	Len int
}

// FoldDigest folds precomputed region content hashes into a launch
// digest chain, serially and in order — the deterministic second stage
// of the pipeline. contents[i] must be SHA-256 of region i's bytes.
func FoldDigest(initial [32]byte, metas []RegionMeta, contents [][32]byte) [32]byte {
	digest := initial
	for i, meta := range metas {
		digest = ExtendDigestContent(digest, meta.PT, meta.GPA, meta.Len, contents[i])
	}
	return digest
}

// UpdateBatch accumulates LAUNCH_UPDATE_DATA regions whose content
// hashes are deferred and parallelized. Stage writes the region and
// performs the launch update's state change at its exact virtual-time
// point; Close runs the deferred hashes and the serial fold.
type UpdateBatch struct {
	ctx     *GuestContext
	pending []RegionMeta
	// byte intervals of pending (unhashed) regions, to detect staged
	// writes that would clobber bytes a deferred hash still needs.
	spans []span

	// Backing arrays that fit a launch's regions, so staging and folding
	// them allocates nothing beyond the batch. A batch with more pending
	// regions grows past them.
	pendingBuf  [batchRegions]RegionMeta
	spansBuf    [batchRegions]span
	contentsBuf [batchRegions][32]byte
	errsBuf     [batchRegions]error
}

// batchRegions is how many regions a batch holds before it allocates:
// every launch the VMMs here build measures at most eight.
const batchRegions = 8

type span struct{ lo, hi uint64 }

// NewUpdateBatch opens a batch on this launch context. The caller must
// not interleave other updates to the same context while the batch is
// open, and must call Close before reading the digest.
func (ctx *GuestContext) NewUpdateBatch() *UpdateBatch {
	b := &UpdateBatch{ctx: ctx}
	b.pending, b.spans = b.pendingBuf[:0], b.spansBuf[:0]
	return b
}

// Stage writes data at gpa as the VMM and issues the region's
// LAUNCH_UPDATE_DATA: the PSP charge and the private flip happen now,
// in order; the content hash is deferred to Close. If the write would
// overlap a region whose hash is still pending (a layout this VMM never
// produces, but the API must not miscompute if given one), the pending
// hashes are flushed first so every region is measured exactly as the
// sequential path would have.
func (b *UpdateBatch) Stage(proc *sim.Proc, gpa uint64, data []byte, pt sev.PageType) error {
	return b.stage(proc, gpa, data, pt, nil, 0)
}

// StageArtifact is Stage for a subrange of an immutable artifact: the
// staging write aliases the artifact's pages copy-on-write with
// provenance (guestmem.HostWriteArtifact), so the deferred content hash
// resolves through the artifact's digest memo instead of re-reading
// guest memory. Virtual-time charges, the flip, the tamper window, and
// the resulting digest are bit-identical to Stage of the same bytes —
// a tamper scribble breaks the aliased pages' provenance, so the
// deferred hash measures the scribbled bytes for real.
func (b *UpdateBatch) StageArtifact(proc *sim.Proc, gpa uint64, art *artifact.Buf, off, n int, pt sev.PageType) error {
	return b.stage(proc, gpa, art.Bytes()[off:off+n], pt, art, off)
}

func (b *UpdateBatch) stage(proc *sim.Proc, gpa uint64, data []byte, pt sev.PageType, art *artifact.Buf, artOff int) error {
	if b.ctx.state != StateLaunching {
		return fmt.Errorf("%w: LAUNCH_UPDATE_DATA in state %d", ErrState, b.ctx.state)
	}
	lo, hi := gpa, gpa+uint64(len(data))
	for _, s := range b.spans {
		if lo < s.hi && s.lo < hi {
			if err := b.Close(); err != nil {
				return err
			}
			break
		}
	}
	var err error
	if art != nil {
		err = b.ctx.mem.HostWriteArtifact(gpa, art, artOff, len(data))
	} else {
		err = b.ctx.mem.HostWrite(gpa, data)
	}
	if err != nil {
		return err
	}
	if b.ctx.psp.PreEncryptTamper != nil {
		// Same hostile-host window as the sequential path: the scribble
		// lands after staging and before the flip, so the deferred content
		// hash (and therefore the digest chain) measures the tampered
		// bytes, exactly as the real PSP would.
		b.ctx.psp.PreEncryptTamper(b.ctx.mem, gpa, len(data))
	}
	b.ctx.psp.run(proc, b.ctx.psp.model.PreEncrypt(len(data)), "LAUNCH_UPDATE_DATA")
	if err := b.ctx.mem.LaunchUpdateFlip(gpa, len(data)); err != nil {
		return err
	}
	b.pending = append(b.pending, RegionMeta{PT: pt, GPA: gpa, Len: len(data)})
	b.spans = append(b.spans, span{lo, hi})
	return nil
}

// Close hashes the pending regions across the hostwork pool and folds
// them into the launch digest in submission order. The batch may be
// reused for further Stage calls afterwards.
func (b *UpdateBatch) Close() error {
	if len(b.pending) == 0 {
		return nil
	}
	defer b.ctx.mem.HostRecorder().Stage("psp.pipeline", time.Now())
	n := len(b.pending)
	// Every entry is written below.
	contents := slices.Grow(b.contentsBuf[:0], n)[:n]
	errs := slices.Grow(b.errsBuf[:0], n)[:n]
	hostwork.Do(n, func(i int) {
		r := b.pending[i]
		contents[i], errs[i] = b.ctx.mem.PlainRangeDigest(r.GPA, r.Len)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	b.ctx.digest = FoldDigest(b.ctx.digest, b.pending, contents)
	b.ctx.updates += len(b.pending)
	b.pending = b.pending[:0]
	b.spans = b.spans[:0]
	return nil
}
