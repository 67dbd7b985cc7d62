// Package rmp models the SEV-SNP Reverse Map Table: the system-wide,
// hardware-enforced structure that records which guest owns each physical
// page and whether the guest has validated it (paper §2.2).
//
// The table is consulted on host writes (an assigned page may not be
// written by the hypervisor), on guest private accesses (an unvalidated
// page raises #VC), and by the pvalidate instruction (the only way to set
// the validated bit, and only from inside the guest).
//
// Representation: the table is a sorted, coalesced run-length list of
// spans — maximal [lo, hi) pfn intervals sharing one {asid, assigned,
// validated} state, with all-zero (hypervisor-owned, unvalidated) spans
// left implicit. Guest images are laid out as a handful of contiguous
// regions, so a whole 40 MiB boot costs tens of span splices instead of
// ~10k dense entry writes, while per-page semantics (first-failing-pfn
// errors, partial mutation before an error, Validations tick counts)
// stay bit-identical to a dense per-entry table — the differential tests
// in this package prove that against a retained dense reference.
package rmp

import (
	"errors"
	"fmt"
	"sort"
)

// PageSize is the RMP granularity.
const PageSize = 4096

// Errors reported by RMP checks. ErrVC corresponds to the #VC exception
// delivered to the guest; ErrHostWrite corresponds to the hardware
// blocking a host write to an assigned page.
var (
	ErrVC        = errors.New("rmp: #VC — guest access to unvalidated private page")
	ErrHostWrite = errors.New("rmp: host write to guest-assigned page blocked")
	ErrOwner     = errors.New("rmp: page assigned to a different guest")
	ErrDouble    = errors.New("rmp: pvalidate of already-validated page")
)

// Entry is one RMP record.
type Entry struct {
	ASID      uint32 // owning guest; 0 = hypervisor-owned
	Assigned  bool   // page belongs to a guest
	Validated bool   // guest has executed pvalidate
}

// state is Entry in comparable span form.
type state struct {
	asid      uint32
	assigned  bool
	validated bool
}

func (s state) entry() Entry {
	return Entry{ASID: s.asid, Assigned: s.assigned, Validated: s.validated}
}

// span is a maximal pfn run [lo, hi) in a single state. Zero-state runs
// are not stored.
type span struct {
	lo, hi uint64
	st     state
}

// Table is the reverse map table. One table exists per machine; guests are
// distinguished by ASID.
type Table struct {
	// spans is sorted by lo, non-overlapping, coalesced (no two adjacent
	// spans share a state), and never contains a zero-state span.
	spans []span

	// Validations counts successful pvalidate operations, for cost
	// accounting and the huge-page ablation.
	Validations uint64

	// work is splice/classification scratch, reused across calls so the
	// steady-state boot path does not allocate.
	work []span

	// Initial backing for spans and work. A guest's table is built by
	// one launch and one boot, which leave a few spans and classify a
	// few runs at a time, so neither regrows from nil.
	spansBuf [4]span
	workBuf  [8]span
}

// New returns an empty table (all pages hypervisor-owned).
func New() *Table {
	t := &Table{}
	t.spans, t.work = t.spansBuf[:0], t.workBuf[:0]
	return t
}

func pfn(gpa uint64) uint64 { return gpa / PageSize }

// pageCount is the number of 4 KiB RMP entries a byte range [gpa, gpa+n)
// touches when walked in PageSize steps from gpa (ceil division — the
// partial tail page counts).
func pageCount(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return (uint64(n) + PageSize - 1) / PageSize
}

// find returns the index of the first span with hi > n — the span
// containing pfn n if its lo <= n, otherwise the insertion point.
func (t *Table) find(n uint64) int {
	return sort.Search(len(t.spans), func(k int) bool { return t.spans[k].hi > n })
}

// at returns the state of a pfn (zero value in any gap).
func (t *Table) at(n uint64) state {
	i := t.find(n)
	if i < len(t.spans) && t.spans[i].lo <= n {
		return t.spans[i].st
	}
	return state{}
}

// setRange rewrites every pfn in [lo, hi) to st, splicing the span list:
// overlapped spans are removed or trimmed, and the result is re-coalesced
// with both neighbours. Setting the zero state erases the run.
func (t *Table) setRange(lo, hi uint64, st state) {
	if lo >= hi {
		return
	}
	spans := t.spans
	i := sort.Search(len(spans), func(k int) bool { return spans[k].hi > lo })
	j := sort.Search(len(spans), func(k int) bool { return spans[k].lo >= hi })

	// Replacement for spans[i:j]: left remainder, the new run, right
	// remainder — then coalesce within and across the splice boundary.
	var repl [3]span
	nr := 0
	if i < j && spans[i].lo < lo {
		repl[nr] = span{spans[i].lo, lo, spans[i].st}
		nr++
	}
	if st != (state{}) {
		repl[nr] = span{lo, hi, st}
		nr++
	}
	if i < j && spans[j-1].hi > hi {
		repl[nr] = span{hi, spans[j-1].hi, spans[j-1].st}
		nr++
	}
	// Coalesce inside the replacement (left+new or new+right may match).
	for k := 0; k+1 < nr; {
		if repl[k].hi == repl[k+1].lo && repl[k].st == repl[k+1].st {
			repl[k].hi = repl[k+1].hi
			copy(repl[k+1:], repl[k+2:nr])
			nr--
		} else {
			k++
		}
	}
	// Coalesce with the untouched neighbours.
	if nr > 0 && i > 0 && spans[i-1].hi == repl[0].lo && spans[i-1].st == repl[0].st {
		repl[0].lo = spans[i-1].lo
		i--
	}
	if nr > 0 && j < len(spans) && spans[j].lo == repl[nr-1].hi && spans[j].st == repl[nr-1].st {
		repl[nr-1].hi = spans[j].hi
		j++
	}

	switch {
	case nr == j-i:
		copy(spans[i:j], repl[:nr])
	case nr < j-i:
		copy(spans[i+nr:], spans[j:])
		copy(spans[i:], repl[:nr])
		t.spans = spans[:len(spans)-(j-i)+nr]
	default: // nr > j-i: grow by the difference, shift the tail right
		grow := nr - (j - i)
		for k := 0; k < grow; k++ {
			spans = append(spans, span{})
		}
		copy(spans[j+grow:], spans[j:len(spans)-grow])
		copy(spans[i:], repl[:nr])
		t.spans = spans
	}
}

// walk visits every maximal uniform-state run inside [lo, hi), including
// implicit zero-state gaps, in ascending pfn order. fn returns false to
// stop early.
func (t *Table) walk(lo, hi uint64, fn func(lo, hi uint64, st state) bool) {
	i := t.find(lo)
	cur := lo
	for cur < hi {
		if i >= len(t.spans) || t.spans[i].lo >= hi {
			fn(cur, hi, state{})
			return
		}
		s := t.spans[i]
		if s.lo > cur {
			if !fn(cur, s.lo, state{}) {
				return
			}
			cur = s.lo
		}
		end := min(s.hi, hi)
		if !fn(cur, end, s.st) {
			return
		}
		cur = end
		i++
	}
}

// Lookup returns the entry covering gpa.
func (t *Table) Lookup(gpa uint64) Entry { return t.at(pfn(gpa)).entry() }

// Assign marks the page containing gpa as owned by asid, clearing the
// validated bit (hardware does this whenever ownership or mapping
// changes). Used by SNP_LAUNCH_UPDATE and by KVM when donating pages.
func (t *Table) Assign(gpa uint64, asid uint32) {
	t.setRange(pfn(gpa), pfn(gpa)+1, state{asid: asid, assigned: true})
}

// AssignValidated assigns and validates in one step — the state
// SNP_LAUNCH_UPDATE leaves pre-encrypted launch pages in, so the guest can
// execute from its root of trust without a pvalidate round.
func (t *Table) AssignValidated(gpa uint64, asid uint32) {
	t.setRange(pfn(gpa), pfn(gpa)+1, state{asid: asid, assigned: true, validated: true})
}

// AssignRange assigns every page of [gpa, gpa+n) to asid with the
// validated bit clear — the batched form of Assign, one span splice for
// the whole run.
func (t *Table) AssignRange(gpa uint64, n int, asid uint32) {
	t.setRange(pfn(gpa), pfn(gpa)+pageCount(n), state{asid: asid, assigned: true})
}

// AssignValidatedRange assigns-and-validates [gpa, gpa+n) in one splice —
// the batched form of AssignValidated used by launch-update page flips
// and snapshot restore.
func (t *Table) AssignValidatedRange(gpa uint64, n int, asid uint32) {
	t.setRange(pfn(gpa), pfn(gpa)+pageCount(n), state{asid: asid, assigned: true, validated: true})
}

// Pvalidate sets the validated bit for the page containing gpa. It fails
// if the page is not assigned to asid (the guest cannot validate pages it
// does not own) and if the page is already validated (the double-validate
// check that defends against remap/replay games).
func (t *Table) Pvalidate(gpa uint64, asid uint32) error {
	e := t.at(pfn(gpa))
	if !e.assigned || e.asid != asid {
		return fmt.Errorf("%w: pfn %#x", ErrOwner, pfn(gpa))
	}
	if e.validated {
		return fmt.Errorf("%w: pfn %#x", ErrDouble, pfn(gpa))
	}
	t.setRange(pfn(gpa), pfn(gpa)+1, state{asid: asid, assigned: true, validated: true})
	t.Validations++
	return nil
}

// SpanOptions selects the semantics of PvalidateSpan.
type SpanOptions struct {
	// PageSize is the validation granularity (4 KiB or 2 MiB); zero means
	// 4 KiB. Must be a multiple of the RMP granularity.
	PageSize int

	// SkipValidated models the page-state-change + pvalidate sequence of
	// a guest that tracks pre-validated ranges (the paper's
	// snp-lazy-pvalidate patches): pages the PSP already
	// assigned-and-validated for this guest are skipped, unassigned pages
	// are taken over, and pages owned by a different guest fail.
	SkipValidated bool
}

// PvalidateSpan validates [gpa, gpa+n) for asid as one range operation
// and returns the number of pvalidate instructions issued (the amount
// Validations advanced). It is the single implementation behind
// PvalidateRangeSkipValidated (and the tests' PvalidateRange), with
// per-page dense semantics preserved exactly: the error names the first
// failing pfn, every page before it is left mutated as the per-page walk
// would have left it, and tick counts match block for block.
func (t *Table) PvalidateSpan(gpa uint64, n int, asid uint32, opts SpanOptions) (int, error) {
	ps := uint64(opts.PageSize)
	if opts.PageSize <= 0 {
		ps = PageSize
	}
	pages := pageCount(n)
	if pages == 0 {
		return 0, nil
	}
	pfn0 := pfn(gpa)
	full := state{asid: asid, assigned: true, validated: true}
	skip := opts.SkipValidated

	// Classification pass: find the first failing pfn and collect the
	// "work" intervals (pages the walk would mutate), in k-space where
	// k = pfn - pfn0 and page k belongs to block k*PageSize/ps.
	work := t.work[:0]
	var errK uint64
	var errSt state
	hasErr := false
	t.walk(pfn0, pfn0+pages, func(lo, hi uint64, st state) bool {
		k0 := lo - pfn0
		if skip {
			if st.assigned && st.asid != asid {
				errK, errSt, hasErr = k0, st, true
				return false
			}
			if st.assigned && st.validated { // ours: pre-validated, skipped
				return true
			}
		} else {
			if !st.assigned || st.asid != asid || st.validated {
				errK, errSt, hasErr = k0, st, true
				return false
			}
		}
		work = append(work, span{k0, hi - pfn0, st})
		return true
	})
	t.work = work

	var ops int
	switch {
	case !skip:
		// Uniform mode: every page does work, so ticks are pure block
		// arithmetic — one per PageSize block completed before failure.
		if hasErr {
			ops = int(errK * PageSize / ps)
		} else {
			ops = int((uint64(n) + ps - 1) / ps)
		}
	default:
		// Lazy skip mode: one tick per block that contains any work page
		// and completed before the failure.
		errBlock := uint64(1<<63 - 1)
		if hasErr {
			errBlock = errK * PageSize / ps
		}
		last := int64(-1)
		for _, w := range work {
			b0 := int64(w.lo * PageSize / ps)
			b1 := int64((w.hi - 1) * PageSize / ps)
			if b0 <= last {
				b0 = last + 1
			}
			if hasErr && b1 >= int64(errBlock) {
				b1 = int64(errBlock) - 1
			}
			if b1 >= b0 {
				ops += int(b1 - b0 + 1)
				last = b1
			}
		}
	}

	// Mutation: in skip mode every page before the failure ends
	// assigned-and-validated for asid (work pages are set, skipped pages
	// already were); in uniform mode the checked prefix was all ours and
	// unvalidated, so the same single splice applies.
	if hasErr {
		t.setRange(pfn0, pfn0+errK, full)
		t.Validations += uint64(ops)
		if !skip && errSt.assigned && errSt.asid == asid && errSt.validated {
			return ops, fmt.Errorf("%w: pfn %#x", ErrDouble, pfn0+errK)
		}
		return ops, fmt.Errorf("%w: pfn %#x", ErrOwner, pfn0+errK)
	}
	t.setRange(pfn0, pfn0+pages, full)
	t.Validations += uint64(ops)
	return ops, nil
}

// PvalidateRangeSkipValidated takes guest ownership of [gpa, gpa+n): for
// every page it models the page-state-change request (hypervisor assigns
// the page to the guest) followed by pvalidate. Pages the PSP already
// assigned-and-validated during launch are skipped — the behaviour of a
// guest whose kernel tracks pre-validated ranges (the paper's
// snp-lazy-pvalidate guest patches). Pages owned by a *different* guest
// fail with ErrOwner. One Validations tick is counted per pageSize block
// that did any work (a 2 MiB pvalidate is one instruction).
func (t *Table) PvalidateRangeSkipValidated(gpa uint64, n int, pageSize int, asid uint32) error {
	_, err := t.PvalidateSpan(gpa, n, asid, SpanOptions{PageSize: pageSize, SkipValidated: true})
	return err
}

// CheckGuestAccess verifies a guest private-memory access to the page
// containing gpa: the page must be assigned to this guest and validated,
// otherwise the hardware raises #VC.
func (t *Table) CheckGuestAccess(gpa uint64, asid uint32) error {
	e := t.at(pfn(gpa))
	if !e.assigned || e.asid != asid || !e.validated {
		return fmt.Errorf("%w: gpa %#x", ErrVC, gpa)
	}
	return nil
}

// CheckGuestAccessRange verifies a guest access to every page of
// [gpa, gpa+n) in one span walk, reporting the first faulting page
// exactly as the per-page walk would (page-aligned gpa in the error).
func (t *Table) CheckGuestAccessRange(gpa uint64, n int, asid uint32) error {
	pages := pageCount(n)
	if pages == 0 {
		return nil
	}
	pfn0 := pfn(gpa)
	var err error
	t.walk(pfn0, pfn0+pages, func(lo, hi uint64, st state) bool {
		if !st.assigned || st.asid != asid || !st.validated {
			err = fmt.Errorf("%w: gpa %#x", ErrVC, lo*PageSize)
			return false
		}
		return true
	})
	return err
}

// CheckHostWrite verifies a hypervisor write to the page containing gpa:
// assigned pages are write-protected from the host.
func (t *Table) CheckHostWrite(gpa uint64) error {
	e := t.at(pfn(gpa))
	if e.assigned {
		return fmt.Errorf("%w: gpa %#x (asid %d)", ErrHostWrite, gpa, e.asid)
	}
	return nil
}

// CheckHostWriteRange verifies a hypervisor write to every page of
// [gpa, gpa+n) in one span walk, reporting the first protected page.
func (t *Table) CheckHostWriteRange(gpa uint64, n int) error {
	pages := pageCount(n)
	if pages == 0 {
		return nil
	}
	pfn0 := pfn(gpa)
	var err error
	t.walk(pfn0, pfn0+pages, func(lo, hi uint64, st state) bool {
		if st.assigned {
			err = fmt.Errorf("%w: gpa %#x (asid %d)", ErrHostWrite, lo*PageSize, st.asid)
			return false
		}
		return true
	})
	return err
}

// Remap models the hypervisor changing the mapping backing gpa: hardware
// clears the validated bit, so the guest's next access raises #VC
// (paper §2.2). Ownership is retained.
func (t *Table) Remap(gpa uint64) {
	e := t.at(pfn(gpa))
	e.validated = false
	t.setRange(pfn(gpa), pfn(gpa)+1, e)
}

// Reclaim returns the page to hypervisor ownership (guest teardown).
func (t *Table) Reclaim(gpa uint64) {
	t.setRange(pfn(gpa), pfn(gpa)+1, state{})
}

// ReclaimRange returns every page of [gpa, gpa+n) to hypervisor
// ownership in one splice.
func (t *Table) ReclaimRange(gpa uint64, n int) {
	t.setRange(pfn(gpa), pfn(gpa)+pageCount(n), state{})
}

// AssignedPages returns how many pages are currently assigned to asid.
func (t *Table) AssignedPages(asid uint32) int {
	n := uint64(0)
	for _, s := range t.spans {
		if s.st.assigned && s.st.asid == asid {
			n += s.hi - s.lo
		}
	}
	return int(n)
}
