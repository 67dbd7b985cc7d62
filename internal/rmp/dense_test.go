package rmp

// denseTable is the original per-entry RMP implementation, retained as
// the executable specification the span table is differentially tested
// against: identical entries, identical Validations counts, identical
// errors (type and first-failing-pfn message), identical partial
// mutation before an error, for every operation sequence thrown at both.

import "fmt"

type denseTable struct {
	entries     []Entry
	Validations uint64
}

func (t *denseTable) at(n uint64) Entry {
	if n >= uint64(len(t.entries)) {
		return Entry{}
	}
	return t.entries[n]
}

func (t *denseTable) set(n uint64, e Entry) {
	if n >= uint64(len(t.entries)) {
		grown := make([]Entry, (n+1)*2)
		copy(grown, t.entries)
		t.entries = grown
	}
	t.entries[n] = e
}

func (t *denseTable) Lookup(gpa uint64) Entry { return t.at(pfn(gpa)) }

func (t *denseTable) Assign(gpa uint64, asid uint32) {
	t.set(pfn(gpa), Entry{ASID: asid, Assigned: true})
}

func (t *denseTable) AssignValidated(gpa uint64, asid uint32) {
	t.set(pfn(gpa), Entry{ASID: asid, Assigned: true, Validated: true})
}

func (t *denseTable) AssignRange(gpa uint64, n int, asid uint32) {
	for off := uint64(0); off < uint64(n); off += PageSize {
		t.Assign(gpa+off, asid)
	}
}

func (t *denseTable) AssignValidatedRange(gpa uint64, n int, asid uint32) {
	for off := uint64(0); off < uint64(n); off += PageSize {
		t.AssignValidated(gpa+off, asid)
	}
}

func (t *denseTable) Pvalidate(gpa uint64, asid uint32) error {
	e := t.at(pfn(gpa))
	if !e.Assigned || e.ASID != asid {
		return fmt.Errorf("%w: pfn %#x", ErrOwner, pfn(gpa))
	}
	if e.Validated {
		return fmt.Errorf("%w: pfn %#x", ErrDouble, pfn(gpa))
	}
	e.Validated = true
	t.set(pfn(gpa), e)
	t.Validations++
	return nil
}

// PvalidateSpan is the dense walk matching Table.PvalidateSpan option for
// option, written as the naive per-page loops the span table replaces.
func (t *denseTable) PvalidateSpan(gpa uint64, n int, asid uint32, opts SpanOptions) (int, error) {
	ps := opts.PageSize
	if ps <= 0 {
		ps = PageSize
	}
	before := t.Validations
	var err error
	switch {
	case opts.SkipValidated:
		err = t.pvalidateSkip(gpa, n, ps, asid)
	default:
		err = t.pvalidateUniform(gpa, n, ps, asid)
	}
	return int(t.Validations - before), err
}

func (t *denseTable) pvalidateUniform(gpa uint64, n, ps int, asid uint32) error {
	for off := uint64(0); off < uint64(n); off += uint64(ps) {
		base := gpa + off
		for sub := uint64(0); sub < uint64(ps) && base+sub < gpa+uint64(n); sub += PageSize {
			e := t.at(pfn(base + sub))
			if !e.Assigned || e.ASID != asid {
				return fmt.Errorf("%w: pfn %#x", ErrOwner, pfn(base+sub))
			}
			if e.Validated {
				return fmt.Errorf("%w: pfn %#x", ErrDouble, pfn(base+sub))
			}
			e.Validated = true
			t.set(pfn(base+sub), e)
		}
		t.Validations++
	}
	return nil
}

func (t *denseTable) pvalidateSkip(gpa uint64, n, ps int, asid uint32) error {
	for off := uint64(0); off < uint64(n); off += uint64(ps) {
		base := gpa + off
		did := false
		for sub := uint64(0); sub < uint64(ps) && base+sub < gpa+uint64(n); sub += PageSize {
			e := t.at(pfn(base + sub))
			if e.Assigned && e.ASID != asid {
				return fmt.Errorf("%w: pfn %#x", ErrOwner, pfn(base+sub))
			}
			if e.Assigned && e.Validated {
				continue
			}
			t.set(pfn(base+sub), Entry{ASID: asid, Assigned: true, Validated: true})
			did = true
		}
		if did {
			t.Validations++
		}
	}
	return nil
}

func (t *denseTable) CheckGuestAccessRange(gpa uint64, n int, asid uint32) error {
	for off := uint64(0); off < uint64(n); off += PageSize {
		e := t.at(pfn(gpa + off))
		if !e.Assigned || e.ASID != asid || !e.Validated {
			return fmt.Errorf("%w: gpa %#x", ErrVC, pfn(gpa+off)*PageSize)
		}
	}
	return nil
}

func (t *denseTable) CheckHostWriteRange(gpa uint64, n int) error {
	for off := uint64(0); off < uint64(n); off += PageSize {
		e := t.at(pfn(gpa + off))
		if e.Assigned {
			return fmt.Errorf("%w: gpa %#x (asid %d)", ErrHostWrite, pfn(gpa+off)*PageSize, e.ASID)
		}
	}
	return nil
}

func (t *denseTable) Remap(gpa uint64) {
	e := t.at(pfn(gpa))
	e.Validated = false
	t.set(pfn(gpa), e)
}

func (t *denseTable) Reclaim(gpa uint64) { t.set(pfn(gpa), Entry{}) }

func (t *denseTable) ReclaimRange(gpa uint64, n int) {
	for off := uint64(0); off < uint64(n); off += PageSize {
		t.Reclaim(gpa + off)
	}
}

func (t *denseTable) AssignedPages(asid uint32) int {
	n := 0
	for _, e := range t.entries {
		if e.Assigned && e.ASID == asid {
			n++
		}
	}
	return n
}
