package rmp

import (
	"errors"
	"testing"
)

// PvalidateRange validates [gpa, gpa+n) in pageSize steps, modeling
// validation with either 4 KiB or 2 MiB granularity. The RMP itself is
// tracked at 4 KiB granularity; a 2 MiB pvalidate validates 512 entries
// with a single instruction (one Validations tick).
func (t *Table) PvalidateRange(gpa uint64, n int, pageSize int, asid uint32) error {
	_, err := t.PvalidateSpan(gpa, n, asid, SpanOptions{PageSize: pageSize})
	return err
}

func TestZeroStateIsHypervisorOwned(t *testing.T) {
	tb := New()
	e := tb.Lookup(0x1000)
	if e.Assigned || e.Validated {
		t.Fatal("fresh table should be hypervisor-owned and unvalidated")
	}
	if err := tb.CheckHostWrite(0x1000); err != nil {
		t.Fatalf("host write to unassigned page blocked: %v", err)
	}
}

func TestAssignBlocksHostWrite(t *testing.T) {
	tb := New()
	tb.Assign(0x2000, 7)
	if err := tb.CheckHostWrite(0x2000); !errors.Is(err, ErrHostWrite) {
		t.Fatalf("host write to assigned page: err = %v, want ErrHostWrite", err)
	}
	// Neighbouring page unaffected.
	if err := tb.CheckHostWrite(0x3000); err != nil {
		t.Fatalf("neighbour page blocked: %v", err)
	}
}

func TestPvalidateFlow(t *testing.T) {
	tb := New()
	tb.Assign(0x4000, 3)
	if err := tb.CheckGuestAccess(0x4000, 3); !errors.Is(err, ErrVC) {
		t.Fatalf("pre-pvalidate access: err = %v, want ErrVC", err)
	}
	if err := tb.Pvalidate(0x4000, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckGuestAccess(0x4000, 3); err != nil {
		t.Fatalf("post-pvalidate access failed: %v", err)
	}
	if tb.Validations != 1 {
		t.Fatalf("Validations = %d, want 1", tb.Validations)
	}
}

func TestPvalidateWrongOwner(t *testing.T) {
	tb := New()
	tb.Assign(0x4000, 3)
	if err := tb.Pvalidate(0x4000, 4); !errors.Is(err, ErrOwner) {
		t.Fatalf("cross-guest pvalidate: err = %v, want ErrOwner", err)
	}
	if err := tb.Pvalidate(0x8000, 3); !errors.Is(err, ErrOwner) {
		t.Fatalf("pvalidate of unassigned page: err = %v, want ErrOwner", err)
	}
}

func TestPvalidateDoubleRejected(t *testing.T) {
	tb := New()
	tb.Assign(0x4000, 3)
	if err := tb.Pvalidate(0x4000, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.Pvalidate(0x4000, 3); !errors.Is(err, ErrDouble) {
		t.Fatalf("double pvalidate: err = %v, want ErrDouble", err)
	}
}

func TestAssignValidatedSkipsPvalidate(t *testing.T) {
	tb := New()
	tb.AssignValidated(0x5000, 9)
	if err := tb.CheckGuestAccess(0x5000, 9); err != nil {
		t.Fatalf("launch-updated page not accessible: %v", err)
	}
}

func TestRemapClearsValidated(t *testing.T) {
	tb := New()
	tb.AssignValidated(0x6000, 2)
	tb.Remap(0x6000)
	if err := tb.CheckGuestAccess(0x6000, 2); !errors.Is(err, ErrVC) {
		t.Fatalf("access after remap: err = %v, want ErrVC (paper §2.2)", err)
	}
	// Ownership retained: host still cannot write.
	if err := tb.CheckHostWrite(0x6000); !errors.Is(err, ErrHostWrite) {
		t.Fatalf("host write after remap: err = %v, want ErrHostWrite", err)
	}
}

func TestCrossGuestAccessIsVC(t *testing.T) {
	tb := New()
	tb.AssignValidated(0x7000, 1)
	if err := tb.CheckGuestAccess(0x7000, 2); !errors.Is(err, ErrVC) {
		t.Fatalf("cross-guest access: err = %v, want ErrVC", err)
	}
}

func TestPvalidateRange4K(t *testing.T) {
	tb := New()
	const base, n = 0x10000, 16 * PageSize
	for off := 0; off < n; off += PageSize {
		tb.Assign(base+uint64(off), 5)
	}
	if err := tb.PvalidateRange(base, n, PageSize, 5); err != nil {
		t.Fatal(err)
	}
	if tb.Validations != 16 {
		t.Fatalf("Validations = %d, want 16 (one per 4 KiB page)", tb.Validations)
	}
	for off := 0; off < n; off += PageSize {
		if err := tb.CheckGuestAccess(base+uint64(off), 5); err != nil {
			t.Fatalf("page at +%#x not validated: %v", off, err)
		}
	}
}

func TestPvalidateRangeHugePages(t *testing.T) {
	tb := New()
	const base = 0x200000
	n := 2 << 20 // one 2 MiB huge page covers 512 RMP entries
	for off := 0; off < n; off += PageSize {
		tb.Assign(base+uint64(off), 5)
	}
	if err := tb.PvalidateRange(base, n, 2<<20, 5); err != nil {
		t.Fatal(err)
	}
	if tb.Validations != 1 {
		t.Fatalf("Validations = %d, want 1 (single 2 MiB pvalidate)", tb.Validations)
	}
	// All 512 sub-pages must still be validated.
	for off := 0; off < n; off += PageSize {
		if err := tb.CheckGuestAccess(base+uint64(off), 5); err != nil {
			t.Fatalf("sub-page at +%#x not validated: %v", off, err)
		}
	}
	// A partial tail block is one more 2 MiB instruction.
	tb = New()
	ops, err := tb.PvalidateSpan(0, n+3*PageSize, 1, SpanOptions{PageSize: 2 << 20, SkipValidated: true})
	if err != nil || ops != 2 {
		t.Fatalf("huge + tail: ops=%d err=%v, want 2, nil", ops, err)
	}
}

func TestPvalidateRangePartialTail(t *testing.T) {
	tb := New()
	const base = 0x0
	n := PageSize + 100 // 1.02 pages
	for off := 0; off < 2*PageSize; off += PageSize {
		tb.Assign(base+uint64(off), 5)
	}
	if err := tb.PvalidateRange(base, n, PageSize, 5); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckGuestAccess(base+PageSize, 5); err != nil {
		t.Fatalf("tail page not validated: %v", err)
	}
}

func TestReclaim(t *testing.T) {
	tb := New()
	tb.AssignValidated(0x9000, 4)
	tb.Reclaim(0x9000)
	if err := tb.CheckHostWrite(0x9000); err != nil {
		t.Fatalf("reclaimed page still blocked: %v", err)
	}
}

func TestAssignedPages(t *testing.T) {
	tb := New()
	for i := 0; i < 5; i++ {
		tb.Assign(uint64(i)*PageSize, 1)
	}
	tb.Assign(0x100000, 2)
	if got := tb.AssignedPages(1); got != 5 {
		t.Fatalf("AssignedPages(1) = %d, want 5", got)
	}
	if got := tb.AssignedPages(2); got != 1 {
		t.Fatalf("AssignedPages(2) = %d, want 1", got)
	}
}
