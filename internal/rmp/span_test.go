package rmp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// checkEqual compares the span table against the dense reference entry by
// entry across the whole universe, plus the Validations counter.
func checkEqual(t *testing.T, step string, st *Table, dt *denseTable, pfns uint64) {
	t.Helper()
	for n := uint64(0); n < pfns; n++ {
		if got, want := st.at(n).entry(), dt.at(n); got != want {
			t.Fatalf("%s: pfn %#x: span %+v, dense %+v", step, n, got, want)
		}
	}
	if st.Validations != dt.Validations {
		t.Fatalf("%s: Validations: span %d, dense %d", step, st.Validations, dt.Validations)
	}
}

// checkErrEqual requires the same error value down to the formatted
// first-failing-pfn message.
func checkErrEqual(t *testing.T, step string, se, de error) {
	t.Helper()
	if (se == nil) != (de == nil) {
		t.Fatalf("%s: span err %v, dense err %v", step, se, de)
	}
	if se != nil && se.Error() != de.Error() {
		t.Fatalf("%s: span err %q, dense err %q", step, se, de)
	}
}

// TestSpanDenseDifferential drives both implementations through long
// randomized operation sequences and requires bit-identical state,
// Validations counts, tick deltas, and errors after every single op.
func TestSpanDenseDifferential(t *testing.T) {
	const pfns = 1536 // 6 MiB universe: big enough for 2 MiB blocks to straddle spans
	pageSizes := []int{PageSize, 4 * PageSize, 2 << 20}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st, dt := New(), &denseTable{}
			for op := 0; op < 400; op++ {
				gpa := uint64(rng.Intn(pfns)) * PageSize
				n := rng.Intn(64*PageSize) + 1
				if rng.Intn(4) == 0 {
					n = rng.Intn(3 << 20) // long ranges cross many spans
				}
				if gpa+uint64(n) > pfns*PageSize {
					n = int(pfns*PageSize - gpa)
				}
				asid := uint32(rng.Intn(3) + 1)
				ps := pageSizes[rng.Intn(len(pageSizes))]
				step := fmt.Sprintf("op %d", op)
				switch rng.Intn(12) {
				case 0:
					st.Assign(gpa, asid)
					dt.Assign(gpa, asid)
				case 1:
					st.AssignValidated(gpa, asid)
					dt.AssignValidated(gpa, asid)
				case 2:
					st.AssignRange(gpa, n, asid)
					dt.AssignRange(gpa, n, asid)
					step += " AssignRange"
				case 3:
					st.AssignValidatedRange(gpa, n, asid)
					dt.AssignValidatedRange(gpa, n, asid)
					step += " AssignValidatedRange"
				case 4:
					checkErrEqual(t, step+" Pvalidate", st.Pvalidate(gpa, asid), dt.Pvalidate(gpa, asid))
				case 5, 6:
					opts := SpanOptions{PageSize: ps, SkipValidated: rng.Intn(2) == 0}
					step += fmt.Sprintf(" PvalidateSpan(gpa=%#x n=%#x ps=%#x asid=%d %+v)", gpa, n, ps, asid, opts)
					so, se := st.PvalidateSpan(gpa, n, asid, opts)
					do, de := dt.PvalidateSpan(gpa, n, asid, opts)
					checkErrEqual(t, step, se, de)
					if so != do {
						t.Fatalf("%s: ops: span %d, dense %d", step, so, do)
					}
				case 7:
					checkErrEqual(t, step+" CheckGuestAccessRange",
						st.CheckGuestAccessRange(gpa, n, asid), dt.CheckGuestAccessRange(gpa, n, asid))
				case 8:
					checkErrEqual(t, step+" CheckHostWriteRange",
						st.CheckHostWriteRange(gpa, n), dt.CheckHostWriteRange(gpa, n))
				case 9:
					st.Remap(gpa)
					dt.Remap(gpa)
				case 10:
					st.ReclaimRange(gpa, n)
					dt.ReclaimRange(gpa, n)
					step += " ReclaimRange"
				case 11:
					if got, want := st.AssignedPages(asid), dt.AssignedPages(asid); got != want {
						t.Fatalf("%s: AssignedPages(%d): span %d, dense %d", step, asid, got, want)
					}
				}
				checkEqual(t, step, st, dt, pfns)
			}
		})
	}
}

// TestPvalidateSpanCrossSpanBoundary validates a range stitched from
// three differently-sourced spans (launch-validated, assigned-only, and
// untouched) — the lazy walk must skip the first, validate the rest, and
// coalesce everything into a single run.
func TestPvalidateSpanCrossSpanBoundary(t *testing.T) {
	tb := New()
	tb.AssignValidatedRange(0x10000, 4*PageSize, 5) // PSP pre-validated
	tb.AssignRange(0x14000, 4*PageSize, 5)          // assigned, not validated
	// 0x18000.. untouched (hypervisor-owned)
	ops, err := tb.PvalidateSpan(0x10000, 12*PageSize, 5, SpanOptions{PageSize: PageSize, SkipValidated: true})
	if err != nil {
		t.Fatal(err)
	}
	if ops != 8 {
		t.Fatalf("ops = %d, want 8 (4 pre-validated pages skipped)", ops)
	}
	if err := tb.CheckGuestAccessRange(0x10000, 12*PageSize, 5); err != nil {
		t.Fatal(err)
	}
	if tb.spanCount() != 1 {
		t.Fatalf("spans = %d, want 1 (fully coalesced)", tb.spanCount())
	}
}

// TestPvalidateSpanAlreadyValidated pins both modes against a fully
// validated range: lazy mode is a free no-op, uniform mode fails with
// ErrDouble naming the first pfn.
func TestPvalidateSpanAlreadyValidated(t *testing.T) {
	tb := New()
	tb.AssignValidatedRange(0x40000, 8*PageSize, 3)
	ops, err := tb.PvalidateSpan(0x40000, 8*PageSize, 3, SpanOptions{SkipValidated: true})
	if err != nil || ops != 0 {
		t.Fatalf("lazy revalidate: ops=%d err=%v, want 0, nil", ops, err)
	}
	_, err = tb.PvalidateSpan(0x40000, 8*PageSize, 3, SpanOptions{})
	if !errors.Is(err, ErrDouble) {
		t.Fatalf("uniform revalidate: err = %v, want ErrDouble", err)
	}
	if want := fmt.Sprintf("pfn %#x", uint64(0x40)); err == nil || !contains(err.Error(), want) {
		t.Fatalf("error %q does not name first pfn (%s)", err, want)
	}
}

// TestPvalidateSpanWrongASIDMidRange plants a foreign-owned page in the
// middle of the range: the walk must validate everything before it, tick
// only completed blocks, leave everything after untouched, and name the
// foreign pfn.
func TestPvalidateSpanWrongASIDMidRange(t *testing.T) {
	tb := New()
	tb.Assign(0x5000, 9) // pfn 5 belongs to guest 9
	ops, err := tb.PvalidateSpan(0, 16*PageSize, 2, SpanOptions{SkipValidated: true})
	if !errors.Is(err, ErrOwner) {
		t.Fatalf("err = %v, want ErrOwner", err)
	}
	if !contains(err.Error(), "pfn 0x5") {
		t.Fatalf("error %q does not name the foreign pfn", err)
	}
	if ops != 5 {
		t.Fatalf("ops = %d, want 5 (pages 0-4 validated before the fault)", ops)
	}
	for n := uint64(0); n < 5; n++ {
		if err := tb.CheckGuestAccess(n*PageSize, 2); err != nil {
			t.Fatalf("prefix page %d not validated: %v", n, err)
		}
	}
	if e := tb.Lookup(0x5000); e.ASID != 9 || e.Validated {
		t.Fatalf("foreign page mutated: %+v", e)
	}
	if e := tb.Lookup(0x6000); e.Assigned {
		t.Fatalf("page after the fault mutated: %+v", e)
	}
}

// TestSpanCountStaysSmall: validating a 40 MiB image region by region
// must leave tens of spans at most, not thousands of entries.
func TestSpanCountStaysSmall(t *testing.T) {
	tb := New()
	asid := uint32(1)
	gpa := uint64(0)
	for i := 0; i < 10; i++ { // ten 4 MiB regions, launch-update style
		tb.AssignValidatedRange(gpa, 4<<20, asid)
		gpa += 4 << 20
	}
	if _, err := tb.PvalidateSpan(0, int(gpa), asid, SpanOptions{PageSize: 2 << 20, SkipValidated: true}); err != nil {
		t.Fatal(err)
	}
	if tb.spanCount() != 1 {
		t.Fatalf("spans = %d, want 1 after contiguous launch", tb.spanCount())
	}
	if got := tb.AssignedPages(asid); got != int(gpa/PageSize) {
		t.Fatalf("AssignedPages = %d, want %d", got, gpa/PageSize)
	}
}

// TestRangeOpsZeroLength: zero and negative lengths are no-ops.
func TestRangeOpsZeroLength(t *testing.T) {
	tb := New()
	tb.AssignRange(0x1000, 0, 1)
	tb.AssignValidatedRange(0x1000, -5, 1)
	tb.ReclaimRange(0x1000, 0)
	if ops, err := tb.PvalidateSpan(0x1000, 0, 1, SpanOptions{}); ops != 0 || err != nil {
		t.Fatalf("zero-length pvalidate: ops=%d err=%v", ops, err)
	}
	if err := tb.CheckGuestAccessRange(0x1000, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckHostWriteRange(0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if tb.spanCount() != 0 {
		t.Fatalf("spans = %d, want 0", tb.spanCount())
	}
}

// spanCount is how many coalesced runs the table holds (a healthy boot
// stays in the tens regardless of image size).
func (t *Table) spanCount() int { return len(t.spans) }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
