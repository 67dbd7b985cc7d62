package expt

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/kernelgen"
)

// fastOpts keeps unit tests quick: lupine only, small initrd, few runs.
func fastOpts() Options {
	return Options{
		Runs:       3,
		Seed:       7,
		Presets:    []kernelgen.Preset{kernelgen.Lupine()},
		InitrdSize: 2 << 20,
	}
}

// parse "123.45ms" back to a duration.
func parseMS(t *testing.T, s string) time.Duration {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return time.Duration(v * float64(time.Millisecond))
}

func findRow(t *testing.T, tab *Table, prefix ...string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		ok := true
		for i, p := range prefix {
			if i >= len(row) || row[i] != p {
				ok = false
				break
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("table %q has no row %v:\n%s", tab.Title, prefix, tab)
	return nil
}

func TestFig3VerifierIsSmallSlice(t *testing.T) {
	tab, err := Fig3(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := parseMS(t, findRow(t, tab, "TOTAL")[1])
	verify := parseMS(t, findRow(t, tab, "boot verifier")[1])
	dxe := parseMS(t, findRow(t, tab, "DXE")[1])
	if total < 3*time.Second {
		t.Fatalf("OVMF total %v, want >3s", total)
	}
	if float64(verify)/float64(total) > 0.05 {
		t.Fatalf("verifier %v is not a small slice of %v", verify, total)
	}
	if dxe < time.Second {
		t.Fatalf("DXE %v should dominate the firmware phases", dxe)
	}
}

func TestFig4LinearAndProhibitive(t *testing.T) {
	tab, err := Fig4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 23 MiB (the Lupine vmlinux) must land near the paper's 5.65 s.
	row := findRow(t, tab, "23.0M")
	snp := parseMS(t, row[3])
	if snp < 5300*time.Millisecond || snp > 6000*time.Millisecond {
		t.Fatalf("pre-encrypting 23 MiB took %v, paper says 5.65 s", snp)
	}
	// Linearity: value at 43 MiB ~= (43/23)x value at 23 MiB.
	row43 := findRow(t, tab, "43.0M")
	snp43 := parseMS(t, row43[3])
	ratio := float64(snp43) / float64(snp)
	if ratio < 1.7 || ratio > 2.1 {
		t.Fatalf("43/23 MiB ratio %.2f, want ~1.87 (linear)", ratio)
	}
}

func TestFig5LZ4KernelWinsRawInitrdWins(t *testing.T) {
	tab, err := Fig5(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := func(name string) time.Duration {
		return parseMS(t, findRow(t, tab, name)[5])
	}
	lz := total("lupine/bzImage-lz4")
	vm := total("lupine/vmlinux")
	gz := total("lupine/bzImage-gzip")
	if !(lz < vm && lz < gz) {
		t.Fatalf("LZ4 bzImage (%v) must beat vmlinux (%v) and gzip (%v)", lz, vm, gz)
	}
	raw := total("initrd/raw")
	lzInitrd := total("initrd/lz4")
	if raw >= lzInitrd {
		t.Fatalf("raw initrd (%v) must beat compressed (%v); binaries compress poorly", raw, lzInitrd)
	}
}

func TestFig7Table(t *testing.T) {
	tab, err := Fig7(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tab.Rows))
	}
	if findRow(t, tab, "page tables")[4] != "generate" {
		t.Fatal("page tables must be generated, not pre-encrypted")
	}
	for _, name := range []string{"mptable", "cmdline", "boot_params"} {
		if findRow(t, tab, name)[4] != "pre-encrypt" {
			t.Fatalf("%s must be pre-encrypted", name)
		}
	}
}

func TestFig8Sizes(t *testing.T) {
	tab, err := Fig8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	row := findRow(t, tab, "lupine")
	if row[1] != "23.0M" {
		t.Fatalf("lupine vmlinux cell %q", row[1])
	}
}

// TestFig9HeadlineReduction is the paper's abstract claim: SEVeriFast
// boots SEV VMs 86-93% faster than the QEMU/OVMF baseline. Our simulator
// must land in (or very near) that band.
func TestFig9HeadlineReduction(t *testing.T) {
	opts := fastOpts()
	opts.Runs = 2
	data, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := findRow(t, data.Table, "lupine", "severifast")
	red := row[6]
	val, err := strconv.ParseFloat(strings.TrimSuffix(red, "%"), 64)
	if err != nil {
		t.Fatalf("reduction cell %q", red)
	}
	if val < 83 || val > 97 {
		t.Fatalf("boot-time reduction %.1f%%, paper band is 86-93%%", val)
	}
	if len(data.CDFs["lupine/severifast"]) != 2 {
		t.Fatal("missing CDF series")
	}
}

func TestFig9JitterSpreadsCDF(t *testing.T) {
	opts := fastOpts()
	opts.Runs = 4
	opts.Jitter = true
	data, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := data.CDFs["lupine/severifast"]
	if s.Stddev() == 0 {
		t.Fatal("jittered runs have zero variance")
	}
}

func TestFig10PreEncryptionGap(t *testing.T) {
	tab, err := Fig10(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := parseMS(t, findRow(t, tab, "qemu-ovmf lupine")[1])
	s := parseMS(t, findRow(t, tab, "severifast lupine")[1])
	// Paper: 287.9 ms vs 8.07 ms — a ~97% reduction.
	if red := 1 - float64(s)/float64(q); red < 0.90 {
		t.Fatalf("pre-encryption reduction %.2f, paper says ~0.97 (q=%v s=%v)", red, q, s)
	}
	qf := parseMS(t, findRow(t, tab, "qemu-ovmf lupine")[2])
	sf := parseMS(t, findRow(t, tab, "severifast lupine")[2])
	// Paper: 3168 ms vs 20.4 ms firmware runtime — ~98%.
	if red := 1 - float64(sf)/float64(qf); red < 0.95 {
		t.Fatalf("firmware reduction %.2f, paper says ~0.98", red)
	}
}

func TestFig11ShapeHolds(t *testing.T) {
	tab, err := Fig11(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	stock := parseMS(t, findRow(t, tab, "lupine", "stock-fc")[6])
	bz := parseMS(t, findRow(t, tab, "lupine", "severifast")[6])
	vm := parseMS(t, findRow(t, tab, "lupine", "severifast-vmlinux")[6])
	// SEV costs real time: paper says ~4x stock for AWS; allow 2-6x here.
	ratio := float64(bz) / float64(stock)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("SEVeriFast/stock ratio %.2f, paper says ~4x", ratio)
	}
	// The bzImage flavour must win against vmlinux under SEV.
	if bz >= vm {
		t.Fatalf("bzImage (%v) not faster than vmlinux (%v)", bz, vm)
	}
	// Stock boots in tens of ms.
	if stock > 80*time.Millisecond {
		t.Fatalf("stock boot %v", stock)
	}
}

func TestFig12LinearForSEVFlatForStock(t *testing.T) {
	opts := fastOpts()
	opts.ConcurrencyPoints = []int{1, 4, 8}
	tab, err := Fig12(opts)
	if err != nil {
		t.Fatal(err)
	}
	sevf1 := parseMS(t, findRow(t, tab, "1")[1])
	sevf8 := parseMS(t, findRow(t, tab, "8")[1])
	stock1 := parseMS(t, findRow(t, tab, "1")[3])
	stock8 := parseMS(t, findRow(t, tab, "8")[3])
	if sevf8-sevf1 < 100*time.Millisecond {
		t.Fatalf("SEV series grew only %v from 1 to 8 guests; PSP serialization missing", sevf8-sevf1)
	}
	if stock8-stock1 > 5*time.Millisecond {
		t.Fatalf("non-SEV series grew %v; must stay flat", stock8-stock1)
	}
	// SEVeriFast stays under QEMU even under contention.
	qemu8 := parseMS(t, findRow(t, tab, "8")[2])
	if sevf8 >= qemu8 {
		t.Fatalf("SEVeriFast at 8 (%v) not below QEMU at 8 (%v)", sevf8, qemu8)
	}
}

// TestConcurrencySlopeNearPSPWork fits the per-VM cost of Fig. 12's SEV
// series between two concurrency points: the paper's observation that the
// slope equals the total PSP launch-command time per guest (commands from
// different guests interleave on the PSP FIFO, so every guest's launch
// completes only after nearly all N guests' worth of PSP work).
func TestConcurrencySlopeNearPSPWork(t *testing.T) {
	opts := fastOpts()
	mean := func(n int) time.Duration {
		m, err := concurrentMean(opts, kernelgen.AWS(), schemeSEVeriFast, n)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	slope := (mean(6) - mean(2)) / 4
	// Per-guest PSP work: guest init (~20ms) + launch commands (~10ms).
	if slope < 20*time.Millisecond || slope > 45*time.Millisecond {
		t.Fatalf("per-VM slope %v, want ~30ms (the guest's total PSP time)", slope)
	}
}

func TestMemoryFootprintTable(t *testing.T) {
	tab, err := MemoryFootprint(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 4 {
		t.Fatalf("footprint table too short:\n%s", tab)
	}
}

func TestAblationOutOfBandHashing(t *testing.T) {
	tab, err := AblationOutOfBandHashing(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	saved := parseMS(t, findRow(t, tab, "lupine")[3])
	if saved <= 0 {
		t.Fatalf("out-of-band hashing saved %v; must be positive", saved)
	}
}

func TestAblationPreEncryptPageTables(t *testing.T) {
	tab, err := AblationPreEncryptPageTables(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	row := findRow(t, tab, "lupine")
	gen := parseMS(t, row[3])
	pre := parseMS(t, row[4])
	if pre <= gen {
		t.Fatal("pre-encrypting page tables must cost more pre-encryption time")
	}
}

func TestAblationHugePages(t *testing.T) {
	tab, err := AblationHugePages(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	delta := parseMS(t, findRow(t, tab, "lupine")[3])
	if delta < 50*time.Millisecond {
		t.Fatalf("4 KiB pvalidate penalty %v, paper says ~60ms for 256 MiB", delta)
	}
}

func TestRootOfTrustTable(t *testing.T) {
	tab, err := RootOfTrust(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	if !strings.Contains(s, "## T") || !strings.Contains(s, "a  bb") {
		t.Fatalf("render:\n%s", s)
	}
	csv := tab.CSV()
	if csv != "a,bb\n1,2\n" {
		t.Fatalf("csv: %q", csv)
	}
}

func TestWarmStartExperiment(t *testing.T) {
	tab, err := WarmStart(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Both configurations must warm-start faster than they cold-boot.
	for _, row := range tab.Rows {
		cold := parseMS(t, row[1])
		warm := parseMS(t, row[2])
		if warm >= cold {
			t.Fatalf("%s: warm %v >= cold %v", row[0], warm, cold)
		}
	}
	// Dedup: plain guests share most pages, SEV guests none.
	plain := findRow(t, tab, "stock-fc (no sev)")
	sevRow := findRow(t, tab, "severifast-snp (shared key)")
	if plain[4] == "0% shared" {
		t.Fatal("plain snapshots should dedup")
	}
	if sevRow[4] != "0% of private pages shared" {
		t.Fatalf("SEV private pages deduped: %s", sevRow[4])
	}
}

func TestServerlessExperiment(t *testing.T) {
	opts := fastOpts()
	tab, err := Serverless(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	plain := parseMS(t, findRow(t, tab, "plain")[3])
	cold := parseMS(t, findRow(t, tab, "sev-cold")[3])
	warm := parseMS(t, findRow(t, tab, "sev-warm")[3])
	if !(plain < warm && warm < cold) {
		t.Fatalf("p99 startup ordering wrong: plain %v, warm %v, cold %v", plain, warm, cold)
	}
}
