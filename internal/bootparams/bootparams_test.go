package bootparams

import "testing"

func sample() Params {
	return Params{
		CmdlinePtr:   0x20000,
		CmdlineSize:  155,
		RamdiskImage: 0x4000000,
		RamdiskSize:  16 << 20,
		E820:         StandardE820(256 << 20),
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	b, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != Size {
		t.Fatalf("zero page %d bytes, want %d", len(b), Size)
	}
	out, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.CmdlinePtr != in.CmdlinePtr || out.CmdlineSize != in.CmdlineSize {
		t.Fatalf("cmdline fields: %+v", out)
	}
	if out.RamdiskImage != in.RamdiskImage || out.RamdiskSize != in.RamdiskSize {
		t.Fatalf("ramdisk fields: %+v", out)
	}
	if len(out.E820) != len(in.E820) {
		t.Fatalf("e820 count %d, want %d", len(out.E820), len(in.E820))
	}
	for i := range in.E820 {
		if out.E820[i] != in.E820[i] {
			t.Fatalf("e820[%d] = %+v, want %+v", i, out.E820[i], in.E820[i])
		}
	}
}

func TestStandardE820Coverage(t *testing.T) {
	const mem = 256 << 20
	// Regions must be sorted and non-overlapping.
	var end, usable uint64
	for _, e := range StandardE820(mem) {
		if e.Addr < end {
			t.Fatalf("overlapping e820 at %#x", e.Addr)
		}
		end = e.Addr + e.Size
		if e.Type == E820Usable {
			usable += e.Size
		}
	}
	// Everything except the legacy hole is usable.
	if usable < mem-(1<<20) || usable > mem {
		t.Fatalf("usable = %d of %d", usable, mem)
	}
}

func TestParseRejectsMissingMirror(t *testing.T) {
	b, _ := Build(sample())
	b[offHdrMagic] = 0
	if _, err := Parse(b); err == nil {
		t.Fatal("missing HdrS mirror accepted")
	}
}

func TestParseRejectsShort(t *testing.T) {
	if _, err := Parse(make([]byte, 100)); err == nil {
		t.Fatal("short zero page accepted")
	}
}

func TestParseRejectsBadE820Count(t *testing.T) {
	b, _ := Build(sample())
	b[offE820Entries] = 200
	if _, err := Parse(b); err == nil {
		t.Fatal("oversized e820 count accepted")
	}
}

func TestBuildRejectsTooManyE820(t *testing.T) {
	p := sample()
	p.E820 = make([]E820Entry, maxE820+1)
	if _, err := Build(p); err == nil {
		t.Fatal("too many e820 entries accepted")
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, _ := Build(sample())
	b, _ := Build(sample())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("boot_params not deterministic; it is pre-encrypted and measured")
		}
	}
}

func TestFig7StructAndCodeSizes(t *testing.T) {
	// Fig. 7: boot_params spans a 4 KiB page; generating it needs ~5 KiB
	// of code, so SEVeriFast pre-encrypts the structure.
	if Size != 4096 {
		t.Fatalf("Size = %d", Size)
	}
	if GeneratorCodeSize <= Size {
		t.Fatal("generator code must exceed struct size (that is the pre-encrypt rationale)")
	}
}
