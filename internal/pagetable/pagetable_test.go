package pagetable

import (
	"testing"
	"testing/quick"
)

func cfg(setC bool) Config {
	return Config{Base: 0x9000, MapSize: 1 << 30, SetCBit: setC}
}

func TestBuildSize(t *testing.T) {
	table := Build(cfg(true))
	if len(table) != TotalSize {
		t.Fatalf("table %d bytes, want %d", len(table), TotalSize)
	}
}

func TestIdentityMapping(t *testing.T) {
	table := Build(cfg(true))
	for _, va := range []uint64{0, 0x1000, 0x200000, 0x12345678, 1<<30 - 1} {
		pa, _, err := Walk(table, cfg(true), va)
		if err != nil {
			t.Fatalf("walk %#x: %v", va, err)
		}
		if pa != va {
			t.Fatalf("walk %#x resolved to %#x; identity map broken", va, pa)
		}
	}
}

func TestCBitSetEverywhere(t *testing.T) {
	table := Build(cfg(true))
	for va := uint64(0); va < 1<<30; va += 64 << 20 {
		_, cbit, err := Walk(table, cfg(true), va)
		if err != nil {
			t.Fatal(err)
		}
		if !cbit {
			t.Fatalf("C-bit missing in mapping of %#x", va)
		}
	}
}

func TestCBitClearForNonSEV(t *testing.T) {
	table := Build(cfg(false))
	_, cbit, err := Walk(table, cfg(false), 0x200000)
	if err != nil {
		t.Fatal(err)
	}
	if cbit {
		t.Fatal("non-SEV table has C-bit set")
	}
}

func TestPartialMapSize(t *testing.T) {
	c := Config{Base: 0, MapSize: 256 << 20, SetCBit: true}
	table := Build(c)
	if _, _, err := Walk(table, c, 255<<20); err != nil {
		t.Fatalf("mapped address failed: %v", err)
	}
	if _, _, err := Walk(table, c, 512<<20); err == nil {
		t.Fatal("address beyond MapSize resolved")
	}
}

func TestMapSizeRoundsUpTo2MiB(t *testing.T) {
	c := Config{Base: 0, MapSize: 3 << 20, SetCBit: false} // 1.5 huge pages
	table := Build(c)
	if _, _, err := Walk(table, c, 3<<20+100); err != nil {
		t.Fatalf("round-up region not mapped: %v", err)
	}
}

func TestWalkUnmappedHighAddress(t *testing.T) {
	table := Build(cfg(true))
	if _, _, err := Walk(table, cfg(true), 1<<39); err == nil {
		t.Fatal("PML4[1] walk should fail: only entry 0 is populated")
	}
}

func TestCBitFromCPUID(t *testing.T) {
	// EPYC Milan: EAX bit 1 set, EBX[5:0] = 51.
	on, pos := CBitFromCPUID(0b10, 51)
	if !on || pos != 51 {
		t.Fatalf("CPUID decode: on=%v pos=%d", on, pos)
	}
	off, _ := CBitFromCPUID(0, 51)
	if off {
		t.Fatal("SEV reported enabled with EAX bit clear")
	}
}

func TestQuickIdentityProperty(t *testing.T) {
	table := Build(cfg(true))
	f := func(va uint32) bool {
		v := uint64(va) % (1 << 30)
		pa, cbit, err := Walk(table, cfg(true), v)
		return err == nil && pa == v && cbit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPDSizeMatchesFig7(t *testing.T) {
	// Fig. 7: "page tables" struct size 4 KiB (the PD mapping 1 GiB with
	// 2 MiB pages), generator code ~2.4 KiB.
	if PDSize != 4096 {
		t.Fatalf("PDSize = %d", PDSize)
	}
	if GeneratorCodeSize < 2000 || GeneratorCodeSize > 3000 {
		t.Fatalf("GeneratorCodeSize = %d, want ~2.4K", GeneratorCodeSize)
	}
}
