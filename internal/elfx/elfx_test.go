package elfx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func sample() *Image {
	return &Image{
		Entry: 0x1000000,
		Segments: []Segment{
			{Type: PTLoad, Flags: 5, Vaddr: 0x1000000, Data: bytes.Repeat([]byte{0x90}, 4096)},
			{Type: PTLoad, Flags: 6, Vaddr: 0x1400000, Data: []byte("rodata"), Memsz: 8192},
			{Type: PTNote, Flags: 4, Vaddr: 0, Data: []byte("note")},
		},
	}
}

// parse reads an image produced by Build (or any plain ELF64 little-endian
// executable with a program header table).
func parse(b []byte) (*Image, error) {
	if len(b) < ehSize {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrNotELF, len(b))
	}
	if b[0] != 0x7f || b[1] != 'E' || b[2] != 'L' || b[3] != 'F' {
		return nil, fmt.Errorf("%w: bad magic", ErrNotELF)
	}
	if b[4] != 2 || b[5] != 1 {
		return nil, fmt.Errorf("%w: not 64-bit little-endian", ErrNotELF)
	}
	le := binary.LittleEndian
	if m := le.Uint16(b[18:]); m != emX8664 {
		return nil, fmt.Errorf("%w: machine %d, want x86-64", ErrNotELF, m)
	}
	img := &Image{Entry: le.Uint64(b[24:])}
	phoff := le.Uint64(b[32:])
	phentsize := int(le.Uint16(b[54:]))
	phnum := int(le.Uint16(b[56:]))
	if phentsize < phSize {
		return nil, fmt.Errorf("%w: phentsize %d too small", ErrNotELF, phentsize)
	}
	for i := 0; i < phnum; i++ {
		off := int(phoff) + i*phentsize
		if off+phSize > len(b) {
			return nil, fmt.Errorf("%w: program header %d out of range", ErrNotELF, i)
		}
		ph := b[off:]
		seg := Segment{
			Type:  le.Uint32(ph[0:]),
			Flags: le.Uint32(ph[4:]),
			Vaddr: le.Uint64(ph[16:]),
			Memsz: le.Uint64(ph[40:]),
		}
		fileOff := le.Uint64(ph[8:])
		fileSz := le.Uint64(ph[32:])
		if fileOff+fileSz > uint64(len(b)) {
			return nil, fmt.Errorf("%w: segment %d data out of range", ErrNotELF, i)
		}
		seg.Data = make([]byte, fileSz)
		copy(seg.Data, b[fileOff:fileOff+fileSz])
		img.Segments = append(img.Segments, seg)
	}
	return img, nil
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	img, err := parse(Build(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != in.Entry {
		t.Fatalf("entry %#x, want %#x", img.Entry, in.Entry)
	}
	if len(img.Segments) != len(in.Segments) {
		t.Fatalf("%d segments, want %d", len(img.Segments), len(in.Segments))
	}
	for i := range in.Segments {
		got, want := img.Segments[i], in.Segments[i]
		if got.Type != want.Type || got.Vaddr != want.Vaddr || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("segment %d mismatch", i)
		}
	}
}

func TestMemszBSS(t *testing.T) {
	img, err := parse(Build(nil, sample()))
	if err != nil {
		t.Fatal(err)
	}
	if img.Segments[1].Memsz != 8192 {
		t.Fatalf("BSS memsz %d, want 8192", img.Segments[1].Memsz)
	}
}

// TestLoadSize: what the loader places is each PT_LOAD segment's file
// bytes at its run address — the PT_NOTE is hashed with the rest of the
// file but loaded nowhere — and the regions tile the file exactly.
func TestLoadSize(t *testing.T) {
	b := Build(nil, sample())
	regions, err := FileRegions(b)
	if err != nil {
		t.Fatal(err)
	}
	var loaded []FileRegion
	next := uint64(0)
	for _, r := range regions {
		if r.Off != next {
			t.Fatalf("region at %d, want %d: regions must tile the file", r.Off, next)
		}
		next += uint64(r.Len)
		if r.Load {
			loaded = append(loaded, r)
		}
	}
	if next != uint64(len(b)) {
		t.Fatalf("regions cover %d of %d bytes", next, len(b))
	}
	segs := sample().Segments
	if len(loaded) != 2 {
		t.Fatalf("%d Load regions, want the 2 PT_LOAD segments", len(loaded))
	}
	for i, r := range loaded {
		if r.Vaddr != segs[i].Vaddr || !bytes.Equal(b[r.Off:r.Off+uint64(r.Len)], segs[i].Data) {
			t.Errorf("Load region %d = %d bytes at %#x, want segment %d's %d bytes at %#x",
				i, r.Len, r.Vaddr, i, len(segs[i].Data), segs[i].Vaddr)
		}
	}
}

func TestLoadSizeEmpty(t *testing.T) {
	regions, err := FileRegions(Build(nil, &Image{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 || regions[0].Load || regions[0].Len != ehSize {
		t.Fatalf("empty image regions = %+v, want the bare header, loaded nowhere", regions)
	}
}

func TestDeterministicBuild(t *testing.T) {
	if !bytes.Equal(Build(nil, sample()), Build(nil, sample())) {
		t.Fatal("Build is not deterministic; kernel hashes must be reproducible")
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	b := Build(nil, sample())
	b[0] = 0
	if _, err := parse(b); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestParseRejectsShort(t *testing.T) {
	if _, err := parse([]byte{0x7f, 'E', 'L', 'F'}); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestParseRejects32Bit(t *testing.T) {
	b := Build(nil, sample())
	b[4] = 1 // ELFCLASS32
	if _, err := parse(b); err == nil {
		t.Fatal("32-bit image accepted")
	}
}

func TestParseRejectsWrongMachine(t *testing.T) {
	b := Build(nil, sample())
	b[18] = 0x28 // EM_ARM
	if _, err := parse(b); err == nil {
		t.Fatal("ARM image accepted")
	}
}

func TestParseRejectsSegmentOverrun(t *testing.T) {
	b := Build(nil, sample())
	// Corrupt the first program header's file size to exceed the file.
	le := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			b[off+i] = byte(v >> (8 * i))
		}
	}
	le(ehSize+32, 1<<40) // p_filesz of first phdr
	if _, err := parse(b); err == nil {
		t.Fatal("segment overrun accepted")
	}
}

// TestHeaderAndPhdrs: the file header and program header table — the
// pieces the optimized fw_cfg protocol transfers ahead of the loadable
// segments (paper §5, steps 1-4) — are one leading region that is hashed
// and discarded, ending where the first PT_LOAD begins.
func TestHeaderAndPhdrs(t *testing.T) {
	b := Build(nil, sample())
	regions, err := FileRegions(b)
	if err != nil {
		t.Fatal(err)
	}
	head := regions[0]
	if head.Off != 0 || head.Load || head.Len < ehSize+3*phSize {
		t.Fatalf("leading region %+v, want header and 3 program headers, not loaded", head)
	}
	if !regions[1].Load || regions[1].Off != uint64(head.Len) {
		t.Fatalf("region after the headers %+v, want the first PT_LOAD at %d", regions[1], head.Len)
	}
}

func TestQuickRoundTripArbitrarySegments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(n uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		img := &Image{Entry: uint64(r.Intn(1 << 30))}
		for i := 0; i < int(n%6)+1; i++ {
			data := make([]byte, r.Intn(2000))
			r.Read(data)
			img.Segments = append(img.Segments, Segment{
				Type:  PTLoad,
				Vaddr: uint64(i) * 0x200000,
				Data:  data,
			})
		}
		got, err := parse(Build(nil, img))
		if err != nil || got.Entry != img.Entry || len(got.Segments) != len(img.Segments) {
			return false
		}
		for i := range img.Segments {
			if !bytes.Equal(got.Segments[i].Data, img.Segments[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentAlignment(t *testing.T) {
	b := Build(nil, sample())
	img, _ := parse(b)
	_ = img
	// Every segment's file offset is 16-aligned by construction; verify by
	// locating the data of segment 0 (NOP sled) in the file.
	idx := bytes.Index(b, bytes.Repeat([]byte{0x90}, 4096))
	if idx < 0 || idx%16 != 0 {
		t.Fatalf("segment 0 at offset %d, want 16-aligned", idx)
	}
}

// buildCopy is the reference Build is held to, and what it was until it
// laid the file out in place: a zeroed buffer of the file's length with
// every segment copied into it.
func buildCopy(img *Image) []byte {
	n := len(img.Segments)
	offset := uint64(ehSize + n*phSize)
	offsets := make([]uint64, n)
	for i, seg := range img.Segments {
		offset = (offset + 15) &^ 15
		offsets[i] = offset
		offset += uint64(len(seg.Data))
	}
	out := make([]byte, offset)
	copy(out, []byte{0x7f, 'E', 'L', 'F', 2, 1, 1})
	le := binary.LittleEndian
	le.PutUint16(out[16:], etExec)
	le.PutUint16(out[18:], emX8664)
	le.PutUint32(out[20:], 1)
	le.PutUint64(out[24:], img.Entry)
	le.PutUint64(out[32:], ehSize)
	le.PutUint16(out[52:], ehSize)
	le.PutUint16(out[54:], phSize)
	le.PutUint16(out[56:], uint16(n))
	for i, seg := range img.Segments {
		ph := out[ehSize+i*phSize:]
		le.PutUint32(ph[0:], seg.Type)
		le.PutUint32(ph[4:], seg.Flags)
		le.PutUint64(ph[8:], offsets[i])
		le.PutUint64(ph[16:], seg.Vaddr)
		le.PutUint64(ph[24:], seg.Vaddr)
		le.PutUint64(ph[32:], uint64(len(seg.Data)))
		le.PutUint64(ph[40:], max(seg.Memsz, uint64(len(seg.Data))))
		le.PutUint64(ph[48:], 16)
		copy(out[offsets[i]:], seg.Data)
	}
	return out
}

// TestBuildInPlace: every image — the sample, the empty one, segments of
// odd lengths — is the reference's bytes when Build has to allocate, and
// when a generator wrote the segments back to back into a buffer holding
// stale bytes, from the first segment's offset or from the front of the
// buffer, Build lays the same bytes out in that buffer with only the offset
// table allocated: the data shifted into place and every header and gap
// byte written over.
func TestBuildInPlace(t *testing.T) {
	images := []*Image{sample(), {}}
	rng := rand.New(rand.NewSource(3))
	for _, sizes := range [][]int{{4096, 6, 1 << 20}, {1, 2, 3, 17}, {0, 33, 0}} {
		img := &Image{Entry: 0x1000000}
		for i, n := range sizes {
			data := make([]byte, n)
			rng.Read(data)
			img.Segments = append(img.Segments, Segment{Type: PTLoad, Flags: 5, Vaddr: uint64(i+1) << 24, Data: data, Memsz: uint64(n) + 64})
		}
		images = append(images, img)
	}
	for _, img := range images {
		n := len(img.Segments)
		want := buildCopy(img)
		if got := Build(make([]byte, 0, len(want)-1), img); !bytes.Equal(got, want) {
			t.Errorf("%d segments: a Build into a short buffer differs from the reference", n)
		}
		for _, from := range []int{0, ehSize + n*phSize} {
			buf := make([]byte, len(want))
			inPlace := &Image{Entry: img.Entry, Segments: append([]Segment(nil), img.Segments...)}
			var got []byte
			generate := func() {
				for i := range buf {
					buf[i] = 0xAA // stale bytes Build must write over
				}
				at := from
				for i := range inPlace.Segments {
					inPlace.Segments[i].Data = buf[at : at+copy(buf[at:], img.Segments[i].Data)]
					at += len(inPlace.Segments[i].Data)
				}
				got = Build(buf, inPlace)
			}
			if allocs := testing.AllocsPerRun(1, generate); allocs > 1 {
				t.Errorf("%d segments from %d: Build into a buffer with room allocates %v times, want the offset table only", n, from, allocs)
			}
			if !bytes.Equal(got, want) || &got[0] != &buf[0] {
				t.Errorf("%d segments from %d: the in-place file differs from the reference, or is not laid out in buf", n, from)
			}
		}
	}
}
