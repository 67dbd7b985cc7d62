package cpio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() []File {
	return []File{
		{Name: "init", Mode: ModeExec, Data: []byte("#!/bin/sh\nexec /bin/attest-agent\n")},
		{Name: "bin", Mode: ModeDir},
		{Name: "bin/attest-agent", Mode: ModeExec, Data: bytes.Repeat([]byte{0x90}, 1000)},
		{Name: "etc/owner.pub", Mode: ModeFile, Data: []byte("-----BEGIN PUBLIC KEY-----")},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	archive := Build(nil, in)
	out, err := Parse(archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d members, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Name != in[i].Name {
			t.Errorf("member %d name %q, want %q", i, out[i].Name, in[i].Name)
		}
		if out[i].Mode != in[i].Mode {
			t.Errorf("member %d mode %o, want %o", i, out[i].Mode, in[i].Mode)
		}
		if !bytes.Equal(out[i].Data, in[i].Data) {
			t.Errorf("member %d data mismatch", i)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	a := Build(nil, sample())
	b := Build(nil, sample())
	if !bytes.Equal(a, b) {
		t.Fatal("identical input produced different archives; initrd hashes must be reproducible")
	}
}

func TestEmptyArchive(t *testing.T) {
	archive := Build(nil, nil)
	out, err := Parse(archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty archive parsed to %d members", len(out))
	}
}

func TestAlignment(t *testing.T) {
	// Odd-sized names and data must not corrupt subsequent entries.
	files := []File{
		{Name: "a", Mode: ModeFile, Data: []byte{1}},
		{Name: "bb", Mode: ModeFile, Data: []byte{1, 2}},
		{Name: "ccc", Mode: ModeFile, Data: []byte{1, 2, 3}},
		{Name: "dddd", Mode: ModeFile, Data: []byte{1, 2, 3, 4}},
	}
	out, err := Parse(Build(nil, files))
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		if out[i].Name != files[i].Name || !bytes.Equal(out[i].Data, files[i].Data) {
			t.Fatalf("member %d corrupted by alignment handling", i)
		}
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	archive := Build(nil, sample())
	archive[0] = 'X'
	if _, err := Parse(archive); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	archive := Build(nil, sample())
	for _, cut := range []int{10, 50, 111, len(archive) / 2} {
		if _, err := Parse(archive[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestParseRejectsBadHexField(t *testing.T) {
	archive := Build(nil, sample())
	copy(archive[6:], "ZZZZZZZZ") // corrupt c_ino field of first header
	if _, err := Parse(archive); err == nil {
		t.Fatal("non-hex header field accepted")
	}
}

func TestLookup(t *testing.T) {
	files := sample()
	if f := Lookup(files, "bin/attest-agent"); f == nil || f.Mode != ModeExec {
		t.Fatal("Lookup failed to find member")
	}
	if Lookup(files, "missing") != nil {
		t.Fatal("Lookup invented a member")
	}
}

func TestQuickRoundTripArbitraryData(t *testing.T) {
	f := func(data []byte, nameSeed uint8) bool {
		name := "f" + string(rune('a'+nameSeed%26))
		files := []File{{Name: name, Mode: ModeFile, Data: data}}
		out, err := Parse(Build(nil, files))
		return err == nil && len(out) == 1 && out[0].Name == name && bytes.Equal(out[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryNlink(t *testing.T) {
	files := []File{{Name: "usr", Mode: ModeDir}}
	out, err := Parse(Build(nil, files))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Mode&0o170000 != 0o040000 {
		t.Fatal("directory mode lost")
	}
}

// buildFmt is the reference Build is held to, and what it was until it
// sized its buffer up front: every header through fmt into a
// bytes.Buffer that doubles as it grows.
func buildFmt(files []File) []byte {
	var buf bytes.Buffer
	pad4 := func() {
		for buf.Len()%4 != 0 {
			buf.WriteByte(0)
		}
	}
	entry := func(ino uint32, f File) {
		name := f.Name + "\x00"
		nlink := 1
		if f.Mode&0o170000 == 0o040000 {
			nlink = 2
		}
		fmt.Fprintf(&buf, "%s%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X",
			magic, ino, f.Mode, 0, 0, nlink, 0, len(f.Data), 0, 0, 0, 0, len(name), 0)
		buf.WriteString(name)
		pad4()
		buf.Write(f.Data)
		pad4()
	}
	for i, f := range files {
		entry(uint32(i+1), f)
	}
	entry(0, File{Name: trailer})
	return buf.Bytes()
}

// TestBuildMatchesFmtReference: the archive bytes are the reference's for
// every name and data length modulo four, directories, and no members.
func TestBuildMatchesFmtReference(t *testing.T) {
	var odd []File
	for n := 0; n < 8; n++ {
		odd = append(odd, File{Name: "f" + string(bytes.Repeat([]byte{'x'}, n)), Mode: ModeFile, Data: bytes.Repeat([]byte{byte(n)}, n*37)})
	}
	big := []File{{Name: "init", Mode: ModeExec, Data: bytes.Repeat([]byte{0xEE}, 1<<20+3)}, {Name: "usr", Mode: ModeDir}}
	for name, files := range map[string][]File{"sample": sample(), "empty": nil, "odd lengths": odd, "large member": big} {
		if got, want := Build(nil, files), buildFmt(files); !bytes.Equal(got, want) {
			t.Errorf("%s: Build differs from the fmt reference (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestBuildInPlace: members whose data a generator wrote back to back at
// the front of a buffer holding stale bytes come out as the reference
// archive of the same members, in that buffer, with nothing allocated — the
// data shifted into place and every header and pad byte written over.
func TestBuildInPlace(t *testing.T) {
	for _, sizes := range [][]int{{1000, 3, 0, 517}, {1, 2, 3}, {1 << 20, 1<<19 + 1}} {
		total := 0
		for _, n := range sizes {
			total += n
		}
		body := make([]byte, total)
		rand.New(rand.NewSource(int64(total))).Read(body)
		files := []File{{Name: "init", Mode: ModeExec, Data: []byte("#!/bin/sh\n")}, {Name: "bin", Mode: ModeDir}}
		for i, n := range sizes {
			files = append(files, File{Name: "bin/" + strings.Repeat("x", i), Mode: ModeExec, Data: body[:n]})
			body = body[n:]
		}
		want := buildFmt(files)
		buf := make([]byte, len(want))
		inPlace := append([]File(nil), files...)
		var got []byte
		generate := func() {
			for i := range buf {
				buf[i] = 0xAA // stale bytes Build must write over
			}
			at := 0
			for i := 2; i < len(inPlace); i++ {
				inPlace[i].Data = buf[at : at+copy(buf[at:], files[i].Data)]
				at += len(inPlace[i].Data)
			}
			got = Build(buf, inPlace)
		}
		if n := testing.AllocsPerRun(1, generate); n != 0 {
			t.Errorf("sizes %v: Build into a buffer with room allocates %v times, want 0", sizes, n)
		}
		if !bytes.Equal(got, want) || &got[0] != &buf[0] {
			t.Errorf("sizes %v: the in-place archive differs from the reference, or is not laid out in buf", sizes)
		}
	}
}

// TestBuildAllocatesOnce pins Build to one allocation, the archive itself,
// whatever the member sizes.
func TestBuildAllocatesOnce(t *testing.T) {
	files := append(sample(), File{Name: "rootfs.img", Mode: ModeFile, Data: make([]byte, 1<<20+1)})
	if n := testing.AllocsPerRun(10, func() { Build(nil, files) }); n != 1 {
		t.Fatalf("Build allocates %v times, want 1", n)
	}
}
