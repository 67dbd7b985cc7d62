package cpio

import (
	"bytes"
	"testing"
	"unsafe"
)

// inside reports whether b lies within archive's backing bytes and has no
// capacity past its length.
func inside(b, archive []byte) bool {
	if len(b) == 0 {
		return cap(b) == 0
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(archive)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return cap(b) == len(b) && at >= lo && at+uintptr(len(b)) <= lo+uintptr(len(archive))
}

// sameFiles reports whether two member lists are equal field by field.
func sameFiles(a, b []File) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Mode != b[i].Mode || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// FuzzParse feeds arbitrary archives to the parser. It must never panic;
// every member it returns must be a capped window of the archive it was
// given; and what it parses must survive Build then Parse exactly, as must
// the fuzz input carried as one member's data.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(Build(nil, nil))
	f.Add(Build(nil, sample()))
	f.Add(Build(nil, []File{{Name: "a", Mode: ModeFile, Data: []byte{1}}, {Name: "", Mode: ModeDir}}))
	f.Add(Build(nil, sample())[:200])
	f.Fuzz(func(t *testing.T, archive []byte) {
		if files, err := Parse(archive); err == nil {
			for _, fl := range files {
				if !inside(fl.Data, archive) {
					t.Fatalf("member %q: Data is not a capped window of the archive", fl.Name)
				}
			}
			again, err := Parse(Build(nil, files))
			if err != nil || !sameFiles(again, files) {
				t.Fatalf("Build then Parse of %d parsed members: err %v, or different members", len(files), err)
			}
		}
		one := []File{{Name: "fuzz", Mode: ModeFile, Data: archive}}
		if got, err := Parse(Build(nil, one)); err != nil || !sameFiles(got, one) {
			t.Fatalf("round trip of %d bytes as one member: err %v, or different members", len(archive), err)
		}
	})
}
