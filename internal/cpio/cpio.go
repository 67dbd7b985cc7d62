// Package cpio reads and writes the SVR4 "newc" (070701) cpio archive
// format — the format of Linux initrd/initramfs images. The SEVeriFast
// initrd carries the attestation agent and is built and unpacked with this
// package.
package cpio

import (
	"errors"
	"fmt"
	"strconv"
)

const (
	magic   = "070701"
	trailer = "TRAILER!!!"
	// Mode bits, matching the relevant POSIX file-type values.
	ModeDir  = 0o040755
	ModeFile = 0o100644
	ModeExec = 0o100755
)

// ErrCorrupt reports a malformed archive.
var ErrCorrupt = errors.New("cpio: corrupt archive")

// File is one archive member.
type File struct {
	Name string
	Mode uint32
	Data []byte
}

// Build serializes files into a newc archive laid out in buf, which it
// returns resliced to the archive's length; a buf short of that capacity is
// replaced by a new one. Entries are emitted in the order given; inode
// numbers are assigned sequentially, so identical input yields identical
// output bytes (the initrd must hash reproducibly).
//
// Every member's data is moved into place, last member first, before any
// header is written, so a member's Data may already lie in buf at or before
// its place in the archive: a generator that wrote the members' data back
// to back at the front of buf has it shifted across the headers and
// padding, not copied out of one archive-sized buffer into another.
func Build(buf []byte, files []File) []byte {
	n := entryLen(trailer, 0)
	for _, f := range files {
		n += entryLen(f.Name, len(f.Data))
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	out := buf[:n]
	at := n - entryLen(trailer, 0) // where the entry of each member, from the last, starts
	for i := len(files) - 1; i >= 0; i-- {
		f := files[i]
		at -= entryLen(f.Name, len(f.Data))
		copy(out[at+align4(headerLen+len(f.Name)+1):], f.Data)
	}
	off := 0
	for i, f := range files {
		off += len(appendHeader(out[off:off], uint32(i+1), f))
		off += len(f.Data)
		clear(out[off:align4(off)])
		off = align4(off)
	}
	appendHeader(out[off:off], 0, File{Name: trailer})
	return out
}

// headerLen is the fixed newc header: the magic and thirteen 8-digit hex
// fields.
const headerLen = len(magic) + 13*8

// entryLen is the archived length of a member: header, NUL-terminated
// name and data, each padded to four bytes.
func entryLen(name string, size int) int {
	return align4(headerLen+len(name)+1) + align4(size)
}

// appendHeader appends a member's header and NUL-terminated name, padded
// to four bytes: everything but its data.
func appendHeader(out []byte, ino uint32, f File) []byte {
	nlink := uint32(1)
	if f.Mode&0o170000 == 0o040000 {
		nlink = 2
	}
	out = append(out, magic...)
	for _, field := range [13]uint32{
		ino,                 // c_ino
		f.Mode,              // c_mode
		0,                   // c_uid
		0,                   // c_gid
		nlink,               // c_nlink
		0,                   // c_mtime (zero for reproducibility)
		uint32(len(f.Data)), // c_filesize
		0, 0, 0, 0,          // c_devmajor, c_devminor, c_rdevmajor, c_rdevminor
		uint32(len(f.Name) + 1), // c_namesize, the NUL included
		0,                       // c_check (0 for newc)
	} {
		out = appendHex8(out, field)
	}
	return pad4(append(append(out, f.Name...), 0))
}

// appendHex8 appends v as eight upper-case hex digits.
func appendHex8(out []byte, v uint32) []byte {
	const digits = "0123456789ABCDEF"
	for shift := 28; shift >= 0; shift -= 4 {
		out = append(out, digits[v>>shift&0xF])
	}
	return out
}

func pad4(out []byte) []byte {
	for len(out)%4 != 0 {
		out = append(out, 0)
	}
	return out
}

// Parse reads a newc archive and returns its members, excluding the
// trailer. A member's Data is the archive's own bytes, not a copy: a
// sub-slice capped at its length, so an append cannot reach the next
// header. The archive must not change while the members are in use.
func Parse(archive []byte) ([]File, error) {
	var files []File
	off := 0
	for {
		if off+110 > len(archive) {
			return nil, fmt.Errorf("%w: truncated header at offset %d", ErrCorrupt, off)
		}
		hdr := archive[off : off+110]
		if string(hdr[:6]) != magic {
			return nil, fmt.Errorf("%w: bad magic %q at offset %d", ErrCorrupt, hdr[:6], off)
		}
		// All 13 fields must be valid hex, even the ones we do not use.
		var fields [13]uint64
		for i := range fields {
			v, err := strconv.ParseUint(string(hdr[6+8*i:6+8*i+8]), 16, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: bad header field %d: %w", ErrCorrupt, i, err)
			}
			fields[i] = v
		}
		mode, fileSize, nameSize := fields[1], fields[6], fields[11]
		off += 110
		if nameSize == 0 || off+int(nameSize) > len(archive) {
			return nil, fmt.Errorf("%w: bad name size %d", ErrCorrupt, nameSize)
		}
		name := string(archive[off : off+int(nameSize)-1]) // strip NUL
		off += int(nameSize)
		off = align4(off)
		if name == trailer {
			return files, nil
		}
		if off+int(fileSize) > len(archive) {
			return nil, fmt.Errorf("%w: file %q data overruns archive", ErrCorrupt, name)
		}
		end := off + int(fileSize)
		files = append(files, File{Name: name, Mode: uint32(mode), Data: archive[off:end:end]})
		off = align4(end)
	}
}

func align4(n int) int { return (n + 3) &^ 3 }

// Lookup returns the member with the given name, or nil.
func Lookup(files []File, name string) *File {
	for i := range files {
		if files[i].Name == name {
			return &files[i]
		}
	}
	return nil
}
