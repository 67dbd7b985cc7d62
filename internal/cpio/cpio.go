// Package cpio reads and writes the SVR4 "newc" (070701) cpio archive
// format — the format of Linux initrd/initramfs images. The SEVeriFast
// initrd carries the attestation agent and is built and unpacked with this
// package.
package cpio

import (
	"bytes"
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

// Build serializes files into a newc archive. Entries are emitted in the
// order given; inode numbers are assigned sequentially, so identical input
// yields identical output bytes (the initrd must hash reproducibly).
func Build(files []File) []byte {
	var buf bytes.Buffer
	for i, f := range files {
		writeEntry(&buf, uint32(i+1), f)
	}
	writeEntry(&buf, 0, File{Name: trailer})
	return buf.Bytes()
}

func writeEntry(buf *bytes.Buffer, ino uint32, f File) {
	name := f.Name + "\x00"
	nlink := 1
	if f.Mode&0o170000 == 0o040000 {
		nlink = 2
	}
	fmt.Fprintf(buf, "%s%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X%08X",
		magic,
		ino,         // c_ino
		f.Mode,      // c_mode
		0,           // c_uid
		0,           // c_gid
		nlink,       // c_nlink
		0,           // c_mtime (zero for reproducibility)
		len(f.Data), // c_filesize
		0, 0, 0, 0,  // c_devmajor, c_devminor, c_rdevmajor, c_rdevminor
		len(name), // c_namesize
		0)         // c_check (0 for newc)
	buf.WriteString(name)
	pad4(buf)
	buf.Write(f.Data)
	pad4(buf)
}

func pad4(buf *bytes.Buffer) {
	for buf.Len()%4 != 0 {
		buf.WriteByte(0)
	}
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
