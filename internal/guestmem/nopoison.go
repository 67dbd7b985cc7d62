//go:build !guestmem_poison

package guestmem

// Without the guestmem_poison build tag, Release hands structures back as
// they are; every draw zeroes or overwrites what it takes.

func poisonPage(*[PageSize]byte) {}
func poisonChunk(*chunk)         {}
func poisonLeaf(*leaf)           {}
func poisonDir([]dirEntry)       {}
