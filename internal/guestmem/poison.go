//go:build guestmem_poison

package guestmem

// Under the guestmem_poison build tag, Release fills what it hands back
// with a pattern no draw may leave in place: page buffers with 0xA5
// bytes, chunks with pages of those bytes, nodes and directories with
// pointers to poisoned chunks and nodes. A draw that failed to zero or
// overwrite what it took would then show the pattern to the next guest,
// which the tests in this package catch against their references.

// poisonByte is the pattern a released page buffer holds.
const poisonByte = 0xA5

var (
	// poisonBytes is the page every poisoned page slot aliases.
	poisonBytes = func() *[PageSize]byte {
		var b [PageSize]byte
		for i := range b {
			b[i] = poisonByte
		}
		return &b
	}()
	// poisonedLeaf is the node every poisoned root slot points at: every
	// chunk poisoned, every one shared, so a stray store copies out
	// instead of writing into it.
	poisonedLeaf = func() *leaf {
		c := new(chunk)
		poisonChunk(c)
		l := &leaf{shared: allChunks}
		for i := range l.chunks {
			l.chunks[i] = c
		}
		return l
	}()
)

func poisonPage(d *[PageSize]byte) { *d = *poisonBytes }

func poisonChunk(c *chunk) {
	for j := range c {
		c[j] = page{data: poisonBytes, cow: true}
	}
}

func poisonLeaf(l *leaf) { *l = *poisonedLeaf }

func poisonDir(d []dirEntry) {
	for i := range d {
		d[i] = dirEntry{leaf: poisonedLeaf}
	}
}
