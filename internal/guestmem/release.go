package guestmem

// The guest-memory lifecycle. A guest owns the structures it stored to:
// its root directory, the nodes that are not frozen, the chunks whose
// shared bit is clear, and the page buffers that are not copy-on-write —
// mutable() and HostRestoreCiphertext are the only producers of those, so
// each is the one reference to its bytes. Everything else a guest points at
// belongs to someone who outlives it: template leaves and chunks and edge
// pages to their artifact, frozen nodes and chunks to a fork source, aliased
// bytes to an artifact or a blob. Release hands back exactly what the guest
// owns, to the free lists of the host it ran on, and nothing else; the
// host's next guests draw from those lists before they allocate, and every
// draw either zeroes what it takes or takes it only as the target of a full
// overwrite (a node or chunk copied out of a shared one, a page copied out
// of an alias, a ciphertext restore). A released Memory keeps none of it:
// every access answers ErrReleased, so a late write — a host scribble timed
// past the guest's end — cannot reach the next guest's pages.

import (
	"errors"

	"github.com/severifast/severifast/internal/telemetry"
)

// ErrReleased reports an access to a guest whose memory went back to its
// host.
var ErrReleased = errors.New("guestmem: guest memory released")

// FreeLists holds one host's released guest-memory structures until that
// host's next guests draw them. The zero value is empty and ready. Like the
// rest of a host, it is touched only by the processes of its engine, one at
// a time. It never holds more than the host's peak of live guests owned:
// a structure is allocated only when its list is empty, that is when every
// structure of its kind is live.
type FreeLists struct {
	dirs   [][]dirEntry
	leaves []*leaf
	chunks []*chunk
	pages  []*[PageSize]byte
}

// New returns a zeroed address space of the given size whose structures
// come from the free lists first, counting on rec.
func (f *FreeLists) New(size uint64, rec *telemetry.HostRecorder) *Memory {
	return newMemory(size, f, rec)
}

// take pops the most recently released structure off a free list.
func take[T any](list *[]T) (v T, ok bool) {
	n := len(*list)
	if n == 0 {
		return v, false
	}
	v = (*list)[n-1]
	var zero T
	(*list)[n-1] = zero
	*list = (*list)[:n-1]
	return v, true
}

func newMemory(size uint64, f *FreeLists, rec *telemetry.HostRecorder) *Memory {
	size = (size + PageSize - 1) &^ (PageSize - 1)
	m := &Memory{size: size, free: f, rec: rec}
	n := int((size/PageSize + leafPages - 1) / leafPages)
	if f != nil {
		// A directory too small for this guest is dropped, not kept: the
		// lists still hold no more than the live guests needed.
		if d, ok := take(&f.dirs); ok && cap(d) >= n {
			m.dir = d[:n]
			clear(m.dir)
			m.recorder().CounterAdd("guestmem.dir.reused", 1)
			return m
		}
	}
	m.dir = make([]dirEntry, n)
	return m
}

// newLeaf returns a node for this guest to own, holding a copy of src or,
// when src is nil, nothing.
func (m *Memory) newLeaf(src *leaf) *leaf {
	var l *leaf
	if m.free != nil {
		var ok bool
		if l, ok = take(&m.free.leaves); ok {
			m.recorder().CounterAdd("guestmem.leaf.reused", 1)
		}
	}
	if l == nil {
		if m.spareLeaves == nil || m.usedLeaves == nodeSlab {
			m.spareLeaves, m.usedLeaves = new([nodeSlab]leaf), 0
		}
		l = &m.spareLeaves[m.usedLeaves]
		m.usedLeaves++
	}
	if src != nil {
		*l = *src
	} else {
		*l = leaf{}
	}
	return l
}

// newChunk returns a chunk for this guest to own, holding a copy of src or,
// when src is nil, 64 untouched pages.
func (m *Memory) newChunk(src *chunk) *chunk {
	var ch *chunk
	if m.free != nil {
		var ok bool
		if ch, ok = take(&m.free.chunks); ok {
			m.recorder().CounterAdd("guestmem.chunk.reused", 1)
		}
	}
	if ch == nil {
		if m.spareChunks == nil || m.usedChunks == chunkSlab {
			m.spareChunks, m.usedChunks = new([chunkSlab]chunk), 0
		}
		ch = &m.spareChunks[m.usedChunks]
		m.usedChunks++
	}
	if src != nil {
		*ch = *src
	} else {
		*ch = chunk{}
	}
	return ch
}

// newPage returns a page buffer for this guest to own, holding a copy of
// src or, when src is nil, zeros.
func (m *Memory) newPage(src *[PageSize]byte) *[PageSize]byte {
	if m.free != nil {
		if d, ok := take(&m.free.pages); ok {
			m.recorder().CounterAdd("guestmem.page.reused", 1)
			if src != nil {
				*d = *src
			} else {
				clear(d[:])
			}
			return d
		}
	}
	d := new([PageSize]byte)
	if src != nil {
		*d = *src
	}
	return d
}

// Release ends the guest: what it owns goes onto its host's free lists
// (or to the collector, for a guest made by New), its key is wiped, and
// from then on every access answers ErrReleased and every accessor an
// empty result. The launch context and timeline that point at the Memory
// are untouched. A donor — a guest a fork source was exported from — is
// never released, because its forks take their key from it; Release leaves
// it as it is. Releasing twice is a no-op.
func (m *Memory) Release() {
	if m.dir == nil || m.donor {
		return
	}
	if f := m.free; f != nil {
		for _, e := range m.dir {
			if e.leaf == nil || e.frozen {
				continue
			}
			for c, ch := range e.leaf.chunks {
				if ch == nil || e.leaf.shared&(1<<c) != 0 {
					continue
				}
				for j := range ch {
					if p := &ch[j]; p.data != nil && !p.cow {
						poisonPage(p.data)
						f.pages = append(f.pages, p.data)
					}
				}
				poisonChunk(ch)
				f.chunks = append(f.chunks, ch)
			}
			poisonLeaf(e.leaf)
			f.leaves = append(f.leaves, e.leaf)
		}
		poisonDir(m.dir)
		f.dirs = append(f.dirs, m.dir)
	}
	clear(m.key)
	*m = Memory{}
}
