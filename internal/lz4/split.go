package lz4

import (
	"sync/atomic"

	"github.com/severifast/severifast/internal/hostwork"
)

const (
	// splitMin is the shortest input compressBlock parses in two halves.
	// On a shared 2-core box the split counts (BenchmarkSplitCompressedLen)
	// at 0.6× the one pass's speed at 512 KiB, 1.1–1.2× at 1 MiB and 1.5× at
	// 2 and 16 MiB; emitting (BenchmarkSplitCompressBlock), which also
	// copies B's half of the block, it breaks even near 2 MiB and gains
	// 1.3–1.5× from 4 MiB, and the blocks it emits are kernels of 23 MiB
	// and more.
	splitMin = 1 << 20
	// splitLead is how far before the midpoint half B starts. The parses
	// can agree only once A's table entries from before B's start are out
	// of reach, a window after it, and A stops a window after they agree:
	// with a lead of a window and a page, A parses to about x + 64 KiB and
	// B from x - 68 KiB, even shares.
	splitLead = maxOffset + 1 + 4096
	// splitMax bounds the inputs compressBlock splits, so that a seq's
	// positions and lengths fit in 32 bits.
	splitMax = 1 << 30
	// syncWindow is how far past the midpoint B records its sequences, and
	// so how far A looks for the two parses to agree before it parses on
	// alone.
	syncWindow = 1 << 20
)

// compressSplit is parse over all of src, emitting or counting as emit
// says, done by two workers of the host-work pool. Its block and count are
// exactly the one-pass parse's; joined reports whether A took over B's
// sequences or parsed on alone.
//
// Let x be the midpoint and y = x - splitLead. Half B parses from y with a
// fresh table and records each sequence whose match it found before
// x + syncWindow. Half A parses from 0 and records its sequences from y.
// At its first match end at or after x it walks B's list beside its own,
// and it stops at the first match end z >= x that closes a run of equal
// (found, end) pairs which starts at a match end b both parses have, with
// z - b > maxOffset. The block is A's bytes up to z, then B's from z.
//
// That is exact because of what a parse's future depends on. From a match
// end z it depends only on the table entries a later lookup can accept,
// those of positions at most maxOffset behind z. The positions a parse
// enters are fixed by its (found, end) pairs: findMatch enters every
// position from the last match end to found, and the priming enters
// end-2, in increasing order. From b to z both parses entered the same
// positions, so at z both tables hold the same entry for every position a
// later lookup can accept, and B's parse from z is the one A's would be.
//
// If the lists do not agree by the end of B's, A parses on alone. A waits
// for B only while B is running: if B has not started when A reaches x, A
// parses on alone and B returns at once when a worker picks it up. So one
// worker, or a pool whose workers are all busy, gets the one-pass parse,
// and never a deadlock.
func compressSplit(dst, src []byte, emit bool) (_ []byte, n int, joined bool) {
	x := len(src) / 2
	j := &join{x: x, y: max(x-splitLead, 0), until: min(x+syncWindow, len(src)), done: make(chan struct{})}
	room := cap(dst) - len(dst)
	hostwork.Do(2, func(i int) {
		if i == 1 {
			j.runB(src, emit, room)
			return
		}
		var stop int
		if dst, n, stop = parse(dst, src, 0, emit, j.observeA); stop < len(src) {
			b := j.b[j.k]
			dst = append(dst, j.bDst[b.off:]...)
			n += j.bN - int(b.n)
			joined = true
			return
		}
		j.state.CompareAndSwap(bIdle, bAlone)
	})
	return dst, n, joined
}

// B's states. B moves itself from bIdle to bRunning when it starts; A moves
// it from bIdle to bAlone when it gets to x first, or finishes first.
const (
	bIdle int32 = iota
	bRunning
	bAlone
)

// A's phases.
const (
	aRecording = iota // before x: A keeps its sequences from y
	aComparing        // B has finished: A walks B's list
	aParsingOn        // A will not stop before the end
)

// seq is one sequence of a parse, as observer sees it, in 32 bits a field
// (splitMax).
type seq struct{ found, end, n, off int32 }

// join is what the two halves of a compressSplit share.
type join struct {
	x, y, until int
	state       atomic.Int32
	done        chan struct{} // closed when B has finished

	// B's, read by A once done is closed: its sequences that found their
	// match before until, and its block and count from y.
	b    []seq
	bDst []byte
	bN   int

	// A's: its sequences from y until it reaches x, then its walk of b.
	a     []seq
	phase int
	k     int // b's first sequence ending at or after A's last match end
	run   int // where the run of agreeing pairs to A's last match end starts; -1 for none
}

// runB is half B. room is what the caller left free in the block's buffer.
func (j *join) runB(src []byte, emit bool, room int) {
	if !j.state.CompareAndSwap(bIdle, bRunning) {
		return
	}
	defer close(j.done)
	var dst []byte
	if emit {
		// B's buffer takes B's share of the caller's room: a caller that
		// sized the block for a kernel's ratio (bzimage.Build) does not get
		// a worst-case buffer beside it, and append regrows a short one.
		dst = make([]byte, 0, min(maxCompressedLen(len(src)-j.y), room/2+splitLead))
	}
	// A kernel's sequences are some 80 bytes apart: the list seldom grows.
	j.b = make([]seq, 0, (j.until-j.y)/64)
	j.bDst, j.bN, _ = parse(dst, src, j.y, emit, func(found, end, n, off int) bool {
		if found < j.until {
			j.b = append(j.b, seq{int32(found), int32(end), int32(n), int32(off)})
		}
		return false
	})
}

// observeA is half A's observer.
func (j *join) observeA(found, end, _, _ int) bool {
	switch j.phase {
	case aRecording:
		if end < j.y {
			return false
		}
		j.a = append(j.a, seq{found: int32(found), end: int32(end)})
		if end < j.x {
			return false
		}
		if j.state.CompareAndSwap(bIdle, bAlone) {
			j.phase = aParsingOn
			return false
		}
		<-j.done
		j.phase, j.run = aComparing, -1
		for _, s := range j.a[:len(j.a)-1] {
			j.agree(int(s.found), int(s.end)) // none ends at or after x, so none stops A
		}
		return j.agree(found, end)
	case aComparing:
		return j.agree(found, end)
	}
	return false
}

// agree moves A's walk of B's list on to A's next sequence and reports
// whether A may stop at its end.
func (j *join) agree(found, end int) bool {
	prev := j.k
	for j.k < len(j.b) && int(j.b[j.k].end) < end {
		j.k++
	}
	switch {
	case j.k == len(j.b):
		j.phase = aParsingOn // past B's list: no match end A can check
		return false
	case int(j.b[j.k].end) != end:
		j.run = -1
		return false
	case j.run < 0 || j.k != prev+1 || int(j.b[j.k].found) != found:
		j.run = end // a match end both parses have: a run starts here
	}
	return end >= j.x && end-j.run > maxOffset
}
