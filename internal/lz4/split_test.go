package lz4

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// onePass is the serial parse of src: the block and its length.
func onePass(src []byte) ([]byte, int) {
	block, _, _ := parse(nil, src, 0, true, nil)
	_, n, _ := parse(nil, src, 0, false, nil)
	return block, n
}

// splitsAsOnePass fails the test unless compressSplit's block and count
// are the serial parse's, block and n.
func splitsAsOnePass(t *testing.T, what string, src, block []byte, n int) {
	t.Helper()
	if got, _, _ := compressSplit(nil, src, true); !bytes.Equal(got, block) {
		t.Fatalf("%s (%d bytes): split block is %d bytes, one pass %d, or same length and different bytes", what, len(src), len(got), len(block))
	}
	if _, got, _ := compressSplit(nil, src, false); got != n {
		t.Fatalf("%s (%d bytes): split count %d, one pass %d", what, len(src), got, n)
	}
}

// aloneAsOnePass fails the test unless half A, with B not started when it
// reaches the midpoint, parses on alone to the serial parse's block and n
// without joining, and a B that starts after A has finished returns at
// once, parsing nothing.
func aloneAsOnePass(t *testing.T, what string, src, block []byte, n int) {
	t.Helper()
	for _, emit := range []bool{true, false} {
		j := newJoin(len(src))
		got, gotN, joined := j.runA(nil, src, emit)
		switch {
		case joined:
			t.Fatalf("%s, emit %v: A joined a B that never ran", what, emit)
		case emit && !bytes.Equal(got, block):
			t.Fatalf("%s: A alone emitted %d bytes, one pass %d, or same length and different bytes", what, len(got), len(block))
		case gotN != n:
			t.Fatalf("%s, emit %v: A alone counted %d, one pass %d", what, emit, gotN, n)
		}
		j.runB(src, emit, 0)
		select {
		case <-j.done:
		default:
			t.Fatalf("%s, emit %v: a late B returned without closing done", what, emit)
		}
		if j.b != nil || j.bDst != nil {
			t.Fatalf("%s, emit %v: a late B parsed", what, emit)
		}
	}
}

// splitInputs are the inputs the split must join or give up on exactly:
// the generator's block mixes from all dictionary words to all random
// blocks, random bytes, zeros (one match across the midpoint), a ramp of
// period 251, and random bytes around a run of zeros across the midpoint.
func splitInputs(n int) map[string][]byte {
	in := map[string][]byte{}
	for _, q := range []float64{0, 0.07, 0.18, 0.5, 0.69, 0.99, 1} {
		in[fmt.Sprintf("block mix q=%v", q)] = blockMix(n, q)
	}
	random := make([]byte, n)
	rand.New(rand.NewSource(8)).Read(random)
	in["random"] = random
	in["zeros"] = make([]byte, n)
	ramp := make([]byte, n)
	for i := range ramp {
		ramp[i] = byte(i % 251)
	}
	in["period-251 ramp"] = ramp
	straddle := bytes.Clone(random)
	clear(straddle[n/2-3000 : n/2+5000])
	in["zeros straddling the midpoint"] = straddle
	return in
}

// TestSplitMatchesOnePass holds the split to the serial parse, in bytes
// and in count, and to the byte-at-a-time reference, at GOMAXPROCS 1 and
// 2 and with B not started before A is done. On a kernel-like mix at GOMAXPROCS 2 the halves must join in one of
// twenty splits: a join needs B running when A reaches the midpoint, which
// a loaded machine may deny a few times, but not twenty. With one P, A
// usually reaches the midpoint before the scheduler runs B, so there it
// need not join.
func TestSplitMatchesOnePass(t *testing.T) {
	n := 2<<20 + 123
	if raceDetector {
		n = 3*splitLead + 123
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for what, src := range splitInputs(n) {
		block, count := onePass(src)
		if ref := compressBlockReference(src); !bytes.Equal(block, ref) || count != len(ref) {
			t.Fatalf("%s: the one-pass parse differs from the reference", what)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			splitsAsOnePass(t, fmt.Sprintf("%s, GOMAXPROCS %d", what, procs), src, block, count)
		}
		aloneAsOnePass(t, what, src, block, count)
	}

	if runtime.NumCPU() < 2 {
		t.Log("one CPU: not requiring the halves to join")
		return
	}
	runtime.GOMAXPROCS(2)
	src := blockMix(n, 0.18)
	for try := 0; try < 20; try++ {
		if _, _, joined := compressSplit(nil, src, false); joined {
			return
		}
	}
	t.Fatal("twenty splits of a kernel-like mix at GOMAXPROCS 2 never joined their halves")
}

// copiedBlocks is n bytes in blocks of one size from 16 bytes to 8 KiB,
// each random, a copy of bytes up to 70 000 back, or a repeat of the
// block before: inputs on which the two parses can find different matches
// that end at the same place.
func copiedBlocks(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	src := make([]byte, n)
	size := 16 << r.Intn(10)
	for b := 0; b < n; b += size {
		block := src[b:min(b+size, n)]
		switch r.Intn(3) {
		case 0:
			r.Read(block)
		case 1:
			if b >= 70000 {
				copy(block, src[b-1-r.Intn(70000):])
			}
		case 2:
			if b >= size {
				copy(block, src[b-size:])
			}
		}
	}
	return src
}

// TestSplitJoinsOnlyEqualPairs: on copied blocks the halves meet match
// ends they share after matches found at different places, which must not
// count towards the run A joins after. Seeds 33 and 42 are two such
// inputs; the split must still equal the one-pass parse on all fifty.
func TestSplitJoinsOnlyEqualPairs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for seed := int64(0); seed < 50; seed++ {
		src := copiedBlocks(seed, 3*splitLead)
		block, n := onePass(src)
		splitsAsOnePass(t, fmt.Sprintf("copied blocks, seed %d", seed), src, block, n)
	}
}

// TestWidthOneIsOnePass: with one P the compressor does not split, and its
// block and count are the one-pass parse's.
func TestWidthOneIsOnePass(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src := blockMix(splitMin+1, 0.18)
	block, n := onePass(src)
	if !bytes.Equal(CompressBlock(src), block) || CompressedLen(src) != n {
		t.Fatal("GOMAXPROCS 1 differs from the one-pass parse")
	}
}

// splitSizes are the input lengths the split benchmarks run at: either
// side of splitMin, and a kernel's order.
var splitSizes = []int{512 << 10, 1 << 20, 2 << 20, 16 << 20}

// BenchmarkSplitCompressBlock is the emitting parse in one pass and split,
// on the kernel-like mix, at the sizes splitMin was chosen from.
func BenchmarkSplitCompressBlock(b *testing.B) {
	for _, n := range splitSizes {
		src := blockMix(n, 0.18)
		dst := make([]byte, 0, maxCompressedLen(len(src)))
		b.Run(fmt.Sprintf("%dKiB/one-pass", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				out, _, _ := parse(dst[:0], src, 0, true, nil)
				sinkLen = len(out)
			}
		})
		b.Run(fmt.Sprintf("%dKiB/split", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				out, _, _ := compressSplit(dst[:0], src, true)
				sinkLen = len(out)
			}
		})
	}
}

// BenchmarkSplitCompressedLen is BenchmarkSplitCompressBlock's counting
// twin.
func BenchmarkSplitCompressedLen(b *testing.B) {
	for _, n := range splitSizes {
		src := blockMix(n, 0.18)
		b.Run(fmt.Sprintf("%dKiB/one-pass", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				_, sinkLen, _ = parse(nil, src, 0, false, nil)
			}
		})
		b.Run(fmt.Sprintf("%dKiB/split", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				_, sinkLen, _ = compressSplit(nil, src, false)
			}
		})
	}
}
