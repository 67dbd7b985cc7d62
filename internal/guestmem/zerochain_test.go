package guestmem

import (
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/telemetry"
)

// TestZeroChainMatchesSHA256 checks a fresh chain's digests against
// sha256.Sum256 of the zero bytes, at lengths on and beside the page and
// step boundaries and at Fig. 4's sizes, asked for in ascending, descending
// and shuffled order. Each call must hash exactly what the chain does not
// already hold: a repeated length hashes only its part past the last step.
func TestZeroChainMatchesSHA256(t *testing.T) {
	lengths := []int{1, 4095, 4096, zeroChainStep - 1, zeroChainStep, zeroChainStep + 1, 3_460_300, 12 << 20, 23 << 20}
	want := map[int][32]byte{}
	for _, n := range lengths {
		want[n] = sha256.Sum256(make([]byte, n))
	}
	shuffled := append([]int(nil), lengths...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	descending := make([]int, len(lengths))
	for i, n := range lengths {
		descending[len(lengths)-1-i] = n
	}
	for _, order := range []struct {
		name    string
		lengths []int
	}{{"ascending", lengths}, {"descending", descending}, {"shuffled", shuffled}} {
		t.Run(order.name, func(t *testing.T) {
			z := &zeroChain{}
			for _, n := range order.lengths {
				held := len(z.states) / zeroStateLen
				sum, hashed := z.sum(n)
				if sum != want[n] {
					t.Fatalf("digest of %d zero bytes after %d saved states differs from SHA-256", n, held)
				}
				if w := n - min(n/zeroChainStep, held)*zeroChainStep; hashed != w {
					t.Fatalf("digest of %d zero bytes after %d saved states hashed %d bytes, want %d", n, held, hashed, w)
				}
				if got, w := len(z.states)/zeroStateLen, max(held, n/zeroChainStep); got != w || len(z.states)%zeroStateLen != 0 {
					t.Fatalf("after %d zero bytes the chain holds %d bytes, want %d states", n, len(z.states), w)
				}
				if sum, hashed := z.sum(n); sum != want[n] || hashed != n%zeroChainStep {
					t.Fatalf("repeated digest of %d zero bytes: match %v, hashed %d, want %d", n, sum == want[n], hashed, n%zeroChainStep)
				}
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		z := &zeroChain{}
		var wg sync.WaitGroup
		for g := 1; g <= 8; g++ {
			n := g*zeroChainStep/2 + g*4097
			wg.Add(1)
			go func() {
				defer wg.Done()
				if sum, _ := z.sum(n); sum != sha256.Sum256(make([]byte, n)) {
					t.Errorf("concurrent digest of %d zero bytes differs from SHA-256", n)
				}
			}()
		}
		wg.Wait()
		const n = 4*zeroChainStep + 1
		if sum, hashed := z.sum(n); sum != sha256.Sum256(make([]byte, n)) || hashed != 1 {
			t.Fatalf("after the concurrent digests, 4 MiB + 1 zero bytes: match %v, hashed %d, want 1", sum == sha256.Sum256(make([]byte, n)), hashed)
		}
	})
}

// TestZeroChainSkipsBackedPages checks that only a range with no backing
// at all reads through the chain: a host-written byte in a middle page
// moves the digest, and a page written back to zeros still streams.
func TestZeroChainSkipsBackedPages(t *testing.T) {
	const n = zeroChainStep + 3*PageSize + 5
	const gpa = PageSize + 7
	rec := telemetry.NewHostRecorder()
	digest := func(m *Memory) ([32]byte, int64) {
		t.Helper()
		before := counterOf(rec, "guestmem.digest.streamed_bytes")
		sum, err := m.PlainRangeDigest(gpa, n)
		if err != nil {
			t.Fatal(err)
		}
		return sum, counterOf(rec, "guestmem.digest.streamed_bytes") - before
	}
	zero := sha256.Sum256(make([]byte, n))
	m := newMemory(4*zeroChainStep, nil, rec)
	if sum, _ := digest(m); sum != zero {
		t.Fatal("digest of never-written memory differs from SHA-256 of zeros")
	}
	if sum, hashed := digest(m); sum != zero || hashed != n%zeroChainStep {
		t.Fatalf("repeated digest of never-written memory: match %v, hashed %d, want %d", sum == zero, hashed, n%zeroChainStep)
	}

	t.Run("host-written byte", func(t *testing.T) {
		m := newMemory(4*zeroChainStep, nil, rec)
		at := uint64(gpa + n/2)
		if err := m.HostWrite(at, []byte{0x5a}); err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, n)
		plain[at-gpa] = 0x5a
		if sum, hashed := digest(m); sum != sha256.Sum256(plain) || hashed != n {
			t.Fatalf("one written byte: match %v, hashed %d, want %d", sum == sha256.Sum256(plain), hashed, n)
		}
	})
	t.Run("page written back to zeros", func(t *testing.T) {
		m := newMemory(4*zeroChainStep, nil, rec)
		at := uint64(gpa + n/2)
		for _, b := range []byte{0x5a, 0} {
			if err := m.HostWrite(at, []byte{b}); err != nil {
				t.Fatal(err)
			}
		}
		if m.look(at/PageSize).data == nil {
			t.Fatal("a written page has no backing")
		}
		if sum, hashed := digest(m); sum != zero || hashed != n {
			t.Fatalf("a page written back to zeros: match %v, hashed %d, want %d", sum == zero, hashed, n)
		}
	})
}
