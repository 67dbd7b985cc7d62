package psp

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/telemetry"
)

// foldChain is one fold invocation's input.
type foldChain struct {
	initial  [32]byte
	metas    []RegionMeta
	contents [][32]byte
}

func (c foldChain) reference() [32]byte { return FoldDigest(c.initial, c.metas, c.contents) }

// foldChains draws n chains the way an image family produces them: a new
// chain keeps a random-length prefix of an earlier one (possibly all of
// it — a repeat — or none), then diverges into fresh random regions.
func foldChains(seed int64, n int) []foldChain {
	r := rand.New(rand.NewSource(seed))
	pageTypes := []sev.PageType{sev.PageNormal, sev.PageVMSA, sev.PageSecrets, sev.PageCPUID}
	var initials [2][32]byte
	r.Read(initials[0][:])
	r.Read(initials[1][:])
	chains := make([]foldChain, 0, n)
	for len(chains) < n {
		c := foldChain{initial: initials[r.Intn(2)]}
		if len(chains) > 0 && r.Intn(4) != 0 {
			parent := chains[r.Intn(len(chains))]
			keep := r.Intn(len(parent.metas) + 1)
			c.initial = parent.initial
			c.metas = append(c.metas, parent.metas[:keep]...)
			c.contents = append(c.contents, parent.contents[:keep]...)
		}
		if len(c.metas) == 0 || r.Intn(5) != 0 { // one in five is an exact prefix or repeat
			for i, fresh := 0, 1+r.Intn(8); i < fresh; i++ {
				var content [32]byte
				r.Read(content[:])
				c.metas = append(c.metas, RegionMeta{
					PT:  pageTypes[r.Intn(len(pageTypes))],
					GPA: uint64(r.Intn(1<<16)) << 12,
					Len: 1 + r.Intn(1<<20),
				})
				c.contents = append(c.contents, content)
			}
		}
		chains = append(chains, c)
	}
	return chains
}

func foldCounters(rec *telemetry.HostRecorder) (hits, misses int64) {
	_, counters := rec.Snapshot()
	return counters["psp.fold.prefix_hits"], counters["psp.fold.prefix_misses"]
}

// TestFoldMemoMatchesFoldDigest is the memo's differential: over seeded
// chain families that share prefixes, diverge mid-chain and repeat, the
// memoised fold equals the serial reference bit for bit, every step is
// counted as exactly one hit or one miss, and a repeat is all hits.
func TestFoldMemoMatchesFoldDigest(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rec := telemetry.NewHostRecorder()
		fm := NewFoldMemo(rec)
		var steps int64
		chains := foldChains(seed, 300)
		for i, c := range chains {
			if got, want := fm.Fold(c.initial, c.metas, c.contents), c.reference(); got != want {
				t.Fatalf("seed %d chain %d (%d regions): memo %x, reference %x", seed, i, len(c.metas), got[:8], want[:8])
			}
			steps += int64(len(c.metas))
		}
		hits, misses := foldCounters(rec)
		if hits+misses != steps {
			t.Fatalf("seed %d: %d hits + %d misses, folded %d steps", seed, hits, misses, steps)
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("seed %d: %d hits, %d misses — the chains share no prefix or never diverge", seed, hits, misses)
		}
		if int64(len(fm.m)) != misses {
			t.Fatalf("seed %d: memo holds %d steps after %d misses", seed, len(fm.m), misses)
		}
		last := chains[len(chains)-1]
		fm.Fold(last.initial, last.metas, last.contents)
		if h, m := foldCounters(rec); m != misses || h != hits+int64(len(last.metas)) {
			t.Fatalf("seed %d: refolding a chain cost %d misses and %d hits, want 0 and %d", seed, m-misses, h-hits, len(last.metas))
		}
	}
}

// TestFoldMemoAtCap: a memo filled to maxFoldSteps stops growing and
// still folds correctly — steps it could not cache are recomputed.
func TestFoldMemoAtCap(t *testing.T) {
	rec := telemetry.NewHostRecorder()
	fm := NewFoldMemo(rec)
	chains := foldChains(7, 100)
	for _, c := range chains[:50] {
		fm.Fold(c.initial, c.metas, c.contents)
	}
	for i := 0; len(fm.m) < maxFoldSteps; i++ {
		fm.m[foldStep{gpa: uint64(i), n: -1}] = [32]byte{} // n < 0: collides with no real step
	}
	hits0, misses0 := foldCounters(rec)
	var steps int64
	for round := 0; round < 2; round++ {
		for i, c := range chains {
			if got, want := fm.Fold(c.initial, c.metas, c.contents), c.reference(); got != want {
				t.Fatalf("round %d chain %d: full memo %x, reference %x", round, i, got[:8], want[:8])
			}
			steps += int64(len(c.metas))
		}
	}
	if len(fm.m) != maxFoldSteps {
		t.Fatalf("memo holds %d steps, cap is %d", len(fm.m), maxFoldSteps)
	}
	hits, misses := foldCounters(rec)
	if (hits-hits0)+(misses-misses0) != steps {
		t.Fatalf("%d hits + %d misses at the cap, folded %d steps", hits-hits0, misses-misses0, steps)
	}
	if hits == hits0 || misses == misses0 {
		t.Fatalf("at the cap: %d hits, %d misses — want both cached prefixes and uncacheable suffixes", hits-hits0, misses-misses0)
	}
}

// TestFoldMemoConcurrent: eight goroutines folding overlapping chain
// families through one memo all get the reference's answers (run under
// -race in CI).
func TestFoldMemoConcurrent(t *testing.T) {
	rec := telemetry.NewHostRecorder()
	fm := NewFoldMemo(rec)
	chains := foldChains(11, 200)
	want := make([][32]byte, len(chains))
	var steps int64
	for i, c := range chains {
		want[i] = c.reference()
		steps += int64(len(c.metas))
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range chains {
				i := (k*7 + w*25) % len(chains) // each worker its own order
				if got := fm.Fold(chains[i].initial, chains[i].metas, chains[i].contents); got != want[i] {
					t.Errorf("worker %d chain %d: memo %x, reference %x", w, i, got[:8], want[i][:8])
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := foldCounters(rec); hits+misses != workers*steps {
		t.Fatalf("%d hits + %d misses, folded %d steps", hits, misses, workers*steps)
	}
}
