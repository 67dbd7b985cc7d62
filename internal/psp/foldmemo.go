package psp

// Delta launch measurement. The digest chain is a fold: every step is a
// pure function of (previous digest, region meta, region content hash).
// Two images sharing a component prefix — the fleet's bread and butter:
// same verifier, same kernel, different initrd — therefore share the
// entire chain up to the first differing region (the hash page, through
// which initrd content enters the measurement). A FoldMemo caches each
// step keyed by its full input, so planning the Nth variant of an image
// family re-derives only the suffix that actually changed.
//
// Soundness is free: a memo hit returns ExtendDigestContent's output
// for *exactly* the inputs presented (the key includes the previous
// digest and the content hash), so a memoized fold is bit-identical to
// the serial computation by construction.

import (
	"sync"

	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/telemetry"
)

// foldStep is one fold transition's full input.
type foldStep struct {
	prev    [32]byte
	pt      sev.PageType
	gpa     uint64
	n       int
	content [32]byte
}

// maxFoldSteps caps the memo. A fleet measures a handful of regions per
// image; the cap only bounds adversarial churn. Past it, Fold still
// computes correctly — new steps just are not cached.
const maxFoldSteps = 1 << 16

// FoldMemo caches digest-chain transitions across fold invocations.
// Safe for concurrent use.
type FoldMemo struct {
	mu  sync.Mutex
	m   map[foldStep][32]byte
	rec *telemetry.HostRecorder
}

// NewFoldMemo returns an empty memo recording hit/miss counters on rec
// (nil routes to telemetry.DefaultHostRecorder).
func NewFoldMemo(rec *telemetry.HostRecorder) *FoldMemo {
	if rec == nil {
		rec = telemetry.DefaultHostRecorder
	}
	return &FoldMemo{m: make(map[foldStep][32]byte), rec: rec}
}

// Fold is FoldDigest through the memo: shared prefixes of previously
// folded chains are map hits ("psp.fold.prefix_hits"); the first
// divergent region and everything after it are computed and cached
// ("psp.fold.prefix_misses").
func (fm *FoldMemo) Fold(initial [32]byte, metas []RegionMeta, contents [][32]byte) [32]byte {
	digest := initial
	var hits, misses int64
	for i, meta := range metas {
		step := foldStep{prev: digest, pt: meta.PT, gpa: meta.GPA, n: meta.Len, content: contents[i]}
		fm.mu.Lock()
		next, ok := fm.m[step]
		fm.mu.Unlock()
		if ok {
			hits++
			digest = next
			continue
		}
		misses++
		digest = ExtendDigestContent(digest, meta.PT, meta.GPA, meta.Len, contents[i])
		fm.mu.Lock()
		if len(fm.m) < maxFoldSteps {
			fm.m[step] = digest
		}
		fm.mu.Unlock()
	}
	if hits != 0 {
		fm.rec.Add(telemetry.PSPFoldPrefixHits, hits)
	}
	if misses != 0 {
		fm.rec.Add(telemetry.PSPFoldPrefixMisses, misses)
	}
	return digest
}
