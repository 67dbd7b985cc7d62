package kbs

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"sync"

	"github.com/severifast/severifast/internal/psp"
)

// Verifier walks endorsement chains against a pinned root and caches the
// result by chain content. The cache is sound because it is keyed by the
// SHA-256 of the exact chain bytes: a cached entry proves "these bytes
// parse to a chain that verifies under the pinned ARK", which is a pure
// function of the bytes. Report signatures and freshness are NOT cached —
// those are per-exchange and the broker always re-checks them.
//
// Only successful walks are cached. Failures are not: they are already on
// the slow path, and never caching them means a transient of the same
// bytes cannot poison future exchanges.
type Verifier struct {
	ark *ecdsa.PublicKey

	mu     sync.Mutex
	cache  map[[32]byte]*psp.Chain
	hits   int
	misses int
}

// NewVerifier builds a verifier pinning ark.
func NewVerifier(ark *ecdsa.PublicKey) *Verifier {
	return &Verifier{ark: ark, cache: make(map[[32]byte]*psp.Chain)}
}

// VerifyChain parses and verifies chainBytes, returning the chain and
// whether the result came from the cache. Parse failures return
// ReasonMalformed; signature/naming failures return ReasonForged.
func (v *Verifier) VerifyChain(chainBytes []byte) (*psp.Chain, bool, error) {
	key := sha256.Sum256(chainBytes)
	v.mu.Lock()
	if ch, ok := v.cache[key]; ok {
		v.hits++
		v.mu.Unlock()
		return ch, true, nil
	}
	v.misses++
	v.mu.Unlock()

	ch, err := psp.UnmarshalChain(chainBytes)
	if err != nil {
		return nil, false, refusal(ReasonMalformed, err, "chain: %v", err)
	}
	if err := ch.Verify(v.ark); err != nil {
		return nil, false, refusal(ReasonForged, err, "chain: %v", err)
	}
	v.mu.Lock()
	v.cache[key] = ch
	v.mu.Unlock()
	return ch, false, nil
}

// CacheStats returns (hits, misses) so far.
func (v *Verifier) CacheStats() (hits, misses int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.hits, v.misses
}
