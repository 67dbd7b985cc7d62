// The measured-image cache memoizes the launch-measurement artifacts a
// cold SEV boot needs: the §4.3 component hashes, the measure.Plan region
// list, and the expected launch digest. All three depend only on the image
// content and the launch parameters, so a fleet booting the same function
// image thousands of times should compute them exactly once — the same
// amortization SNPGuard applies to verified launch artifacts, moved onto
// the orchestrator's admission path.
//
// The cache is safe for real (OS-thread) concurrency: one cache is meant
// to be shared by every orchestrator shard on a machine, each running its
// own simulation engine on its own goroutine.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/verifier"
)

// ImageSpec is everything that determines a launch measurement. Two specs
// with equal keys boot byte-identical measured guests.
type ImageSpec struct {
	Kernel  []byte // the boot image (bzImage or vmlinux)
	Initrd  []byte
	Cmdline string
	VCPUs   int
	MemSize uint64
	Level   sev.Level
	Policy  sev.Policy
	// VerifierSeed selects the boot verifier build (firecracker.Config).
	VerifierSeed int64
	// PreEncryptPageTables mirrors the Fig. 7 ablation flag.
	PreEncryptPageTables bool
}

// Key is the content address of a measured image: SHA-256 over the
// component hashes (kernel, initrd, cmdline) and every launch parameter
// that feeds the measurement.
type Key [32]byte

// KeyOf content-addresses a spec. It performs the one full host-side pass
// over the image bytes (SHA-256 of kernel, initrd, cmdline); callers that
// boot the same spec repeatedly should compute the key once and use
// Cache.Get afterwards.
func KeyOf(spec ImageSpec) (Key, measure.ComponentHashes) {
	h := measure.HashComponents(spec.Kernel, spec.Initrd, spec.Cmdline)
	d := sha256.New()
	d.Write([]byte("SVF-FLEET-IMG1"))
	d.Write(h.Kernel[:])
	d.Write(h.Initrd[:])
	d.Write(h.Cmdline[:])
	var meta [8]byte
	le := binary.LittleEndian
	le.PutUint64(meta[:], spec.Policy.Encode())
	d.Write(meta[:])
	le.PutUint64(meta[:], uint64(spec.VCPUs))
	d.Write(meta[:])
	le.PutUint64(meta[:], spec.MemSize)
	d.Write(meta[:])
	le.PutUint64(meta[:], uint64(spec.VerifierSeed))
	d.Write(meta[:])
	flags := byte(0)
	if spec.PreEncryptPageTables {
		flags |= 1
	}
	d.Write([]byte{byte(spec.Level), flags})
	var k Key
	copy(k[:], d.Sum(nil))
	return k, h
}

// MeasuredImage is one cache entry: the memoized measurement artifacts for
// an image/parameter combination. Entries are immutable once published;
// region Data slices are shared between boots and must not be mutated
// (guest memory copies them on write).
type MeasuredImage struct {
	Key    Key
	Hashes measure.ComponentHashes
	// Regions is the pre-encryption plan (measure.Plan output).
	Regions []measure.Region
	// Digest is the expected launch measurement for the plan — the value
	// attestation compares against the PSP's report.
	Digest [32]byte
	// PreEncryptedBytes is the plan's total payload, the quantity that
	// drives the ~8 ms pre-encryption cost.
	PreEncryptedBytes int
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Plans counts measure.Plan executions — the work the cache exists to
	// amortize. Within one shard Plans == Misses; across shards two racing
	// planners of the same key both count, but the loser's entry is
	// discarded and the key is never planned again once published.
	Plans uint64
	// HashedBytes counts image bytes hashed by measurement passes (the
	// uncached cold boots' in-band hashing work).
	HashedBytes uint64
	// Evictions counts entries removed by Evict — the degraded-mode
	// policy discarding entries it proved poisoned.
	Evictions uint64
	Entries   int
}

// HitRatio is Hits / (Hits + Misses).
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is the content-addressed measured-image cache.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*MeasuredImage
	stats   CacheStats
	subs    []func(*MeasuredImage)
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[Key]*MeasuredImage)}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// Get looks a key up, counting the hit or miss. A nil return means the
// caller must run Plan (and pay the measurement pass).
func (c *Cache) Get(key Key) *MeasuredImage {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mi, ok := c.entries[key]; ok {
		c.stats.Hits++
		return mi
	}
	c.stats.Misses++
	return nil
}

// Contains reports whether key is published, without counting a hit or
// miss. Placement policies peek at foreign hosts' caches through it; only
// boots that actually consume an entry should move the hit/miss counters.
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Plan computes the measurement artifacts for a key and publishes them.
// If another shard published the key first, its entry wins and is
// returned, so all boots of one image share one region list.
func (c *Cache) Plan(key Key, hashes measure.ComponentHashes, spec ImageSpec) (*MeasuredImage, error) {
	cfg := measure.Config{
		Verifier:             verifier.Image(spec.VerifierSeed),
		Hashes:               hashes,
		Cmdline:              spec.Cmdline,
		VCPUs:                spec.VCPUs,
		MemSize:              spec.MemSize,
		Level:                spec.Level,
		Policy:               spec.Policy,
		PreEncryptPageTables: spec.PreEncryptPageTables,
	}
	// Plan outside the lock: planning is the expensive part, and shards
	// racing on a brand-new key must not serialize the whole cache.
	regions, err := measure.Plan(cfg)
	if err != nil {
		return nil, err
	}
	// Fold the expected digest over the plan we just built rather than
	// calling measure.ExpectedDigest, which would re-plan from scratch.
	// The plan's regions are cut from its staging blob, so their content
	// hashes come from the blob's range-digest memo.
	digest := measure.FoldRegions(psp.InitialDigest(spec.Policy, spec.Level), regions)
	mi := &MeasuredImage{
		Key:               key,
		Hashes:            hashes,
		Regions:           regions,
		Digest:            digest,
		PreEncryptedBytes: measure.PreEncryptedBytes(regions),
	}
	c.mu.Lock()
	c.stats.Plans++
	c.stats.HashedBytes += uint64(len(spec.Kernel) + len(spec.Initrd))
	if prev, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return prev, nil
	}
	c.entries[key] = mi
	subs := append([]func(*MeasuredImage){}, c.subs...)
	c.mu.Unlock()
	// Notify outside the lock: subscribers (e.g. key-broker reference
	// provisioning) may do their own locking or I/O. Only a winning
	// insert notifies — a losing racer's entry was discarded above.
	for _, fn := range subs {
		fn(mi)
	}
	return mi, nil
}

// Evict removes a published entry, reporting whether it was present. The
// degraded-mode boot policy uses it to discard an entry it has proved
// poisoned (the entry's prediction disagrees with a launch measured from
// bytes that still match their registration hashes); the next boot of the
// key replans from ground truth.
func (c *Cache) Evict(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		return false
	}
	delete(c.entries, key)
	c.stats.Evictions++
	return true
}

// Subscribe registers fn to run for every measured image the cache holds:
// first for all already-published entries, then for each future insert.
// The fleet orchestrator uses it to provision the key broker's
// reference-value store straight from the cache, so allowed launch
// digests are derived from what the fleet actually measures rather than
// hand-listed. fn may be called from any shard's goroutine and must be
// safe for concurrent use.
func (c *Cache) Subscribe(fn func(*MeasuredImage)) {
	c.mu.Lock()
	existing := make([]*MeasuredImage, 0, len(c.entries))
	for _, mi := range c.entries {
		existing = append(existing, mi)
	}
	c.subs = append(c.subs, fn)
	c.mu.Unlock()
	for _, mi := range existing {
		fn(mi)
	}
}
