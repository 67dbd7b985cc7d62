// Package artifact is the content-addressed shared-artifact layer: it
// interns immutable byte buffers (built kernel images, initrds,
// compressed payloads) and memoizes the expensive facts derived from
// them — SHA-256 digests of the whole buffer or of subranges, and
// derived artifacts such as decompressed payloads or parsed ELF
// segment tables.
//
// The point is the fleet hot path: sixteen boots of the same measured
// image stage the same kernel bytes, hash the same ranges, and
// decompress the same payload. With interning those all collapse to
// one canonical copy and one computation; every further boot is a
// pointer-compare and a map hit.
//
// Identity and soundness: a buffer is interned by (base pointer, len).
// The intern table holds the buffer alive, so its address can never be
// recycled for different bytes while the entry exists; interned buffers
// are immutable by contract (guestmem aliases them copy-on-write and
// breaks the alias before any write). Digest memoization therefore
// never returns a digest for bytes other than the ones presented: a
// slice that is not pointer-identical to an interned buffer simply
// misses the table and is hashed for real.
package artifact

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/severifast/severifast/internal/telemetry"
)

// maxInterned caps the intern table. Fleet workloads intern a handful
// of buffers per image (kernel, initrd, payload, vmlinux); the cap only
// exists so adversarial or test churn cannot grow the table without
// bound. Past the cap, Intern still returns a working *Buf with all
// per-buffer memoization — it just is not registered for re-lookup.
const maxInterned = 4096

// Buf is an interned immutable buffer with memoized digests and a
// derived-artifact cache.
type Buf struct {
	data []byte

	// mu guards full/fullOK. The whole-buffer digest used to be a
	// sync.Once, but Corrupt must be able to invalidate it, so it is a
	// mutex-guarded memo like the range digests.
	mu     sync.Mutex
	full   [32]byte
	fullOK bool

	corruptions atomic.Uint32 // bumped by Corrupt

	sub     sync.Map // rangeKey -> [32]byte
	derived sync.Map // string -> *derivedEntry

	// templates is Template's side table: a plain map under its own
	// mutex, because a key boxed for a sync.Map would allocate on every
	// hit. Its entries are carved templateSlab at a time from tspare: a
	// buffer with one template has a handful.
	tmu       sync.Mutex
	templates map[uint64]*derivedEntry
	tspare    []derivedEntry
}

type rangeKey struct{ off, n int }

type derivedEntry struct {
	once sync.Once
	val  any
	err  error
}

var intern struct {
	mu sync.Mutex
	m  map[bufKey]*Buf
}

type bufKey struct {
	ptr uintptr
	len int
}

// keyOf reads the backing array's address without boxing the slice
// header, so a lookup allocates nothing.
func keyOf(data []byte) bufKey {
	return bufKey{ptr: uintptr(unsafe.Pointer(unsafe.SliceData(data))), len: len(data)}
}

// Intern registers data as an immutable artifact and returns its
// canonical *Buf. Repeated calls with the same backing array and length
// return the same *Buf. The caller must never mutate data afterwards.
// Empty slices return nil.
func Intern(data []byte) *Buf {
	if len(data) == 0 {
		return nil
	}
	k := keyOf(data)
	intern.mu.Lock()
	defer intern.mu.Unlock()
	if intern.m == nil {
		intern.m = make(map[bufKey]*Buf)
	}
	if b, ok := intern.m[k]; ok {
		return b
	}
	b := &Buf{data: data}
	if len(intern.m) < maxInterned {
		intern.m[k] = b
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactInterned, 1)
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactInternedBytes, int64(len(data)))
	}
	return b
}

// Of wraps data in an unregistered *Buf: full per-buffer memoization
// (digests, ranges, derived cache) without an intern-table entry. For
// buffers whose canonical handle travels explicitly — a launch plan's
// staging blob carried in Region.Art, aliased into guest pages as
// provenance — pointer re-lookup is unnecessary, and keeping them out
// of the table lets per-boot plans come and go without growing it.
// The caller must never mutate data afterwards. Empty slices return nil.
func Of(data []byte) *Buf {
	if len(data) == 0 {
		return nil
	}
	return &Buf{data: data}
}

// Lookup returns the interned *Buf for data, or nil if this exact slice
// (same backing array, same length) was never interned. Callers that
// must not grow the table — e.g. a per-boot cache key — use Lookup and
// fall back to content hashing on a miss.
func Lookup(data []byte) *Buf {
	if len(data) == 0 {
		return nil
	}
	intern.mu.Lock()
	defer intern.mu.Unlock()
	return intern.m[keyOf(data)]
}

// Bytes returns the underlying buffer. Read-only.
func (b *Buf) Bytes() []byte { return b.data }

// Len returns the buffer length.
func (b *Buf) Len() int { return len(b.data) }

// Digest returns SHA-256 of the whole buffer, computed once and
// invalidated by Corrupt.
func (b *Buf) Digest() [32]byte {
	b.mu.Lock()
	if b.fullOK {
		sum := b.full
		b.mu.Unlock()
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestHit, 1)
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestBytesSpared, int64(len(b.data)))
		return sum
	}
	b.mu.Unlock()
	// Hash outside the lock so concurrent first callers of different
	// buffers (hosts booting side by side) do not serialize; racing
	// callers of the same buffer compute the same sum twice, which is
	// merely wasteful.
	sum := sha256.Sum256(b.data)
	b.mu.Lock()
	b.full, b.fullOK = sum, true
	b.mu.Unlock()
	telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestMiss, 1)
	telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestBytesHashed, int64(len(b.data)))
	return sum
}

// RangeDigest returns SHA-256 of data[off:off+n], memoized per range.
// Panics if the range is out of bounds, matching slice semantics.
func (b *Buf) RangeDigest(off, n int) [32]byte {
	if off == 0 && n == len(b.data) {
		return b.Digest()
	}
	k := rangeKey{off, n}
	if v, ok := b.sub.Load(k); ok {
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestHit, 1)
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestBytesSpared, int64(n))
		return v.([32]byte)
	}
	sum := sha256.Sum256(b.data[off : off+n])
	b.sub.Store(k, sum)
	telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestMiss, 1)
	telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDigestBytesHashed, int64(n))
	return sum
}

// Derived returns the artifact derived from this buffer under key,
// building it at most once. Concurrent callers block until the single
// build finishes; a build error is memoized too (the same input will
// fail the same way every time).
func (b *Buf) Derived(key string, build func() (any, error)) (any, error) {
	v, loaded := b.derived.Load(key)
	if !loaded {
		v, loaded = b.derived.LoadOrStore(key, &derivedEntry{})
	}
	e := v.(*derivedEntry)
	hit := true
	e.once.Do(func() {
		hit = false
		e.val, e.err = build()
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDerivedMiss, 1)
	})
	if hit && loaded {
		telemetry.DefaultHostRecorder.Add(telemetry.ArtifactDerivedHit, 1)
	}
	return e.val, e.err
}

// templateSlab is how many Template entries one allocation yields.
const templateSlab = 8

// Template returns the value memoised under key, building it at most
// once; unlike Derived's, the hit path allocates nothing. It is for values
// that describe where the buffer's bytes are, never what they hold —
// shared by every user of the buffer and collected with it — so Corrupt
// leaves them alone. The key means whatever the caller says it does.
func (b *Buf) Template(key uint64, build func() any) any {
	b.tmu.Lock()
	e := b.templates[key]
	if e == nil {
		if b.templates == nil {
			b.templates = make(map[uint64]*derivedEntry)
		}
		if len(b.tspare) == 0 {
			b.tspare = make([]derivedEntry, templateSlab)
		}
		e, b.tspare = &b.tspare[0], b.tspare[1:]
		b.templates[key] = e
	}
	b.tmu.Unlock()
	e.once.Do(func() { e.val = build() })
	return e.val
}

// Corrupt flips data[off] with the given XOR mask and invalidates every
// memoized fact about the buffer: the whole-buffer digest, all range
// digests, and all derived artifacts. It models a hostile host
// scribbling on a canonical buffer at rest — the tampering the chaos
// engine's artifact family injects — and exists so that memoized
// digests can never be served for bytes the buffer no longer holds:
// after Corrupt, every digest recomputes from the actual (tampered)
// contents.
//
// Corrupt deliberately violates the immutability contract, so callers
// own the fallout: guest pages aliasing this buffer observe the
// tampered bytes exactly as a physical machine would. It must not race
// with in-flight digest or Derived calls; the chaos engine applies it
// between simulation events, when no host-side hashing is running.
func (b *Buf) Corrupt(off int, mask byte) {
	if mask == 0 {
		return
	}
	b.data[off] ^= mask
	b.corruptions.Add(1)
	b.mu.Lock()
	b.fullOK = false
	b.mu.Unlock()
	b.sub.Range(func(k, _ any) bool {
		b.sub.Delete(k)
		return true
	})
	b.derived.Range(func(k, _ any) bool {
		b.derived.Delete(k)
		return true
	})
	telemetry.DefaultHostRecorder.Add(telemetry.ArtifactCorrupted, 1)
}

// Corruptions counts the Corrupt calls that have changed the buffer. A
// holder that recorded the count beside a digest knows, from one atomic
// load and no lock, that the digest still describes the bytes; when the
// count has moved it must ask Digest again.
func (b *Buf) Corruptions() uint32 { return b.corruptions.Load() }

// ResetForTest drops the intern table so tests start clean. Existing
// *Buf values keep working; they are just no longer re-lookupable.
func ResetForTest() {
	intern.mu.Lock()
	intern.m = nil
	intern.mu.Unlock()
}
