// Package kernelgen produces the synthetic guest artifacts the experiments
// boot: vmlinux ELF images, LZ4/gzip bzImages, and attestation initrds.
//
// The paper's entire analysis is driven by artifact *sizes*: pre-encryption
// is linear in bytes, measured direct boot pays copy+hash per compressed
// byte, and the bootstrap loader pays decompression per uncompressed byte.
// So the generator's one job is to produce deterministic content whose
// uncompressed size matches the paper's vmlinux sizes and whose *real*
// LZ4-compressed size matches the paper's bzImage sizes (Fig. 8):
//
//	Lupine  23M vmlinux -> 3.3M bzImage
//	AWS     43M vmlinux -> 7.1M bzImage
//	Ubuntu  61M vmlinux -> 15M  bzImage
//
// Content is a block mix of incompressible (random) and dictionary-built
// (compressible) data; a short calibration search picks the mix fraction so
// the LZ4 output lands within tolerance of the target. The search's answer
// is a constant of (seed, size, target), so it runs at most once per key
// and process, and not at all for the three presets, whose answers are
// committed in pinnedCalib: a pinned or remembered key costs one generation
// pass. TestPinnedCalibrationMatchesSearch re-runs the search against every
// committed row.
package kernelgen

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/cpio"
	"github.com/severifast/severifast/internal/elfx"
	"github.com/severifast/severifast/internal/hostwork"
	"github.com/severifast/severifast/internal/lz4"
)

// Preset describes one guest kernel configuration from the paper's Fig. 8.
type Preset struct {
	Name string
	// VMLinuxSize is the uncompressed ELF size to generate.
	VMLinuxSize int
	// BzImageLZ4Target is the LZ4 bzImage size to hit (within Tolerance).
	BzImageLZ4Target int
	// Tolerance is the acceptable relative error on the bzImage size.
	Tolerance float64
	// LinuxBootBase is the non-SEV "Linux Boot" phase duration for this
	// configuration (entry to init), used by the guest Linux model.
	LinuxBootBase time.Duration
	// Cmdline is the default kernel command line (Firecracker's default is
	// 155 bytes; see paper §4.2).
	Cmdline string
	// Networking reports whether the config has network support; the
	// Lupine base config does not, so attestation is skipped for it
	// (paper §6.1, Guest Kernel Configurations).
	Networking bool
	// Seed fixes all generated bytes.
	Seed int64
}

// firecrackerDefaultCmdline mirrors the ~155-byte default noted in §4.2.
const firecrackerDefaultCmdline = "reboot=k panic=1 pci=off nomodule 8250.nr_uarts=0 i8042.noaux i8042.nomux i8042.nopnp i8042.dumbkbd console=ttyS0 root=/dev/vda rw virtio_mmio.device=4K@0xd0000000:5"

// Lupine returns the small single-purpose configuration (lupine-base).
func Lupine() Preset {
	return Preset{
		Name:             "lupine",
		VMLinuxSize:      23 << 20,
		BzImageLZ4Target: 3460300, // 3.3M
		Tolerance:        0.04,
		LinuxBootBase:    22 * time.Millisecond,
		Cmdline:          firecrackerDefaultCmdline,
		Networking:       false,
		Seed:             101,
	}
}

// AWS returns the Firecracker microVM configuration.
func AWS() Preset {
	return Preset{
		Name:             "aws",
		VMLinuxSize:      43 << 20,
		BzImageLZ4Target: 7444889, // 7.1M
		Tolerance:        0.04,
		LinuxBootBase:    32 * time.Millisecond,
		Cmdline:          firecrackerDefaultCmdline,
		Networking:       true,
		Seed:             102,
	}
}

// Ubuntu returns the large distribution-generic configuration.
func Ubuntu() Preset {
	return Preset{
		Name:             "ubuntu",
		VMLinuxSize:      61 << 20,
		BzImageLZ4Target: 15728640, // 15M
		Tolerance:        0.04,
		LinuxBootBase:    85 * time.Millisecond,
		Cmdline:          firecrackerDefaultCmdline,
		Networking:       true,
		Seed:             103,
	}
}

// Presets returns the paper's three configurations in size order.
func Presets() []Preset { return []Preset{Lupine(), AWS(), Ubuntu()} }

// ErrUnknownPreset reports a preset name outside the paper's three
// configurations; callers match it with errors.Is.
var ErrUnknownPreset = errors.New("kernelgen: unknown preset")

// PresetByName looks a preset up by its name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("%w %q (want lupine, aws, or ubuntu)", ErrUnknownPreset, name)
}

// Artifacts bundles everything built for a preset.
type Artifacts struct {
	Preset Preset
	// VMLinux is the uncompressed ELF image.
	VMLinux []byte
	// Entry is the ELF entry point.
	Entry uint64
	// BzImageLZ4 wraps VMLinux with the LZ4 codec: the image the paper's
	// scheme boots.
	BzImageLZ4 []byte
	// gzip backs BzImageGzip. It is held by pointer so that copying an
	// Artifacts value (tests do, to tamper one field) copies no lock.
	gzip *gzipImage
}

// gzipImage is the gzip bzImage of one vmlinux, built on first request:
// only the Fig. 5/Fig. 8 rows, a gzip-codec boot and sevf-mkkernel read it.
type gzipImage struct {
	once    sync.Once
	vmlinux []byte // what the image wraps
	seed    int64
	cached  bool // Cached's: the image is remembered with its vmlinux when built
	img     []byte
	err     error
}

// BzImageGzip returns VMLinux wrapped with the gzip codec, built at most
// once for the artifacts build returned. A copy whose VMLinux or seed was
// replaced shares the pointer but not the image: it gets its own build.
func (a *Artifacts) BzImageGzip() ([]byte, error) {
	g := a.gzip
	if g == nil || g.seed != a.Preset.Seed || !sameSlice(g.vmlinux, a.VMLinux) {
		return bzimage.Build(a.VMLinux, bzimage.CodecGzip, a.Preset.Seed)
	}
	g.once.Do(func() {
		g.img, g.err = bzimage.Build(g.vmlinux, bzimage.CodecGzip, g.seed)
		if g.err == nil && g.cached {
			remember(g.img, g.vmlinux)
		}
	})
	return g.img, g.err
}

// sameSlice reports whether a and b are one slice: same bytes in memory,
// not merely equal ones.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// build generates the vmlinux and the LZ4 bzImage for the preset and
// checks the bzImage's size. With measure, it also interns the vmlinux and
// hashes it on a second worker while the bzImage is compressed; only
// Cached asks, as the intern table pins what it holds.
func (p Preset) build(measure bool) (*Artifacts, error) {
	vm, entry := p.buildVMLinux()
	var lz []byte
	var err error
	hostwork.Do(2, func(i int) {
		if i == 0 {
			lz, err = bzimage.Build(vm, bzimage.CodecLZ4, p.Seed)
		} else if measure {
			artifact.Intern(vm).Digest()
		}
	})
	if err != nil {
		return nil, err
	}
	got := len(lz)
	rel := relErr(got, p.BzImageLZ4Target)
	if rel > p.Tolerance {
		return nil, fmt.Errorf("kernelgen: %s bzImage %d bytes, target %d (rel err %.3f > %.3f)",
			p.Name, got, p.BzImageLZ4Target, rel, p.Tolerance)
	}
	return &Artifacts{
		Preset:     p,
		VMLinux:    vm,
		Entry:      entry,
		BzImageLZ4: lz,
		gzip:       &gzipImage{vmlinux: vm, seed: p.Seed},
	}, nil
}

func relErr(got, want int) float64 {
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d
}

// buildVMLinux lays the calibrated content into an ELF with the customary
// vmlinux segment split: text, rodata, data(+BSS), plus a PT_NOTE. The
// content is mixed straight into the ELF buffer at the text segment's file
// offset, and elfx.Build shifts rodata and data across the alignment gaps
// after it: the image is generated once, not generated and then copied.
func (p Preset) buildVMLinux() ([]byte, uint64) {
	const entry = 0x1000000
	k := p.contentKey()
	buf := calibratedBytes(make([]byte, elfHeaders, k.n+elfOverhead), k.seed, k.n, k.compTarget)
	content := buf[elfHeaders:]

	textEnd := len(content) * 6 / 10
	roEnd := textEnd + len(content)*25/100
	img := &elfx.Image{
		Entry: entry,
		Segments: []elfx.Segment{
			{Type: elfx.PTLoad, Flags: 0x5, Vaddr: entry, Data: content[:textEnd]},
			{Type: elfx.PTLoad, Flags: 0x4, Vaddr: entry + uint64(textEnd) + 0x1000, Data: content[textEnd:roEnd]},
			{Type: elfx.PTLoad, Flags: 0x6, Vaddr: entry + uint64(roEnd) + 0x2000,
				Data: content[roEnd:], Memsz: uint64(len(content)-roEnd) + 2<<20}, // 2 MiB BSS
			{Type: elfx.PTNote, Flags: 0x4, Vaddr: 0, Data: []byte("Linux\x00\x00\x006.4.0")},
		},
	}
	return elfx.Build(buf, img), entry
}

// elfHeaders is the vmlinux's ELF file header and four program headers: the
// text segment's file offset. elfOverhead adds slack for the alignment gaps
// and the note.
const (
	elfHeaders  = 64 + 4*56
	elfOverhead = elfHeaders + 64
)

// contentKey is the calibration problem behind p's vmlinux. ELF framing
// (headers + alignment) is tiny: the content is generated for the full size
// less a fixed allowance, and its LZ4 target is the bzImage target less the
// fixed container overheads.
func (p Preset) contentKey() calibKey {
	return calibKey{
		seed:       p.Seed,
		n:          p.VMLinuxSize - elfOverhead,
		compTarget: p.BzImageLZ4Target - bzimage.Overhead() - 16,
	}
}

// calibKey names one calibration problem: n bytes from seed whose LZ4 block
// should come to compTarget bytes.
type calibKey struct {
	seed          int64
	n, compTarget int
}

// pinnedCalib commits the search's answers for the three presets, as
// hex-float literals so that no digit is rounded: the incompressible
// fraction q that generated the bytes the search returned. A row is only
// ever the search's own output (TestPinnedCalibrationMatchesSearch; its
// failure prints the row to commit after a change to a preset's sizes,
// bzimage.Overhead or the ELF framing allowance), and Preset.build's size
// check refuses a kernel a wrong row produced.
var pinnedCalib = map[calibKey]float64{
	{101, 24116896, 3431612}:  0x1.38b54bf23b3d5p-04, // lupine
	{102, 45088416, 7416201}:  0x1.9046c29db48dp-04,  // aws
	{103, 63962784, 15699952}: 0x1.6ap-03,            // ubuntu
}

// calibAnswers is the one table calibratedBytes consults: the pinned rows
// plus every key searched in this process.
var calibAnswers = struct {
	sync.Mutex
	q map[calibKey]float64
}{q: maps.Clone(pinnedCalib)}

// calibSearches counts searchCalibratedBytes runs, for the tests that
// require the table to have answered.
var calibSearches atomic.Int64

// calibratedBytes appends to out n bytes whose lz4.CompressBlock output is
// close to compTarget: mixBytes at the fraction the table holds for the
// key, or, for a key it has not seen, whatever the search settles on, which
// the table then remembers.
func calibratedBytes(out []byte, seed int64, n, compTarget int) []byte {
	if n <= 0 {
		return out
	}
	key := calibKey{seed, n, compTarget}
	c := &calibAnswers
	c.Lock()
	q, ok := c.q[key]
	c.Unlock()
	if ok {
		return mixBytes(out, seed, n, q)
	}
	out, q = searchCalibratedBytes(out, seed, n, compTarget)
	c.Lock()
	c.q[key] = q
	c.Unlock()
	return out
}

// searchCalibratedBytes is the calibration itself: it binary-searches the
// incompressible fraction on a sample, then generates the full n bytes,
// appended to out, and returns them with the fraction that generated them.
func searchCalibratedBytes(out []byte, seed int64, n, compTarget int) ([]byte, float64) {
	calibSearches.Add(1)
	sample := n / 8
	if sample > 2<<20 {
		sample = 2 << 20
	}
	if sample < 64<<10 {
		sample = n // tiny request: calibrate on the real thing
	}
	targetRatio := float64(compTarget) / float64(n)

	// Coarse search on a sample, then corrective rounds on the full buffer
	// to absorb residual sample-to-full drift. Every round only needs the
	// compressed size, so it counts the LZ4 block rather than writing it.
	// The sample buffer is reused across rounds: every round regenerates
	// from the same seed, so reuse changes allocation behavior only, not
	// bytes.
	sampleBuf := make([]byte, 0, sample)
	lo, hi := 0.0, 1.0
	measured, ratio := -1.0, 0.0
	for i := 0; i < 9; i++ {
		q := (lo + hi) / 2
		// A midpoint that draws the same blocks random as the one last
		// measured generates the same bytes, so it has the same ratio.
		if measured < 0 || !sameMix(sample, q, measured) {
			buf := mixBytes(sampleBuf[:0], seed, sample, q)
			ratio = float64(lz4.CompressedLen(buf)) / float64(len(buf))
			measured = q
		}
		if ratio < targetRatio {
			lo = q // need more incompressible data
		} else {
			hi = q
		}
	}
	// The search's answer is the tenth midpoint; sampling it would only
	// move lo or hi, which nothing reads after the loop.
	q := (lo + hi) / 2
	start := len(out)
	var used float64 // the q out was generated at; q itself moves on
	for round := 0; round < 4; round++ {
		used = q
		out = mixBytes(out[:start], seed, n, q)
		ratio := float64(lz4.CompressedLen(out[start:])) / float64(n)
		if rel := abs(ratio-targetRatio) / targetRatio; rel < 0.015 {
			break
		}
		// The ratio responds to q with slope just under 1 (random blocks
		// contribute ~1:1, dictionary blocks near-zero); step accordingly.
		q += (targetRatio - ratio) / 0.93
		q = clamp01(q)
	}
	return out, used
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// sameMix reports whether mixBytes makes the same blocks of n bytes random
// at fractions q and p. The bytes depend on q only through that choice, so
// then they are the same bytes.
func sameMix(n int, q, p float64) bool {
	accQ, accP := 0.0, 0.0
	for b := 0; b < n; b += mixBlock {
		if accQ, accP = accQ+q, accP+p; (accQ >= 1) != (accP >= 1) {
			return false
		} else if accQ >= 1 {
			accQ, accP = accQ-1, accP-1
		}
	}
	return true
}

// mixBlock is the size of the blocks mixBytes makes random or not.
const mixBlock = 4096

// mixBytes appends to out n bytes where fraction q of 4 KiB blocks are
// random and the rest are built from a small dictionary of 64-byte "code
// idioms", giving LZ4 long matches. Random blocks are interleaved
// deterministically (error accumulation, not coin flips) so a sample prefix
// has exactly the same mix as the full buffer. The bytes depend only on
// (seed, n, q), and out grows at most once, to exactly n more: pass
// buf[:k] with room to generate into buf in place.
//
// The bytes are those of a math/rand.Rand over rand.NewSource(seed) that
// Reads the dictionary, then per block Reads 4096 bytes or draws 64
// Intn(96) word indices, truncated to n: mixStream reproduces both streams
// from the source directly, and every block is written where it ships, so
// nothing is allocated beyond the source and out.
func mixBytes(out []byte, seed int64, n int, q float64) []byte {
	const wordSize = 64
	out = slices.Grow(out, n)
	start := len(out)
	out = out[:start+n]
	r := mixStream{src: rand.NewSource(seed)}
	var dict [dictWords * wordSize]byte
	r.read(dict[:])
	acc := 0.0
	for b := out[start:]; len(b) > 0; b = b[min(mixBlock, len(b)):] {
		// The last block is cut short. Its draws stop where its bytes do,
		// which changes nothing: no byte comes after them.
		block := b[:min(mixBlock, len(b))]
		acc += q
		if acc >= 1 {
			acc -= 1
			r.read(block)
			continue
		}
		for i := 0; i < len(block); i += wordSize {
			w := r.intn96()
			copy(block[i:], dict[w*wordSize:(w+1)*wordSize])
		}
	}
	return out
}

// dictWords is how many words mixBytes's dictionary holds; mixStream.intn96
// picks one.
const dictWords = 96

// mixStream reproduces the two streams a math/rand.Rand over src hands
// mixBytes, drawing from src itself:
//   - read is Rand.Read: each Int63 gives seven bytes, low byte first, and
//     the unread rest of the last one (val, pos) carries into the next call;
//   - intn96 is Rand.Intn(96): Int31n's rejection loop over the top 31
//     bits of an Int63, which leaves read's carried bytes alone.
//
// Rand.Read moves one byte per loop iteration; read stores seven per Int63.
type mixStream struct {
	src rand.Source
	val int64 // the Int63 read is consuming, already shifted past its used bytes
	pos int   // bytes of val read has not used yet
}

func (r *mixStream) read(p []byte) {
	i := 0
	for ; r.pos > 0 && i < len(p); i++ {
		p[i] = byte(r.val)
		r.val >>= 8
		r.pos--
	}
	// Whole draws: the eighth byte each store writes (bits 56–63, which
	// Read never hands out) is overwritten by the next store or the tail.
	for ; i+8 <= len(p); i += 7 {
		binary.LittleEndian.PutUint64(p[i:], uint64(r.src.Int63()))
	}
	for ; i < len(p); i++ {
		if r.pos == 0 {
			r.val, r.pos = r.src.Int63(), 7
		}
		p[i] = byte(r.val)
		r.val >>= 8
		r.pos--
	}
}

func (r *mixStream) intn96() int {
	const bound = 1<<31 - 1 - (1<<31)%dictWords // Int31n's rejection bound
	v := int32(r.src.Int63() >> 32)
	for v > bound {
		v = int32(r.src.Int63() >> 32)
	}
	return int(v % dictWords)
}

// BuildInitrd assembles the attestation initrd of §2.4/§6.1: the sev-guest
// kernel module, an init script, the attestation agent and its tool set.
// The content is mostly pre-linked binaries, which compress poorly — the
// paper measured a 12 MiB *compressed* initrd, and Fig. 5 concludes it is
// better left uncompressed.
func BuildInitrd(seed int64, uncompressedSize int) []byte {
	// Binaries: poorly compressible (ratio ~1.3), matching stripped,
	// already-squashed userspace binaries. The body is mixed straight into
	// the front of the archive buffer, and cpio.Build shifts the three
	// members it is cut into across the headers before each.
	const framing = 4 << 10 // the archive's headers, names and padding
	body := calibratedBytes(make([]byte, 0, uncompressedSize+framing), seed^0x5EED, uncompressedSize, uncompressedSize*3/4)
	cut1 := len(body) * 6 / 10
	cut2 := cut1 + len(body)*3/10
	files := []cpio.File{
		{Name: "init", Mode: cpio.ModeExec, Data: []byte("#!/bin/sh\nmount -t proc none /proc\nexec /bin/attest-agent\n")},
		{Name: "bin", Mode: cpio.ModeDir},
		{Name: "bin/attest-agent", Mode: cpio.ModeExec, Data: body[:cut1]},
		{Name: "bin/busybox", Mode: cpio.ModeExec, Data: body[cut1:cut2]},
		{Name: "lib", Mode: cpio.ModeDir},
		{Name: "lib/modules/sev-guest.ko", Mode: cpio.ModeFile, Data: body[cut2:]},
		{Name: "etc", Mode: cpio.ModeDir},
		{Name: "etc/attest.conf", Mode: cpio.ModeFile, Data: []byte("owner_url=http://guest-owner.internal:8443/attest\n")},
	}
	return cpio.Build(body, files)
}

// DefaultInitrdSize is the uncompressed attestation initrd size; its LZ4
// form lands near the paper's 12 MiB compressed initrd.
const DefaultInitrdSize = 16 << 20

// GenBinary produces a deterministic standalone binary artifact of the
// given size — used for the boot verifier image (~13 KiB) and the OVMF
// firmware volume (>= 1 MiB).
func GenBinary(seed int64, n int) []byte {
	return mixBytes(nil, seed, n, 0.35)
}

// Cached returns the artifacts for p, building them at most once per
// process: callers that miss together wait for one build. The key is p less
// the fields only the guest model reads, so the fleet's per-image command
// lines share one set of kernels, and presets that share a name but not a
// seed, size or target do not.
//
// The kernels leave measured, as a kernel hasher beside the build would
// leave them: the vmlinux is hashed while it is compressed, the bzImage
// after, and both are interned with their digest memos filled
// (artifact.Buf.Digest), so no boot of this process hashes a kernel
// Cached built. A build that fails its size check leaves its vmlinux
// interned; Cached remembers the failure for the process anyway.
//
// Each bzImage — the LZ4 one now, the gzip one when it is built — also
// remembers the vmlinux it compressed (bzimage.Remember), so a guest
// booting it loads that vmlinux instead of decoding the payload. Those
// memos are sound only while no byte changes: the artifacts are shared and
// must never be mutated. A caller that wants a tampered kernel copies it.
func Cached(p Preset) (*Artifacts, error) {
	key := p
	key.LinuxBootBase, key.Cmdline, key.Networking = 0, "", false
	c := &artifactCache
	c.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.Unlock()
	e.once.Do(func() {
		e.art, e.err = p.build(true)
		if e.err == nil {
			e.art.gzip.cached = true
			remember(e.art.BzImageLZ4, e.art.VMLinux).Digest()
		}
	})
	return e.art, e.err
}

// remember interns img, a bzImage built from vmlinux, records vmlinux on
// it, and returns img's *artifact.Buf. Only Cached's kernels are
// remembered: the intern table holds what it interns for the life of the
// process, so a build whose kernels are dropped must not pin them there.
func remember(img, vmlinux []byte) *artifact.Buf {
	b := artifact.Intern(img)
	bzimage.Remember(b, artifact.Intern(vmlinux))
	return b
}

type cacheEntry struct {
	once sync.Once
	art  *Artifacts
	err  error
}

var artifactCache = struct {
	sync.Mutex
	entries map[Preset]*cacheEntry
}{entries: map[Preset]*cacheEntry{}}

// initrdCache retains the most recently built initrds. The experiments,
// the facade and the digest tool reuse one or two (seed, size) pairs per
// process; the fixed size is so a library user sweeping seeds does not pin
// 16 MiB per seed.
var initrdCache struct {
	sync.Mutex
	entries [4]*initrdEntry
	next    int // entries[next%len(entries)] is replaced next
}

type initrdEntry struct {
	seed int64
	size int
	once sync.Once
	data []byte
}

// CachedInitrd returns BuildInitrd(seed, size), building it at most once
// while the pair stays in the cache. The bytes are shared between callers:
// treat them as read-only.
//
// The lock covers only the lookup: the build, which for an unseen seed is
// a calibration search (~0.1 s at 16 MiB), runs outside it, so a hit on one
// pair never waits behind another pair's build, and callers that miss one
// pair together wait on one build. An entry replaced while it builds still
// hands its bytes to the callers that found it.
func CachedInitrd(seed int64, size int) []byte {
	c := &initrdCache
	c.Lock()
	var e *initrdEntry
	for _, x := range c.entries {
		if x != nil && x.seed == seed && x.size == size {
			e = x
			break
		}
	}
	if e == nil {
		e = &initrdEntry{seed: seed, size: size}
		c.entries[c.next%len(c.entries)] = e
		c.next++
	}
	c.Unlock()
	e.once.Do(func() { e.data = BuildInitrd(seed, size) })
	return e.data
}
