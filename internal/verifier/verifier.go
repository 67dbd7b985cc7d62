// Package verifier implements the SEVeriFast boot verifier: the ~13 KiB
// standalone binary that replaces both firmware and bootloader as an SEV
// microVM's initial (pre-encrypted, measured) guest code (paper §4.1, §5).
//
// Its job, executed for real against the machine model:
//
//  1. Discover the C-bit with two cpuid reads and validate all guest
//     memory with pvalidate (one instruction per huge page when THP is on).
//  2. Build the identity-mapped C-bit page tables in encrypted memory —
//     unless the ablation pre-encrypted them host-side (Fig. 7 policy).
//  3. Perform measured direct boot (Fig. 2): copy each staged component
//     from shared to private memory, re-hash it, and compare against the
//     pre-encrypted hash page. A host that swapped a component is caught
//     here, with the boot refused.
//  4. Hand off: a bzImage stays in place for its bootstrap loader; a
//     vmlinux streamed over the optimized fw_cfg protocol (§5) has its
//     segments placed at their run addresses directly, avoiding the extra
//     full-image copy.
package verifier

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/bootparams"
	"github.com/severifast/severifast/internal/bzimage"
	"github.com/severifast/severifast/internal/elfx"
	"github.com/severifast/severifast/internal/ghcb"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/mptable"
	"github.com/severifast/severifast/internal/pagetable"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// ImageSize is the verifier binary's size: the paper's ~13 KiB root of
// trust.
const ImageSize = 13 * 1024

// GPAGHCB is where the verifier places the guest's GHCB page.
const GPAGHCB = 0x1000

// Image returns the verifier binary artifact (deterministic bytes standing
// in for the compiled Rust binary). Its content is measured, so changing
// the seed models shipping a different — e.g. malicious — verifier.
//
// The bytes are kernelgen.BuildBinary's: generated once per seed per
// process, shared by every caller and interned with their digest memo
// filled, so a launch plan points at them instead of copying them. Never
// mutate them: a caller that wants a tampered verifier copies the image
// first.
func Image(seed int64) []byte { return kernelgen.BuildBinary(seed^0x13B00, ImageSize) }

// ErrVerification is returned when a staged component does not match its
// pre-encrypted hash (Fig. 2 step 5 failing).
var ErrVerification = errors.New("verifier: component hash mismatch")

// KernelKind selects the handoff format.
type KernelKind int

// Kernel staging formats.
const (
	KindBzImage KernelKind = iota // compressed image, verified whole
	KindVmlinux                   // streamed ELF via the fw_cfg protocol
)

// Chunk is one fw_cfg transfer unit for KindVmlinux (§5): a span of the
// kernel file staged in shared memory. Load chunks go to their run
// address in private memory; the rest (ELF header, program headers,
// padding) is hashed and parked in scratch.
type Chunk struct {
	FileOff  uint64
	StageGPA uint64 // where the VMM staged it (shared)
	Size     int
	DestGPA  uint64 // final private destination; 0 = scratch
}

// Inputs describes what the VMM staged for measured direct boot.
type Inputs struct {
	Kind KernelKind

	// KindBzImage: the image is staged at StageGPA.
	StageGPA   uint64
	KernelSize int

	// KindVmlinux: the streamed chunks.
	Chunks []Chunk

	InitrdStageGPA uint64
	InitrdSize     int

	// Destinations (private memory).
	KernelDstGPA uint64
	InitrdDstGPA uint64
	ScratchGPA   uint64

	// PageTablesPreEncrypted is the Fig. 7 ablation: when set, the VMM
	// already measured page tables at measure.GPAPageTables and the
	// verifier skips generating them.
	PageTablesPreEncrypted bool

	// CmdlineStageGPA/CmdlineSize describe a command line staged in shared
	// memory (the QEMU/OVMF flow, where the cmdline is verified like the
	// kernel rather than pre-encrypted). Zero size means the cmdline was
	// pre-encrypted at measure.GPACmdline (the SEVeriFast flow).
	CmdlineStageGPA uint64
	CmdlineSize     int

	// GenerateBootStructs makes the verifier build boot_params and the
	// mptable in C-bit memory (the OVMF flow, which carries the generator
	// code anyway). VCPUs parameterizes the mptable.
	GenerateBootStructs bool
	VCPUs               int
}

// Handoff is what the verifier leaves for the next boot stage.
type Handoff struct {
	// KernelGPA is where the verified kernel lives in private memory: the
	// bzImage staging for KindBzImage, or the ELF entry for KindVmlinux.
	KernelGPA  uint64
	KernelSize int
	Kind       KernelKind
	Entry      uint64 // KindVmlinux: ELF entry point
	InitrdGPA  uint64
	InitrdSize int
}

// Run executes the boot verifier on machine m. It is called from the vCPU
// process at guest entry and charges all guest-side work to virtual time.
func Run(proc *sim.Proc, m *kvm.Machine, in Inputs) (*Handoff, error) {
	model := m.Host.Model
	m.DebugEvent(proc, sev.EvVerifierStart)
	cbit := m.Level.Encrypted()

	// C-bit discovery: two cpuid instructions (§5). For ES/SNP these go
	// through the early-boot GHCB MSR protocol (no #VC handler exists
	// yet): the request and response really round-trip the MSR encoding.
	eax, ebx := cpuidEAX(m.Level), uint32(pagetable.DefaultCBit)
	if m.Level >= sev.ES {
		var err error
		eax, err = earlyCPUID(m, 0x8000001F, 0)
		if err != nil {
			return nil, err
		}
		ebx, err = earlyCPUID(m, 0x8000001F, 1)
		if err != nil {
			return nil, err
		}
	}
	if enabled, pos := pagetable.CBitFromCPUID(eax, ebx); cbit {
		if !enabled || pos != pagetable.DefaultCBit {
			return nil, fmt.Errorf("verifier: cpuid does not advertise SEV for an encrypted guest (pos %d)", pos)
		}
	}

	// pvalidate all guest memory (SNP only). Launch-updated pages are
	// already validated; the range helper skips them.
	if m.Level.HasRMP() {
		pageSize := m.Host.PvalidatePageSize()
		table, asid := m.Mem.RMP()
		if err := table.PvalidateRangeSkipValidated(0, int(m.Mem.Size()), pageSize, asid); err != nil {
			return nil, fmt.Errorf("verifier: pvalidate: %w", err)
		}
		proc.Sleep(model.Pvalidate(int(m.Mem.Size()), pageSize))
	}

	// With memory validated, establish the GHCB so later #VC exits (debug
	// events, I/O) use the page protocol.
	if m.Level >= sev.ES {
		g, err := ghcb.New(m.Mem, GPAGHCB)
		if err != nil {
			return nil, fmt.Errorf("verifier: establishing GHCB: %w", err)
		}
		m.SetGHCB(GPAGHCB, g)
	}

	// Page tables: generate in C-bit memory, implicitly encrypting them —
	// or, in the ablation, check the pre-encrypted ones are sane.
	ptCfg := pagetable.Config{Base: measure.GPAPageTables, MapSize: m.Mem.Size(), SetCBit: cbit}
	if in.PageTablesPreEncrypted {
		raw, err := m.Mem.GuestRead(measure.GPAPageTables, pagetable.TotalSize, cbit)
		if err != nil {
			return nil, fmt.Errorf("verifier: reading pre-encrypted page tables: %w", err)
		}
		if _, gotC, err := pagetable.Walk(raw, ptCfg, 0x200000); err != nil {
			return nil, fmt.Errorf("%w: pre-encrypted page tables invalid: %w", ErrVerification, err)
		} else if gotC != cbit {
			return nil, fmt.Errorf("%w: pre-encrypted page tables map C-bit %v, want %v", ErrVerification, gotC, cbit)
		}
	} else {
		// The same bytes for every guest of this size and C-bit setting:
		// the host builds them once, and the pages alias them.
		table := m.Host.PageTables(ptCfg)
		if err := m.Mem.GuestWriteArtifact(measure.GPAPageTables, table, 0, table.Len(), cbit); err != nil {
			return nil, fmt.Errorf("verifier: writing page tables: %w", err)
		}
		proc.Sleep(model.Copy(table.Len()))
	}

	// The pre-encrypted hash page is the verification root (Fig. 2).
	var hashes measure.ComponentHashes
	if cbit {
		page, _, err := m.Mem.GuestView(measure.GPAHashPage, 4096, true)
		if err != nil {
			return nil, fmt.Errorf("verifier: reading hash page: %w", err)
		}
		hashes, err = measure.ParseHashPage(page)
		if err != nil {
			// A hash page that fails to parse is a failed verification
			// root, not an I/O problem: classify it as such.
			return nil, fmt.Errorf("%w: %w", ErrVerification, err)
		}
	}

	out := &Handoff{Kind: in.Kind, InitrdGPA: in.InitrdDstGPA, InitrdSize: in.InitrdSize}

	// Kernel.
	switch in.Kind {
	case KindBzImage:
		if err := verifyCopy(proc, m, in.StageGPA, in.KernelDstGPA, in.KernelSize, hashes.Kernel, cbit, "verify kernel"); err != nil {
			return nil, err
		}
		// Sanity-parse the verified image in place; the zero-copy view
		// avoids materializing the multi-MiB image when it aliases the
		// canonical staged artifact.
		raw, _, err := m.Mem.GuestView(in.KernelDstGPA, in.KernelSize, cbit)
		if err != nil {
			return nil, err
		}
		if _, err := bzimage.Parse(raw); err != nil {
			return nil, fmt.Errorf("verifier: staged kernel is not a bzImage: %w", err)
		}
		out.KernelGPA = in.KernelDstGPA
		out.KernelSize = in.KernelSize
	case KindVmlinux:
		entry, total, err := streamVmlinux(proc, m, in, hashes.Kernel, cbit)
		if err != nil {
			return nil, err
		}
		out.Entry = entry
		out.KernelGPA = entry
		out.KernelSize = total
	default:
		return nil, fmt.Errorf("verifier: unknown kernel kind %d", in.Kind)
	}

	// Initrd: copied whole, verified, left uncompressed (Fig. 5's
	// conclusion: the CPIO is unpacked anyway, extra compression only adds
	// overhead).
	if in.InitrdSize > 0 {
		if err := verifyCopy(proc, m, in.InitrdStageGPA, in.InitrdDstGPA, in.InitrdSize, hashes.Initrd, cbit, "verify initrd"); err != nil {
			return nil, err
		}
	}

	// A staged (not pre-encrypted) command line is verified like the other
	// components and placed at its boot_params location.
	if in.CmdlineSize > 0 {
		if err := verifyCopy(proc, m, in.CmdlineStageGPA, measure.GPACmdline, in.CmdlineSize, hashes.Cmdline, cbit, "verify cmdline"); err != nil {
			return nil, err
		}
	}

	// The OVMF flow generates boot_params and the mptable in the guest
	// (UEFI carries the generator code regardless; Fig. 7's tradeoff cuts
	// the other way for a minimal verifier).
	if in.GenerateBootStructs {
		vcpus := in.VCPUs
		if vcpus < 1 {
			vcpus = 1
		}
		zp, err := bootparams.Build(bootparams.Params{
			CmdlinePtr:   measure.GPACmdline,
			CmdlineSize:  uint32(in.CmdlineSize),
			RamdiskImage: uint32(in.InitrdDstGPA),
			RamdiskSize:  0, // patched below like the SEVeriFast flow
			E820:         bootparams.StandardE820(m.Mem.Size()),
		})
		if err != nil {
			return nil, fmt.Errorf("verifier: generating boot_params: %w", err)
		}
		if err := m.Mem.GuestWrite(measure.GPAZeroPage, zp, cbit); err != nil {
			return nil, err
		}
		mp := mptable.Build(vcpus, measure.GPAMPTable)
		if err := m.Mem.GuestWrite(measure.GPAMPTable, mp, cbit); err != nil {
			return nil, err
		}
		proc.Sleep(model.Copy(len(zp) + len(mp)))
	}

	// Publish the now-known initrd size into boot_params (private write;
	// the pre-encrypted zero page left it zero to keep the measurement
	// stable).
	if cbit {
		var sz [4]byte
		sz[0] = byte(in.InitrdSize)
		sz[1] = byte(in.InitrdSize >> 8)
		sz[2] = byte(in.InitrdSize >> 16)
		sz[3] = byte(in.InitrdSize >> 24)
		if err := m.Mem.GuestWrite(measure.GPAZeroPage+0x21C, sz[:], true); err != nil {
			return nil, fmt.Errorf("verifier: updating boot_params: %w", err)
		}
	}

	m.DebugEvent(proc, sev.EvVerifierDone)
	return out, nil
}

// verifyCopy is Fig. 2 steps 4-6 for one component, timed as stage
// ("verify <component>", a constant so that naming the stage allocates
// nothing): copy shared->private, re-hash the private copy, compare
// against the pre-encrypted hash.
func verifyCopy(proc *sim.Proc, m *kvm.Machine, src, dst uint64, n int, want [32]byte, cbit bool, stage string) error {
	m.Timeline.Begin(stage, proc.Now())
	defer func() { m.Timeline.End(stage, proc.Now()) }()
	model := m.Host.Model
	if err := m.Mem.GuestCopy(dst, src, n, cbit, false); err != nil {
		return fmt.Errorf("verifier: protecting %s: %w", stage[len("verify "):], err)
	}
	proc.Sleep(model.Copy(n))
	if !cbit {
		return nil // non-SEV boots skip verification entirely
	}
	// Re-hash the private copy in place. HashRange returns exactly
	// SHA-256 of what GuestRead(dst, n, true) would, but skips the
	// n-byte materialization and — when the copy aliases a shared
	// artifact — resolves to the memoized digest, so repeat boots of
	// the same image verify in O(1) host time. A host that tampered
	// with the staged bytes broke the alias (or never had one) and is
	// hashed for real, preserving Fig. 2's detection property.
	got, err := m.Mem.HashRange(dst, n, true)
	if err != nil {
		return fmt.Errorf("verifier: re-reading %s: %w", stage[len("verify "):], err)
	}
	proc.Sleep(model.Hash(n))
	if got != want {
		// Array copies, so that neither digest escapes on the good path.
		return fmt.Errorf("%w: %s (got %x, want %x)", ErrVerification, stage[len("verify "):], [4]byte(got[:4]), [4]byte(want[:4]))
	}
	return nil
}

// streamVmlinux implements the optimized fw_cfg protocol (§5): each chunk
// is copied once — loadable bytes straight to their run address — while a
// single running hash over the byte stream reproduces the whole-file
// kernel hash.
//
// Every chunk is placed and charged as a sequential copy+hash loop would;
// only the host-side hashing is lazy, and what stands in for it is proof,
// chunk by chunk, that the private copy holds the bytes of one interned
// artifact at the chunk's file offset:
//
//   - A chunk whose private copy aliases the artifact — a load segment of a
//     staged interned vmlinux, which GuestCopy aliases at whatever byte
//     offset the file keeps it — is proven by the provenance of its
//     destination pages, the partial first and last page byte-compared
//     (ArtifactRange). The first such chunk names the artifact.
//   - A sub-page chunk (the ELF header, the alignment gaps) is really copied
//     to scratch. It is read back from the private copy before the next
//     chunk reuses scratch and byte-compared with the artifact; the ones
//     placed before the artifact has a name are retained until it has.
//   - Anything else — a staged page the host stored to, a kernel nobody
//     interned — ends the proof, and the stream hashes for real from there
//     on, exactly as the loop always did. The bytes before that point are
//     replayed from the artifact when they were proven equal to it, and
//     from the retained read-backs when no artifact was named yet.
//
// The chunks tile the file, so when every chunk was proven the whole-file
// hash is the artifact's memoised range digest and no byte is hashed.
// Either way the digest compared with the hash page describes the private
// copy, never the shared staging pages it was copied from.
func streamVmlinux(proc *sim.Proc, m *kvm.Machine, in Inputs, want [32]byte, cbit bool) (entry uint64, total int, err error) {
	model := m.Host.Model
	m.Timeline.Begin("verify kernel-stream", proc.Now())
	defer func() { m.Timeline.End("verify kernel-stream", proc.Now()) }()
	var (
		h          hash.Hash     // non-nil once the stream hashes for real
		streamArt  *artifact.Buf // the artifact every chunk so far was proven against
		streamBase int           // where file offset 0 sits in it
		retained   [][]byte      // read-backs of the chunks placed before streamArt had a name
		header     []byte        // the first chunk, from its private copy
	)
	// proven returns the artifact's n bytes for file offset off, nil when
	// the artifact does not reach that far.
	proven := func(off uint64, n int) []byte {
		if end := uint64(streamBase) + off + uint64(n); end <= uint64(streamArt.Len()) {
			return streamArt.Bytes()[end-uint64(n) : end]
		}
		return nil
	}
	// hashFrom gives up the proof at file offset off.
	hashFrom := func(off uint64) {
		h = sha256.New()
		if streamArt != nil {
			h.Write(proven(0, int(off)))
		}
		for _, b := range retained {
			h.Write(b)
		}
	}
	expectOff := uint64(0)
	for i, c := range in.Chunks {
		if c.FileOff != expectOff {
			return 0, 0, fmt.Errorf("verifier: chunk %d at file offset %#x, want %#x (stream must tile the file)", i, c.FileOff, expectOff)
		}
		expectOff += uint64(c.Size)
		dst := c.DestGPA
		if dst == 0 {
			dst = in.ScratchGPA
		}
		if err := m.Mem.GuestCopy(dst, c.StageGPA, c.Size, cbit, false); err != nil {
			return 0, 0, fmt.Errorf("verifier: streaming chunk %d: %w", i, err)
		}
		proc.Sleep(model.Copy(c.Size))
		var data []byte // the chunk read back from its private copy, when it had to be
		if h == nil {
			a, b, err := m.Mem.ArtifactRange(dst, c.Size, cbit)
			if err != nil {
				return 0, 0, err
			}
			switch {
			case a != nil && streamArt == nil:
				// The artifact gets its name if what came before the chunk in
				// the file comes before it in the artifact too.
				if c.FileOff <= uint64(b) && bytes.Equal(a.Bytes()[b-int(c.FileOff):b], bytes.Join(retained, nil)) {
					streamArt, streamBase, retained = a, b-int(c.FileOff), nil
					data = a.Bytes()[b : b+c.Size]
				} else {
					hashFrom(c.FileOff)
				}
			case a != nil && a == streamArt && uint64(b) == uint64(streamBase)+c.FileOff:
			case a == nil && c.Size < guestmem.PageSize:
				if data, err = m.Mem.GuestRead(dst, c.Size, cbit); err != nil {
					return 0, 0, err
				}
				if streamArt == nil {
					retained = append(retained, data)
				} else if !bytes.Equal(data, proven(c.FileOff, c.Size)) {
					hashFrom(c.FileOff)
				}
			default:
				hashFrom(c.FileOff)
			}
		}
		if h != nil {
			if data == nil {
				if data, err = m.Mem.GuestRead(dst, c.Size, cbit); err != nil {
					return 0, 0, err
				}
			}
			h.Write(data)
		}
		if c.FileOff == 0 {
			header = data
		}
		proc.Sleep(model.Hash(c.Size))
		proc.Sleep(model.ELFParsePerSegment)
		total += c.Size
	}
	if h == nil && streamArt == nil {
		hashFrom(expectOff) // nothing but retained chunks: hash those
	}
	var got [32]byte
	if h == nil {
		got = streamArt.RangeDigest(streamBase, total)
	} else {
		h.Sum(got[:0])
	}
	if cbit && got != want {
		return 0, 0, fmt.Errorf("%w: kernel (streamed)", ErrVerification)
	}
	if len(header) < 32 {
		return 0, 0, fmt.Errorf("verifier: stream carried no ELF header")
	}
	// Entry point from the (verified) header copy.
	entry = le64(header[24:])
	return entry, total, nil
}

// BuildChunks prepares the VMM-side chunk list for a serialized vmlinux:
// the regions tile the file, so the verifier's streaming hash equals the
// out-of-band kernel hash.
func BuildChunks(vmlinux []byte, stageBase uint64) ([]Chunk, error) {
	regions, err := elfx.FileRegions(vmlinux)
	if err != nil {
		return nil, err
	}
	chunks := make([]Chunk, 0, len(regions))
	for _, r := range regions {
		c := Chunk{FileOff: r.Off, StageGPA: stageBase + r.Off, Size: r.Len}
		if r.Load {
			c.DestGPA = r.Vaddr
		}
		chunks = append(chunks, c)
	}
	return chunks, nil
}

func cpuidEAX(l sev.Level) uint32 {
	if l.Encrypted() {
		return 1 << 1
	}
	return 0
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// earlyCPUID performs one pre-handler CPUID through the GHCB MSR protocol:
// the guest encodes the request into the MSR, the VMM decodes it, answers
// from the (modeled) hardware leaf, and the guest decodes the response.
func earlyCPUID(m *kvm.Machine, leaf uint32, reg uint8) (uint32, error) {
	msr := ghcb.MSRCPUIDRequest(leaf, reg)
	gotLeaf, gotReg, ok := ghcb.ParseMSRCPUIDRequest(msr)
	if !ok {
		return 0, fmt.Errorf("verifier: GHCB MSR encoding broken")
	}
	var answer uint32
	switch {
	case gotLeaf == 0x8000001F && gotReg == 0:
		answer = cpuidEAX(m.Level)
	case gotLeaf == 0x8000001F && gotReg == 1:
		answer = uint32(pagetable.DefaultCBit)
	default:
		return 0, fmt.Errorf("verifier: unexpected early cpuid %#x/%d", gotLeaf, gotReg)
	}
	val, ok := ghcb.ParseMSRCPUIDResponse(ghcb.MSRCPUIDResponse(answer))
	if !ok {
		return 0, fmt.Errorf("verifier: GHCB MSR response encoding broken")
	}
	return val, nil
}
