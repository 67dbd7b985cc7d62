// Package kvm models the host kernel's virtualization layer: the physical
// Host (one PSP, one RMP, one cost model — shared by every guest on the
// machine) and the per-guest Machine (guest memory, launch context, debug
// port, timeline).
//
// Host-side SEV work the paper attributes to KVM is charged here: RMP
// initialization for guest memory before launch and page pinning for
// encrypted guests (§6.2, "extra cost in the VMM when launching an SEV
// guest because KVM needs to initialize the RMP entries").
package kvm

import (
	"sync"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/ghcb"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/pagetable"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/rmp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
	"github.com/severifast/severifast/internal/trace"
	"github.com/severifast/severifast/internal/virtio"
)

// Host is one physical machine. All concurrently booting guests share it —
// in particular its single-core PSP.
type Host struct {
	Engine *sim.Engine
	Model  costmodel.Model
	PSP    *psp.PSP

	// THP mirrors the §6.1 setting: with transparent huge pages enabled,
	// guests validate memory with 2 MiB pvalidate operations.
	THP bool

	// Telemetry, when set, makes every machine's timeline a span scope
	// on the booting proc's track. The engine's tracer is not needed for
	// that; installed too, it adds only scheduler spans (PSP queueing).
	Telemetry *telemetry.Registry

	// OnNewMachine, when set, observes every machine created on this
	// host, synchronously from NewMachine before any staging happens.
	// The chaos engine uses it to find booting guests and schedule
	// host-side tampering against their memory at chosen virtual times;
	// production hosts leave it nil.
	OnNewMachine func(*Machine)

	// HostStats accumulates this host's wall-clock stage timings and
	// cache counters. Every machine's guest memory records into it, so
	// two hosts in one process never interleave counters.
	HostStats *telemetry.HostRecorder

	// pageTables is PageTables' memo, one identity map per configuration,
	// collected with the host.
	ptMu       sync.Mutex
	pageTables map[pagetable.Config]*artifact.Buf

	// mem holds the guest memory of this host's released guests until its
	// next guests draw it (guestmem.Memory.Release).
	mem guestmem.FreeLists
}

// PageTables returns the identity map pagetable.Build makes for cfg, as an
// artifact built once per configuration on this host: every guest of one
// size and C-bit setting writes the same three pages, so the boot verifier
// writes them from here and the guests share them copy-on-write.
func (h *Host) PageTables(cfg pagetable.Config) *artifact.Buf {
	h.ptMu.Lock()
	defer h.ptMu.Unlock()
	t := h.pageTables[cfg]
	if t == nil {
		if h.pageTables == nil {
			h.pageTables = make(map[pagetable.Config]*artifact.Buf)
		}
		t = artifact.Of(pagetable.Build(cfg))
		h.pageTables[cfg] = t
	}
	return t
}

// NewHost assembles a host with a deterministic PSP identity.
func NewHost(eng *sim.Engine, model costmodel.Model, seed int64) *Host {
	return &Host{
		Engine:    eng,
		Model:     model,
		PSP:       psp.New(model, seed),
		THP:       true,
		HostStats: telemetry.NewHostRecorder(),
	}
}

// PvalidatePageSize returns the pvalidate granularity the guest uses.
func (h *Host) PvalidatePageSize() int {
	if h.THP {
		return 2 << 20
	}
	return guestmem.PageSize
}

// Machine is one guest VM under construction or running.
type Machine struct {
	Host     *Host
	Mem      *guestmem.Memory
	Level    sev.Level
	Timeline *trace.Timeline

	// Launch is the PSP launch context for SEV guests (nil otherwise).
	Launch *psp.GuestContext

	// Devices are the virtio-mmio devices the VMM attached (blk, net).
	Devices []*virtio.Device

	// RMP is this guest's slice of the system-wide reverse map table.
	// The real RMP is indexed by *system* physical address; since each
	// guest's backing pages are disjoint, a per-guest table is an exact
	// model of the guest's view.
	RMP *rmp.Table

	// VCExits counts world switches taken for timing events and I/O.
	VCExits uint64

	// ghcbGPA is the guest's registered GHCB page (0 until the boot
	// verifier establishes it).
	ghcbGPA uint64
	ghcb    *ghcb.GHCB
}

// SetGHCB registers the guest's communication page; later debug events
// travel through the page protocol instead of the bare MSR.
func (m *Machine) SetGHCB(gpa uint64, g *ghcb.GHCB) {
	m.ghcbGPA = gpa
	m.ghcb = g
}

// NewMachine creates a guest of the given size, its memory drawn from what
// the host's released guests gave back before anything is allocated. The
// timeline's zero point is the current virtual time (VMM exec).
func (h *Host) NewMachine(proc *sim.Proc, size uint64, level sev.Level) *Machine {
	m := &Machine{
		Host:     h,
		Mem:      h.mem.New(size, h.HostStats),
		Level:    level,
		Timeline: trace.NewScoped(h.Telemetry, proc.Name(), proc.Now()),
	}
	if h.OnNewMachine != nil {
		h.OnNewMachine(m)
	}
	return m
}

// PrepSEVHost performs the KVM-side SEV setup that precedes any PSP
// command: RMP entry initialization covering guest memory (SNP) and page
// pinning (encrypted pages cannot be transparently moved, §6.2).
func (m *Machine) PrepSEVHost(proc *sim.Proc) {
	proc.Sleep(m.Host.Model.KVMSNPVMCreate)
	if m.Level.HasRMP() {
		proc.Sleep(m.Host.Model.RMPInit(int(m.Mem.Size())))
	}
	proc.Sleep(m.Host.Model.Pin(int(m.Mem.Size())))
	m.Mem.NotePinned(int(m.Mem.Size()))
	// Per-guest PSP firmware setup (SNP context, RMPUPDATEs, GHCB
	// registration) — serialized on the shared PSP like every command.
	m.Host.PSP.Resource().UseLabeled(proc, m.Host.Model.PSPGuestInit, "GUEST_INIT")
}

// StartLaunch opens the PSP launch context (LAUNCH_START) and, under SNP,
// attaches the shared RMP to this guest's memory.
func (m *Machine) StartLaunch(proc *sim.Proc, policy sev.Policy) error {
	ctx, err := m.Host.PSP.LaunchStart(proc, m.Mem, m.Level, policy)
	if err != nil {
		return err
	}
	m.Launch = ctx
	if m.Level.HasRMP() {
		// Pages stay hypervisor-owned until either SNP_LAUNCH_UPDATE
		// transitions them (pre-encrypted launch pages) or the guest takes
		// ownership via page-state-change + pvalidate. Shared staging thus
		// remains host-writable — which is exactly why measured direct
		// boot has to verify what it copies.
		m.RMP = rmp.New()
		m.Mem.AttachRMP(m.RMP, ctx.ASID())
	}
	return nil
}

// DebugEvent is the guest writing a timing event to the debug port (§6.1
// methodology). The write is intercepted by the VMM and stamped with the
// current virtual time. For SEV-ES/SNP guests this costs a world switch;
// once the guest has a GHCB, the event really travels through the page
// protocol (#VC handler stages an IOIO exit, the VMM decodes the page).
// Before the GHCB exists, the raw MSR write is intercepted instead — the
// paper's workaround for events before #VC handlers are installed.
func (m *Machine) DebugEvent(proc *sim.Proc, ev sev.TimingEvent) {
	if m.Level >= sev.ES {
		proc.Sleep(m.Host.Model.VCExit)
		m.VCExits++
		if m.ghcb != nil {
			if err := m.ghcb.Write(ghcb.Exit{
				Code:     ghcb.ExitIOIO,
				Info1:    0x80, // the debug port
				RAX:      ev.MSRValue(),
				ShareRAX: true,
			}); err != nil {
				panic("kvm: staging debug-port exit: " + err.Error())
			}
			view, err := ghcb.ReadFromHost(m.Mem, m.ghcbGPA)
			if err != nil {
				panic("kvm: decoding GHCB: " + err.Error())
			}
			decoded, ok := sev.EventFromMSR(view.RAX)
			if !ok || decoded != ev {
				panic("kvm: debug event corrupted in the GHCB round trip")
			}
			m.Timeline.Record(proc.Now(), decoded)
			return
		}
	}
	m.Timeline.Record(proc.Now(), ev)
}
