// Package sev holds types shared across the SEV stack: feature levels,
// guest policy, the launch-digest page-info records, and the GHCB MSR
// protocol values used for early-boot timing events.
package sev

import "fmt"

// Level is the SEV feature generation a guest is launched with.
type Level int

// Feature generations. SNP is a superset of ES, which is a superset of
// base SEV (paper §2.2).
const (
	None Level = iota // non-confidential guest
	SEV               // memory encryption
	ES                // + encrypted register state
	SNP               // + RMP integrity protection
)

func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case SEV:
		return "sev"
	case ES:
		return "sev-es"
	case SNP:
		return "sev-snp"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel converts a string flag value to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none", "":
		return None, nil
	case "sev":
		return SEV, nil
	case "sev-es", "es":
		return ES, nil
	case "sev-snp", "snp":
		return SNP, nil
	}
	return None, fmt.Errorf("sev: unknown level %q", s)
}

// Encrypted reports whether guests at this level have encrypted memory.
func (l Level) Encrypted() bool { return l >= SEV }

// HasRMP reports whether this level enforces the reverse map table.
func (l Level) HasRMP() bool { return l == SNP }

// Policy is the guest policy included in LAUNCH_START and reflected in the
// attestation report. A mismatch between the policy the guest owner
// expects and the one in the report fails attestation.
type Policy struct {
	NoDebug       bool // host may not decrypt guest memory for debugging
	NoKeySharing  bool // guest key may not be shared with another guest
	ESRequired    bool // guest must run with encrypted state
	MinABIMajor   uint8
	MinABIMinor   uint8
	SingleSocket  bool
	SMTProhibited bool
}

// DefaultPolicy is the policy all experiments launch with.
func DefaultPolicy() Policy {
	return Policy{NoDebug: true, NoKeySharing: true, ESRequired: true, MinABIMajor: 1}
}

// Encode packs the policy into its ABI bit layout (used in measurements
// and reports, so it must be deterministic).
func (p Policy) Encode() uint64 {
	var v uint64
	if p.NoDebug {
		v |= 1 << 0
	}
	if p.NoKeySharing {
		v |= 1 << 1
	}
	if p.ESRequired {
		v |= 1 << 2
	}
	if p.SingleSocket {
		v |= 1 << 3
	}
	if p.SMTProhibited {
		v |= 1 << 4
	}
	v |= uint64(p.MinABIMinor) << 8
	v |= uint64(p.MinABIMajor) << 16
	return v
}

// DecodePolicy unpacks Encode's layout.
func DecodePolicy(v uint64) Policy {
	return Policy{
		NoDebug:       v&(1<<0) != 0,
		NoKeySharing:  v&(1<<1) != 0,
		ESRequired:    v&(1<<2) != 0,
		SingleSocket:  v&(1<<3) != 0,
		SMTProhibited: v&(1<<4) != 0,
		MinABIMinor:   uint8(v >> 8),
		MinABIMajor:   uint8(v >> 16),
	}
}

// PageType tags a LAUNCH_UPDATE region in the digest chain, mirroring the
// SNP ABI's page-info types.
type PageType uint8

// Page types contributing to the launch digest.
const (
	PageNormal  PageType = 1 // guest code/data
	PageVMSA    PageType = 2 // vCPU state (SEV-ES and up)
	PageSecrets PageType = 5
	PageCPUID   PageType = 6
)

// GHCB MSR protocol: magic values the guest writes to the GHCB MSR, which
// the VMM always intercepts. The paper's methodology (§6.1) uses these
// for timing events before #VC handlers are installed.
const (
	GHCBTimingEventBase uint64 = 0x53_56_46_00 // "SVF" + event id
)

// TimingEvent ids written via the GHCB MSR / debug port by guest-side
// stages. The trace package maps them to span boundaries.
type TimingEvent uint8

// Event points on the boot path, in order of occurrence.
const (
	EvGuestEntry     TimingEvent = iota + 1 // first instruction in guest
	EvVerifierStart                         // boot verifier begins
	EvVerifierDone                          // components verified & loaded
	EvBootstrapStart                        // bzImage loader begins
	EvKernelEntry                           // vmlinux entry point
	EvInitExec                              // /sbin/init executed
	EvAttestStart                           // attestation begins
	EvAttestDone                            // secret received
	EvFirmwareSEC                           // OVMF phase boundaries
	EvFirmwarePEI
	EvFirmwareDXE
	EvFirmwareBDS
)

// MSRValue encodes a timing event as a GHCB MSR write value.
func (e TimingEvent) MSRValue() uint64 { return GHCBTimingEventBase | uint64(e) }

// EventFromMSR decodes an MSR value; ok is false for non-timing writes.
func EventFromMSR(v uint64) (TimingEvent, bool) {
	if v&^uint64(0xFF) != GHCBTimingEventBase {
		return 0, false
	}
	return TimingEvent(v & 0xFF), true
}
