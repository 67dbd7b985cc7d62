package kbs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// TCB is the platform's trusted-computing-base version vector: the
// firmware/microcode component versions AMD folds into VCEK derivation.
// Because the VCEK is derived *from* these versions, a report signed by a
// chip running old firmware verifies only against an old-TCB VCEK — which
// is exactly what lets a relying party enforce a minimum TCB ("Insecure
// Despite Proven Updated" shows why this must be policy, not advice).
type TCB struct {
	BootLoader uint8
	TEE        uint8
	SNP        uint8
	Microcode  uint8
}

// Encode packs the vector into the 64-bit form carried in VCEK
// certificates (psp.Cert.TCBVersion).
func (t TCB) Encode() uint64 {
	return uint64(t.BootLoader)<<56 | uint64(t.TEE)<<48 |
		uint64(t.SNP)<<8 | uint64(t.Microcode)
}

// AtLeast reports whether every component of t is >= the corresponding
// component of min — the component-wise comparison AMD specifies (a
// platform is only current if *all* components are current).
func (t TCB) AtLeast(min TCB) bool {
	return t.BootLoader >= min.BootLoader &&
		t.TEE >= min.TEE &&
		t.SNP >= min.SNP &&
		t.Microcode >= min.Microcode
}

// String renders "bootloader.tee.snp.microcode".
func (t TCB) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", t.BootLoader, t.TEE, t.SNP, t.Microcode)
}

// ParseTCB parses String's output.
func ParseTCB(s string) (TCB, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return TCB{}, fmt.Errorf("kbs: TCB %q: want 4 dot-separated components", s)
	}
	var v [4]uint8
	for i, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return TCB{}, fmt.Errorf("kbs: TCB %q: component %d: %w", s, i, err)
		}
		v[i] = uint8(n)
	}
	return TCB{BootLoader: v[0], TEE: v[1], SNP: v[2], Microcode: v[3]}, nil
}

// ErrTCBFloor reports that a TCB has no predecessor (all components zero).
var ErrTCBFloor = errors.New("kbs: TCB has no predecessor")

// Predecessor returns a strictly older TCB by decrementing the least
// significant nonzero component (microcode first). The fault-injection
// layer uses it to mint stale-TCB platform identities.
func (t TCB) Predecessor() (TCB, error) {
	switch {
	case t.Microcode > 0:
		t.Microcode--
	case t.SNP > 0:
		t.SNP--
	case t.TEE > 0:
		t.TEE--
	case t.BootLoader > 0:
		t.BootLoader--
	default:
		return t, ErrTCBFloor
	}
	return t, nil
}
