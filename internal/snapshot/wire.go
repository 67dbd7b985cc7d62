package snapshot

// A snapshot's on-disk form, so warm pools survive orchestrator restarts
// and snapshots can be shipped between hosts. The format is deliberately
// rigid — fixed magic, sorted whole-page records, no varints — and Decode
// validates every field against the declared guest size before touching
// page data, so truncated or corrupted bytes fail with ErrCorrupt instead
// of restoring a torn guest.
//
// Layout (integers little-endian):
//
//	magic "SVFSNAP1" | flags u8 (bit0: SEV) | size u64 | npages u32
//	npages × ( pn u64 | private u8 | data[PageSize] )
//
// Records are sorted by page number, so Encode is deterministic: equal
// images produce equal bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/severifast/severifast/internal/guestmem"
)

// ErrCorrupt reports snapshot bytes that fail validation.
var ErrCorrupt = errors.New("snapshot: image bytes corrupt")

var wireMagic = [8]byte{'S', 'V', 'F', 'S', 'N', 'A', 'P', '1'}

const wireHeaderLen = 8 + 1 + 8 + 4
const wireRecordLen = 8 + 1 + guestmem.PageSize

// maxWireGuestSize caps the declared guest size a decoder will accept
// (1 TiB). The size field is attacker-controlled input; without a cap an
// oversized value silently legitimizes absurd page counts and, on 32-bit
// hosts, overflows the expected-length arithmetic. No simulated guest
// approaches it.
const maxWireGuestSize = 1 << 40

// Encode serializes an image. Captured pages are always whole pages, so
// every record is fixed-size.
func Encode(img *Image) ([]byte, error) {
	pns := make([]uint64, 0, len(img.Pages))
	for pn := range img.Pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })

	out := make([]byte, 0, wireHeaderLen+len(pns)*wireRecordLen)
	out = appendWireHeader(out, img.SEV, img.Size, len(pns))
	for _, pn := range pns {
		data := img.Pages[pn]
		if len(data) != guestmem.PageSize {
			return nil, fmt.Errorf("snapshot: page %d holds %d bytes, want %d", pn, len(data), guestmem.PageSize)
		}
		out = appendPageEntry(out, pn, img.Private[pn])
		out = append(out, data...)
	}
	return out, nil
}

// appendWireHeader appends the fixed header: magic, flags, guest size,
// page count.
func appendWireHeader(out []byte, sev bool, size uint64, npages int) []byte {
	out = append(out, wireMagic[:]...)
	var flags byte
	if sev {
		flags |= 1
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint64(out, size)
	return binary.LittleEndian.AppendUint32(out, uint32(npages))
}

// appendPageEntry appends the part of a page record that precedes its
// data: page number and privacy byte.
func appendPageEntry(out []byte, pn uint64, private bool) []byte {
	out = binary.LittleEndian.AppendUint64(out, pn)
	if private {
		return append(out, 1)
	}
	return append(out, 0)
}

// Decode parses Encode's output. Every structural property is checked —
// magic, flags, page count against both the declared guest size and the
// actual byte count, page numbers in range and strictly increasing — so a
// decoded image is safe to hand to Restore.
func Decode(b []byte) (*Image, error) {
	if len(b) < wireHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrCorrupt, len(b), wireHeaderLen)
	}
	if [8]byte(b[:8]) != wireMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	flags := b[8]
	if flags&^byte(1) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	le := binary.LittleEndian
	size := le.Uint64(b[9:])
	if size == 0 || size%guestmem.PageSize != 0 {
		return nil, fmt.Errorf("%w: guest size %d is not a positive page multiple", ErrCorrupt, size)
	}
	if size > maxWireGuestSize {
		return nil, fmt.Errorf("%w: guest size %d exceeds the %d-byte cap", ErrCorrupt, size, uint64(maxWireGuestSize))
	}
	npages := uint64(le.Uint32(b[17:]))
	if npages > size/guestmem.PageSize {
		return nil, fmt.Errorf("%w: %d pages exceeds guest capacity %d", ErrCorrupt, npages, size/guestmem.PageSize)
	}
	// Expected-length arithmetic stays in uint64: npages is bounded by the
	// size cap above (≤ 2^28), so the product cannot overflow, and a
	// truncated or padded buffer fails here before any record is touched.
	if want := uint64(wireHeaderLen) + npages*uint64(wireRecordLen); uint64(len(b)) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d pages, want %d", ErrCorrupt, len(b), npages, want)
	}

	img := &Image{
		Size:    size,
		Pages:   make(map[uint64][]byte, int(npages)),
		Private: make(map[uint64]bool, int(npages)),
		SEV:     flags&1 != 0,
	}
	prev := int64(-1)
	for i := uint64(0); i < npages; i++ {
		rec := b[uint64(wireHeaderLen)+i*uint64(wireRecordLen):]
		pn := le.Uint64(rec)
		if pn >= size/guestmem.PageSize {
			return nil, fmt.Errorf("%w: page %d outside guest of %d pages", ErrCorrupt, pn, size/guestmem.PageSize)
		}
		if int64(pn) <= prev {
			return nil, fmt.Errorf("%w: page records not strictly increasing at %d", ErrCorrupt, pn)
		}
		prev = int64(pn)
		switch rec[8] {
		case 0:
		case 1:
			img.Private[pn] = true
		default:
			return nil, fmt.Errorf("%w: page %d privacy byte %#x", ErrCorrupt, pn, rec[8])
		}
		if img.Private[pn] && !img.SEV {
			return nil, fmt.Errorf("%w: private page %d in a non-SEV snapshot", ErrCorrupt, pn)
		}
		img.Pages[pn] = append([]byte(nil), rec[9:9+guestmem.PageSize]...)
	}
	return img, nil
}
