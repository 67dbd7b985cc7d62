package snapshot

// The sealed container wraps the wire format with an integrity trailer,
// for snapshots that leave the process (warm pools on disk, shipping
// between hosts). Decode already rejects structurally invalid bytes; the
// seal additionally rejects structurally *valid* bytes that are not the
// bytes that were written — a bit flip inside page data would otherwise
// decode cleanly and restore a silently torn guest. The trailer is a
// plain SHA-256 over the payload: this is tamper *detection* for the
// snapshot transport, not authentication — a host that can rewrite the
// snapshot can rewrite the trailer, and catching that host is the launch
// measurement's job, not the container's.
//
// The sealed bytes are the form a snapshot takes when it leaves the
// process or is replayed as ciphertext. Inside one process a warm parent
// is a Fork, and what stands in for the sealed bytes is Fork.Seal: the
// same header and page table, with the page data replaced by the digests
// that already root it. A fabric that moves the container is charged
// SealedLen, the length the encoding would have had.

import (
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"hash"

	"github.com/severifast/severifast/internal/guestmem"
)

const sealTrailerLen = sha256.Size

// SealedDeltaValidateLen is the byte count a host must actually examine
// to delta-validate a sealed blob whose content digest it already knows:
// the fixed wire header plus the seal trailer. Content-addressed
// transports (internal/cluster's replicator) verify the payload digest
// during transfer, so adoption re-checks only the envelope instead of
// re-hashing the full image.
const SealedDeltaValidateLen = wireHeaderLen + sealTrailerLen

// SealedLen is len(EncodeSealed(img)) for an image of npages pages: what
// a transport that ships the container is charged for.
func SealedLen(npages int) int {
	return wireHeaderLen + npages*wireRecordLen + sealTrailerLen
}

// Seal is the fork container's content address: SHA-256 over the wire
// header fields (magic, SEV flag, guest size, page count), the page table
// (page number and privacy byte of every resident page, in order), the
// fork root, the donor's launch digest and the donor's key identity. The
// root is verified first — O(1) while nothing its pages alias has been
// corrupted, re-derived from an honest re-hash after artifact.Corrupt — so
// a container whose dirty blob or aliased artifacts were tampered since
// capture has no seal (guestmem.ErrForkTampered) rather than a stale one.
//
// Everything a fork of this container will alias or inherit is under the
// seal, so a host adopting the container checks the seal of the thing it
// is about to use instead of decoding bytes it will not read again. The
// key identity keeps two captures of the same image apart: their plain
// text, page table and launch digest are equal, and only the donor's
// fresh key tells a re-seeded publication from the one it replaces.
func (f *Fork) Seal() ([32]byte, error) {
	if err := f.Src.Verify(); err != nil {
		return [32]byte{}, err
	}
	t := sealStream{h: sha256.New()}
	t.n = len(appendWireHeader(t.buf[:0], f.SEV, f.Src.Size(), f.Src.NumPages()))
	f.Src.PageRuns(t.pages)
	root, keyID := f.Src.Root(), f.Src.KeyID()
	t.write(root[:])
	t.write(f.Digest[:])
	t.write(keyID[:])
	t.flush()
	return [32]byte(t.h.Sum(nil)), nil
}

// pageEntryLen is the length of a page record without its data: page
// number and privacy byte.
const pageEntryLen = wireRecordLen - guestmem.PageSize

// sealStream feeds the seal's fields to h through a buffer of 64 page
// entries, the page table written as the fork source's runs are read, so
// no page list and no buffer of the container's length is built.
type sealStream struct {
	h   hash.Hash
	buf [64 * pageEntryLen]byte
	n   int
}

// pages writes the page-table entries of count pages from page number pn.
func (t *sealStream) pages(pn, count uint64, private bool) {
	for i := uint64(0); i < count; i++ {
		if t.n+pageEntryLen > len(t.buf) {
			t.flush()
		}
		t.n = len(appendPageEntry(t.buf[:t.n], pn+i, private))
	}
}

// write appends one fixed field, at most a buffer's length.
func (t *sealStream) write(b []byte) {
	if t.n+len(b) > len(t.buf) {
		t.flush()
	}
	t.n += copy(t.buf[t.n:], b)
}

// flush hands the buffered bytes to h.
func (t *sealStream) flush() {
	t.h.Write(t.buf[:t.n])
	t.n = 0
}

// EncodeSealed serializes an image and appends the SHA-256 of the payload
// as a trailer. DecodeSealed is its inverse.
func EncodeSealed(img *Image) ([]byte, error) {
	payload, err := Encode(img)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	return append(payload, sum[:]...), nil
}

// DecodeSealed verifies the integrity trailer and decodes the payload.
// Any truncation, extension, or bit flip anywhere in the container —
// header, page data, or trailer — fails with ErrCorrupt.
func DecodeSealed(b []byte) (*Image, error) {
	if len(b) < sealTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte seal trailer", ErrCorrupt, len(b), sealTrailerLen)
	}
	payload, trailer := b[:len(b)-sealTrailerLen], b[len(b)-sealTrailerLen:]
	sum := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(sum[:], trailer) != 1 {
		return nil, fmt.Errorf("%w: seal digest mismatch", ErrCorrupt)
	}
	return Decode(payload)
}
