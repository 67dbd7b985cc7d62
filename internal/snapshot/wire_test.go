package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// captureSEV builds a real SEV snapshot to exercise the wire format on.
func captureSEV(t *testing.T) *Image {
	t.Helper()
	var img *Image
	run(t, func(p *sim.Proc, h *kvm.Host) {
		src := sevGuest(t, p, h, payload(4))
		var err error
		if img, err = Capture(p, src); err != nil {
			t.Fatal(err)
		}
	})
	return img
}

func TestWireRoundTrip(t *testing.T) {
	img := captureSEV(t)
	b, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != img.Size || got.SEV != img.SEV {
		t.Fatalf("header lost: got size %d sev %v", got.Size, got.SEV)
	}
	if !reflect.DeepEqual(got.Pages, img.Pages) || !reflect.DeepEqual(got.Private, img.Private) {
		t.Fatal("pages lost in round trip")
	}
	// Deterministic encoding: equal images, equal bytes.
	b2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("encode is not deterministic")
	}
}

// TestWireDecodedImageRestores closes the loop: a snapshot that went
// through bytes still warm-starts a shared-key clone.
func TestWireDecodedImageRestores(t *testing.T) {
	run(t, func(p *sim.Proc, h *kvm.Host) {
		data := payload(5)
		src := sevGuest(t, p, h, data)
		if _, err := src.Launch.LaunchFinish(p); err != nil {
			t.Fatal(err)
		}
		img, err := Capture(p, src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		dst := h.NewMachine(p, src.Mem.Size(), sev.SNP)
		pol := sev.DefaultPolicy()
		pol.NoKeySharing = false
		ctx, err := h.PSP.LaunchStartFork(p, dst.Mem, src.Launch, sev.SNP, pol)
		if err != nil {
			t.Fatal(err)
		}
		dst.Launch = ctx
		if err := restoreCopy(p, dst, decoded); err != nil {
			t.Fatal(err)
		}
		if err := Verify(src, dst, []uint64{0x10000}, map[uint64][]byte{0x10000: data[:64]}); err != nil {
			t.Fatalf("decoded snapshot does not restore: %v", err)
		}
	})
}

// TestWireTruncationsRefused: every strict prefix of a valid encoding is
// corrupt — no prefix may decode to a smaller-but-plausible image.
func TestWireTruncationsRefused(t *testing.T) {
	b, err := Encode(captureSEV(t))
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive over the header, sampled over the (large) page records.
	lengths := make([]int, 0, 64)
	for n := 0; n < wireHeaderLen+2; n++ {
		lengths = append(lengths, n)
	}
	for n := wireHeaderLen + 2; n < len(b); n += wireRecordLen/3 + 1 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, len(b)-1)
	for _, n := range lengths {
		if _, err := Decode(b[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode of %d/%d-byte prefix: %v, want ErrCorrupt", n, len(b), err)
		}
	}
}

func TestWireCorruptionsRefused(t *testing.T) {
	img := captureSEV(t)
	valid, err := Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	mutate := func(name string, fn func(b []byte)) {
		b := append([]byte(nil), valid...)
		fn(b)
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] ^= 0xFF })
	mutate("unknown flags", func(b []byte) { b[8] |= 0x80 })
	mutate("size not page multiple", func(b []byte) { le.PutUint64(b[9:], img.Size+1) })
	mutate("zero size", func(b []byte) { le.PutUint64(b[9:], 0) })
	mutate("count over capacity", func(b []byte) { le.PutUint32(b[17:], uint32(img.Size/guestmem.PageSize)+1) })
	mutate("count under byte length", func(b []byte) { le.PutUint32(b[17:], le.Uint32(b[17:])-1) })
	mutate("page out of range", func(b []byte) { le.PutUint64(b[wireHeaderLen:], img.Size/guestmem.PageSize) })
	mutate("duplicate page", func(b []byte) {
		// Make the second record repeat the first page number.
		copy(b[wireHeaderLen+wireRecordLen:], b[wireHeaderLen:wireHeaderLen+8])
	})
	mutate("bad privacy byte", func(b []byte) { b[wireHeaderLen+8] = 7 })

	// Trailing bytes need a grown slice, not an in-place mutation.
	if _, err := Decode(append(append([]byte(nil), valid...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: Decode = %v, want ErrCorrupt", err)
	}
	// A private page in a non-SEV snapshot contradicts the flags.
	mutate("private page without SEV", func(b []byte) { b[8] &^= 1 })
}

func TestEncodeRejectsPartialPage(t *testing.T) {
	img := &Image{
		Size:    1 << 20,
		Pages:   map[uint64][]byte{3: make([]byte, 100)},
		Private: map[uint64]bool{},
	}
	if _, err := Encode(img); err == nil {
		t.Fatal("Encode accepted a partial page")
	}
}
