package bzimage

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzVMLinux is a small compressible stand-in kernel for building seeds.
func fuzzVMLinux() []byte {
	b := make([]byte, 32*1024)
	for i := range b {
		b[i] = byte(i>>3) ^ byte(i)
	}
	return b
}

// FuzzParse throws hostile setup headers at the bzImage parser. Parse and
// extractVMLinux must never panic or read out of bounds regardless of what
// the boot sector claims (setup_sects, payload offset/length, container
// size fields are all attacker-controlled in a hosted image).
func FuzzParse(f *testing.F) {
	img, err := Build(fuzzVMLinux(), CodecLZ4, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:setupSize])             // setup block only
	f.Add(img[:len(img)-1])            // truncated payload
	f.Add(make([]byte, setupSize))     // zeros: no boot flag
	f.Add(bytes.Repeat(img, 1)[:1024]) // short

	// Corrupted variants as explicit seeds.
	flag := append([]byte(nil), img...)
	binary.LittleEndian.PutUint16(flag[0x1FE:], 0xAA54) // wrong boot flag
	f.Add(flag)
	hdr := append([]byte(nil), img...)
	copy(hdr[0x202:], "XXXX") // wrong HdrS magic
	f.Add(hdr)
	sects := append([]byte(nil), img...)
	sects[0x1F1] = 0xFF // setup_sects overruns the image
	f.Add(sects)
	payOff := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(payOff[0x250:], 0xFFFFFFF0) // payload off the end
	f.Add(payOff)
	payLen := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(payLen[0x254:], 0xFFFFFFF0)
	f.Add(payLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Parse(data)
		if err != nil {
			return
		}
		// Whatever parsed must also extract or fail cleanly — the guest
		// bootstrap runs exactly this on the staged image.
		if _, err := extractVMLinux(data); err == nil {
			if info.Uncompressed < 0 {
				t.Fatal("negative uncompressed size on extractable image")
			}
		}
	})
}

// FuzzDecompressPayload targets the payload container parser directly:
// arbitrary container bytes (magic, codec byte, size field, body) must
// decode or error, never panic, and never return a slice that disagrees
// with the container's declared size.
func FuzzDecompressPayload(f *testing.F) {
	img, err := Build(fuzzVMLinux(), CodecLZ4, 1)
	if err != nil {
		f.Fatal(err)
	}
	info, err := Parse(img)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(info.Payload)
	f.Add([]byte("SVPL"))
	f.Add(append([]byte("SVPL"), 0xFF, 0, 0, 0, 0, 0, 0, 0, 0))
	truncated := append([]byte(nil), info.Payload[:len(info.Payload)/2]...)
	f.Add(truncated)
	corrupt := append([]byte(nil), info.Payload...)
	if len(corrupt) > 40 {
		corrupt[40] ^= 0xFF
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := DecompressPayload(payload)
		if err != nil {
			return
		}
		_, usize, err := sniffPayload(payload)
		if err != nil {
			t.Fatalf("DecompressPayload succeeded but sniff failed: %v", err)
		}
		if len(out) != usize {
			t.Fatalf("decoded %d bytes, container declares %d", len(out), usize)
		}
	})
}
