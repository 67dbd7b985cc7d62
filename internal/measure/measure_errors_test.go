package measure

import (
	"errors"
	"strings"
	"testing"
)

// hexDigest is a syntactically valid 32-byte digest for building lines.
const hexDigest = "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"

func TestParseHashFileErrorPaths(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"truncated digest", "kernel " + hexDigest[:40] + "\ninitrd " + hexDigest + "\n", "bad digest"},
		{"odd length hex", "kernel " + hexDigest[:41] + "\ninitrd " + hexDigest + "\n", "bad digest"},
		{"non-hex digest", "kernel " + strings.Repeat("zz", 32) + "\n", "bad digest"},
		{"digest too long", "kernel " + hexDigest + "ff\n", "bad digest"},
		{"missing digest", "kernel\n", "malformed"},
		{"three fields", "kernel " + hexDigest + " trailing\n", "malformed"},
		{"unknown component", "rootfs " + hexDigest + "\n", "unknown component"},
		{"only kernel", "kernel " + hexDigest + "\n", "missing kernel or initrd"},
		{"only initrd", "initrd " + hexDigest + "\n", "missing kernel or initrd"},
		{"only cmdline", "cmdline " + hexDigest + "\n", "missing kernel or initrd"},
		{"empty file", "", "missing kernel or initrd"},
		{"comments only", "# nothing here\n\n", "missing kernel or initrd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseHashFile(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseHashFileCmdlineOptional pins the documented asymmetry: kernel
// and initrd entries are mandatory, cmdline defaults to the zero hash.
func TestParseHashFileCmdlineOptional(t *testing.T) {
	h, err := parseHashFile(strings.NewReader(
		"kernel " + hexDigest + "\ninitrd " + hexDigest + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Cmdline != [32]byte{} {
		t.Fatal("absent cmdline entry should leave a zero hash")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("disk gone") }

func TestParseHashFilePropagatesReadError(t *testing.T) {
	if _, err := parseHashFile(failingReader{}); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("read error not propagated: %v", err)
	}
}

func TestParseHashPageErrorPaths(t *testing.T) {
	h := HashComponents([]byte("k"), []byte("i"), "c")
	good := h.HashPage()

	t.Run("truncated below header", func(t *testing.T) {
		for _, n := range []int{0, 1, 9, 10, 16, 111} {
			if _, err := ParseHashPage(good[:n]); err == nil {
				t.Errorf("accepted %d-byte page", n)
			}
		}
	})
	t.Run("exactly minimal size parses", func(t *testing.T) {
		got, err := ParseHashPage(good[:112])
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatal("112-byte prefix did not round-trip the hashes")
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := ParseHashPage(bad); err == nil {
			t.Fatal("accepted corrupted magic")
		}
		lower := append([]byte(nil), good...)
		copy(lower, []byte("svf-hashes"))
		if _, err := ParseHashPage(lower); err == nil {
			t.Fatal("magic match must be case-sensitive")
		}
	})
	t.Run("corrupted digest bytes still parse", func(t *testing.T) {
		// The page carries no checksum over the digests themselves — the
		// page is covered by the launch measurement instead. Corruption
		// must surface as different hashes, not a parse error.
		bad := append([]byte(nil), good...)
		bad[20] ^= 0xFF
		got, err := ParseHashPage(bad)
		if err != nil {
			t.Fatal(err)
		}
		if got == h {
			t.Fatal("corrupted digest parsed back unchanged")
		}
	})
}
