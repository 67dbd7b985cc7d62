package artifact

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/telemetry"
)

// hashed is how many bytes the artifact layer has hashed in this process.
func hashed() int64 {
	_, counters := telemetry.DefaultHostRecorder.Snapshot()
	return counters["artifact.digest.bytes_hashed"]
}

// ramp is n bytes no other buffer in the process shares a backing array
// with.
func ramp(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestDigestsAreSHA256: the whole-buffer and range digests are
// crypto/sha256's, the first ask hashes and a repeat does not.
func TestDigestsAreSHA256(t *testing.T) {
	data := ramp(10000)
	b := Of(data)
	before := hashed()
	if got := b.Digest(); got != sha256.Sum256(data) {
		t.Fatal("Digest differs from sha256.Sum256")
	}
	if got := b.RangeDigest(100, 5000); got != sha256.Sum256(data[100:5100]) {
		t.Fatal("RangeDigest differs from sha256.Sum256 of the range")
	}
	if got := b.RangeDigest(0, len(data)); got != sha256.Sum256(data) {
		t.Fatal("RangeDigest of the whole buffer differs from sha256.Sum256")
	}
	if n := hashed() - before; n != 15000 {
		t.Fatalf("a buffer, a range and the buffer again hashed %d bytes, want 15000", n)
	}
	b.Digest()
	b.RangeDigest(100, 5000)
	if n := hashed() - before; n != 15000 {
		t.Fatalf("repeats hashed %d more bytes, want none", n-15000)
	}
}

// TestCorruptDropsEveryMemo: after Corrupt the whole-buffer digest, a range
// digest and a derived value are computed again from the changed bytes,
// and Corruptions counts the change; a zero mask changes nothing.
func TestCorruptDropsEveryMemo(t *testing.T) {
	data := ramp(8192)
	b := Of(data)
	builds := 0
	derive := func() (any, error) {
		builds++
		return sha256.Sum256(data), nil
	}
	b.Digest()
	b.RangeDigest(0, 4096)
	if _, err := b.Derived("sum", derive); err != nil {
		t.Fatal(err)
	}

	b.Corrupt(10, 0)
	if b.Corruptions() != 0 {
		t.Fatal("a zero mask counted as a corruption")
	}
	b.Corrupt(10, 0x80)
	if b.Corruptions() != 1 {
		t.Fatalf("Corruptions = %d after one Corrupt, want 1", b.Corruptions())
	}
	before := hashed()
	if got := b.Digest(); got != sha256.Sum256(data) {
		t.Fatal("Digest after Corrupt is not the changed bytes' SHA-256")
	}
	if got := b.RangeDigest(0, 4096); got != sha256.Sum256(data[:4096]) {
		t.Fatal("RangeDigest after Corrupt is not the changed bytes' SHA-256")
	}
	if n := hashed() - before; n != 8192+4096 {
		t.Fatalf("after Corrupt the two digests hashed %d bytes, want %d", n, 8192+4096)
	}
	v, err := b.Derived("sum", derive)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 2 || v.([32]byte) != sha256.Sum256(data) {
		t.Fatalf("after Corrupt the derived value was built %d times in all, want 2, from the changed bytes", builds)
	}
}

// TestLookupIsByIdentity: Lookup finds the slice Intern was given, not an
// equal slice in another backing array, nor a shorter view of the same one.
func TestLookupIsByIdentity(t *testing.T) {
	data := ramp(4096)
	b := Intern(data)
	if Lookup(data) != b || Intern(data) != b {
		t.Fatal("the interned slice does not find its *Buf")
	}
	if Lookup(bytes.Clone(data)) != nil {
		t.Fatal("an equal slice in another backing array found the interned *Buf")
	}
	if Lookup(data[:100]) != nil {
		t.Fatal("a shorter view of the interned slice found its *Buf")
	}
	if Lookup(nil) != nil || Intern(nil) != nil {
		t.Fatal("an empty slice has a *Buf")
	}
}

// TestConcurrentFirstDigests: goroutines that ask for a buffer's digest at
// once, none having asked before, all get its SHA-256 (run under -race).
func TestConcurrentFirstDigests(t *testing.T) {
	data := ramp(1 << 20)
	want := sha256.Sum256(data)
	b := Intern(data)
	sums := make([][32]byte, 8)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			sums[i] = b.Digest()
		}()
	}
	start.Done()
	wg.Wait()
	for i, s := range sums {
		if s != want {
			t.Fatalf("goroutine %d got a digest other than the buffer's SHA-256", i)
		}
	}
	before := hashed()
	if b.Digest() != want || hashed() != before {
		t.Fatal("a digest after the concurrent first ones was not a memo hit")
	}
}
