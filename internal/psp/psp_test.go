package psp

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

func newGuest(t *testing.T, p *PSP) (*guestmem.Memory, *GuestContext) {
	t.Helper()
	mem := guestmem.New(16 << 20)
	ctx, err := p.LaunchStart(nil, mem, sev.SNP, sev.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return mem, ctx
}

func TestLaunchFlow(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	mem, ctx := newGuest(t, p)
	if ctx.State() != StateLaunching {
		t.Fatal("fresh context not in launching state")
	}
	component := bytes.Repeat([]byte("verifier"), 1024)
	if err := mem.HostWrite(0x1000, component); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchUpdateData(nil, 0x1000, len(component), sev.PageNormal); err != nil {
		t.Fatal(err)
	}
	digest, err := ctx.LaunchFinish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if digest == ([32]byte{}) {
		t.Fatal("zero digest")
	}
	if ctx.State() != StateRunning {
		t.Fatal("context not running after finish")
	}
}

func TestUpdateAfterFinishRejected(t *testing.T) {
	// §2.4: LAUNCH_FINISH prevents further LAUNCH_UPDATE_DATA.
	p := New(costmodel.Unit(), 1)
	mem, ctx := newGuest(t, p)
	if _, err := ctx.LaunchFinish(nil); err != nil {
		t.Fatal(err)
	}
	if err := mem.HostWrite(0x1000, []byte("late injection")); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchUpdateData(nil, 0x1000, 14, sev.PageNormal); !errors.Is(err, ErrState) {
		t.Fatalf("post-finish update: err = %v, want ErrState", err)
	}
}

func TestDoubleFinishRejected(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	_, ctx := newGuest(t, p)
	if _, err := ctx.LaunchFinish(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.LaunchFinish(nil); !errors.Is(err, ErrState) {
		t.Fatalf("double finish: err = %v, want ErrState", err)
	}
}

func TestLaunchStartRejectsNonSEV(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	if _, err := p.LaunchStart(nil, guestmem.New(1<<20), sev.None, sev.Policy{}); err == nil {
		t.Fatal("LAUNCH_START accepted for non-SEV guest")
	}
}

func TestPolicyESRequiredEnforced(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	pol := sev.Policy{ESRequired: true}
	if _, err := p.LaunchStart(nil, guestmem.New(1<<20), sev.SEV, pol); !errors.Is(err, ErrPolicy) {
		t.Fatalf("ES-required policy with base SEV: err = %v, want ErrPolicy", err)
	}
}

// digestLaunch is one launch of a single measured region: the fields the
// launch digest claims to bind.
type digestLaunch struct {
	content []byte
	gpa     uint64
	n       int
	pt      sev.PageType
	policy  sev.Policy
	level   sev.Level
}

// digestFieldChanges moves one field of a digestLaunch each, keyed by the
// field's name.
var digestFieldChanges = map[string]func(*digestLaunch){
	"content":   func(l *digestLaunch) { l.content = []byte("genuine boot verifier cod3") },
	"address":   func(l *digestLaunch) { l.gpa = 0x2000 },
	"length":    func(l *digestLaunch) { l.n += 16 },
	"page type": func(l *digestLaunch) { l.pt = sev.PageSecrets },
	"policy":    func(l *digestLaunch) { l.policy.NoDebug = false },
	"level":     func(l *digestLaunch) { l.level = sev.ES },
}

// checkDigestMoves checks that each named field moves the launch digest on
// its own: two launches differ only in that field. A launch cannot change
// a region's length alone, since the PSP hashes the n bytes it measures, so
// each field also checks the fold over the hash of the bytes written, which
// holds the content still while the length moves.
func checkDigestMoves(t *testing.T, fields ...string) {
	t.Helper()
	digest := func(l digestLaunch) [32]byte {
		t.Helper()
		p := New(costmodel.Unit(), 1)
		mem := guestmem.New(16 << 20)
		ctx, err := p.LaunchStart(nil, mem, l.level, l.policy)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.HostWrite(l.gpa, l.content); err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, l.gpa, l.n, l.pt); err != nil {
			t.Fatal(err)
		}
		d, _ := ctx.LaunchFinish(nil)
		return d
	}
	fold := func(l digestLaunch) [32]byte {
		return ExtendDigestContent(InitialDigest(l.policy, l.level), l.pt, l.gpa, l.n, sha256.Sum256(l.content))
	}
	content := []byte("genuine boot verifier code")
	base := digestLaunch{content: content, gpa: 0x1000, n: len(content), pt: sev.PageNormal, policy: sev.DefaultPolicy(), level: sev.SNP}
	want := digest(base)
	if digest(base) != want || fold(base) != want {
		t.Fatal("one launch measured twice produced two digests, or not the fold of its one region")
	}
	for _, field := range fields {
		change, ok := digestFieldChanges[field]
		if !ok {
			t.Fatalf("no launch field %q", field)
		}
		t.Run(field, func(t *testing.T) {
			l := base
			change(&l)
			if digest(l) == want {
				t.Errorf("the launch digest ignores the %s; a launch that changes only it must be detectable", field)
			}
			if fold(l) == want {
				t.Errorf("the fold ignores the %s", field)
			}
		})
	}
}

func TestDigestDependsOnContent(t *testing.T) {
	checkDigestMoves(t, "content")
}

func TestDigestDependsOnAddressAndPolicy(t *testing.T) {
	checkDigestMoves(t, "address", "policy")
}

func TestDigestDependsOnLengthPageTypeAndLevel(t *testing.T) {
	checkDigestMoves(t, "length", "page type", "level")
}

func TestDigestDeterministicAcrossPlatforms(t *testing.T) {
	// The guest owner computes the expected digest on their own machine:
	// it must not depend on the PSP instance or its keys.
	content := []byte("boot verifier")
	launch := func(seed int64) [32]byte {
		p := New(costmodel.Unit(), seed)
		mem, ctx := newGuest(t, p)
		if err := mem.HostWrite(0x1000, content); err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, 0x1000, len(content), sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		d, _ := ctx.LaunchFinish(nil)
		return d
	}
	if launch(1) != launch(999) {
		t.Fatal("launch digest depends on platform seed")
	}
}

func TestVMSAUpdateRequiresES(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	mem := guestmem.New(1 << 20)
	pol := sev.Policy{}
	ctx, err := p.LaunchStart(nil, mem, sev.SEV, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchUpdateVMSA(nil, 0x3000); !errors.Is(err, ErrState) {
		t.Fatalf("VMSA update on base SEV: err = %v, want ErrState", err)
	}
}

func TestReportSignatureVerifies(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	_, ctx := newGuest(t, p)
	if _, err := ctx.LaunchFinish(nil); err != nil {
		t.Fatal(err)
	}
	var rd [64]byte
	copy(rd[:], "guest ephemeral pubkey hash")
	rep, err := ctx.BuildReport(nil, rd)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(p.VerificationKey(), rep); err != nil {
		t.Fatal(err)
	}
	// Tampering with any field breaks the signature.
	rep.Measurement[0] ^= 1
	if err := VerifyReport(p.VerificationKey(), rep); err == nil {
		t.Fatal("tampered measurement passed verification")
	}
	rep.Measurement[0] ^= 1
	rep.ReportData[5] ^= 1
	if err := VerifyReport(p.VerificationKey(), rep); err == nil {
		t.Fatal("tampered report data passed verification")
	}
}

func TestReportRejectedBeforeFinish(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	_, ctx := newGuest(t, p)
	if _, err := ctx.BuildReport(nil, [64]byte{}); !errors.Is(err, ErrState) {
		t.Fatalf("pre-finish report: err = %v, want ErrState", err)
	}
}

func TestReportWrongPlatformKeyFails(t *testing.T) {
	p1 := New(costmodel.Unit(), 1)
	p2 := New(costmodel.Unit(), 2)
	_, ctx := newGuest(t, p1)
	if _, err := ctx.LaunchFinish(nil); err != nil {
		t.Fatal(err)
	}
	rep, err := ctx.BuildReport(nil, [64]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(p2.VerificationKey(), rep); err == nil {
		t.Fatal("report verified against the wrong platform key")
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	_, ctx := newGuest(t, p)
	if _, err := ctx.LaunchFinish(nil); err != nil {
		t.Fatal(err)
	}
	var rd [64]byte
	rd[0] = 0xAB
	rep, err := ctx.BuildReport(nil, rd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReport(rep.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Measurement != rep.Measurement || got.ReportData != rep.ReportData ||
		got.Policy != rep.Policy || got.Level != rep.Level || got.ASID != rep.ASID {
		t.Fatal("report fields lost in marshal round trip")
	}
	if err := VerifyReport(p.VerificationKey(), got); err != nil {
		t.Fatalf("unmarshaled report signature invalid: %v", err)
	}
}

func TestUnmarshalRejectsWrongLength(t *testing.T) {
	if _, err := UnmarshalReport(make([]byte, 50)); err == nil {
		t.Fatal("short report accepted")
	}
}

func TestASIDsAreUnique(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	seen := map[uint32]bool{}
	for i := 0; i < 10; i++ {
		_, ctx := newGuest(t, p)
		if seen[ctx.ASID()] {
			t.Fatalf("ASID %d reused", ctx.ASID())
		}
		seen[ctx.ASID()] = true
	}
}

func TestGuestKeysDiffer(t *testing.T) {
	p := New(costmodel.Unit(), 1)
	content := bytes.Repeat([]byte("same page"), 400)
	cts := make([][]byte, 2)
	for i := range cts {
		mem, ctx := newGuest(t, p)
		if err := mem.HostWrite(0x1000, content); err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, 0x1000, len(content), sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		ct, err := mem.HostRead(0x1000, len(content))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	if bytes.Equal(cts[0], cts[1]) {
		t.Fatal("two guests share ciphertext: keys not unique per guest")
	}
}

func TestPreEncryptionTimeChargedOnPSP(t *testing.T) {
	model := costmodel.Unit() // 1 ns/byte + 1 ms per command
	p := New(model, 1)
	eng := sim.NewEngine()
	var elapsed time.Duration
	eng.Go("launch", func(proc *sim.Proc) {
		mem := guestmem.New(16 << 20)
		ctx, err := p.LaunchStart(proc, mem, sev.SNP, sev.DefaultPolicy())
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 1_000_000)
		if err := mem.HostWrite(0x1000, data); err != nil {
			t.Error(err)
			return
		}
		start := proc.Now()
		if err := ctx.LaunchUpdateData(proc, 0x1000, len(data), sev.PageNormal); err != nil {
			t.Error(err)
			return
		}
		elapsed = proc.Now().Sub(start)
	})
	eng.Run()
	want := model.PreEncrypt(1_000_000) // 1 ms + 1 ms
	if elapsed != want {
		t.Fatalf("pre-encryption took %v of virtual time, want %v", elapsed, want)
	}
}

// TestTamperOfNeverWrittenMemoryMovesDigest launches Fig. 4's smallest
// region, 3.3 MiB of guest memory nothing has written, whose digest comes
// from guestmem's zero chain. A host write of one byte before
// pre-encryption must move the launch digest to the fold of the bytes as
// written.
func TestTamperOfNeverWrittenMemoryMovesDigest(t *testing.T) {
	const n, at = 3_460_300, 1_730_001
	launch := func(tamper func(*guestmem.Memory, uint64, int)) [32]byte {
		t.Helper()
		p := New(costmodel.Unit(), 1)
		p.PreEncryptTamper = tamper
		ctx, err := p.LaunchStart(nil, guestmem.New(n+1<<20), sev.SNP, sev.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.LaunchUpdateData(nil, 0, n, sev.PageNormal); err != nil {
			t.Fatal(err)
		}
		d, _ := ctx.LaunchFinish(nil)
		return d
	}
	fold := func(plain []byte) [32]byte {
		return ExtendDigestContent(InitialDigest(sev.DefaultPolicy(), sev.SNP), sev.PageNormal, 0, n, sha256.Sum256(plain))
	}
	plain := make([]byte, n)
	clean := launch(nil)
	if clean != fold(plain) || launch(nil) != clean {
		t.Fatal("a launch over never-written memory is not the fold of its zero bytes")
	}
	tampered := launch(func(mem *guestmem.Memory, gpa uint64, _ int) {
		if err := mem.HostWrite(gpa+at, []byte{1}); err != nil {
			t.Error(err)
		}
	})
	plain[at] = 1
	if tampered == clean || tampered != fold(plain) {
		t.Fatal("a byte written before pre-encryption did not move the launch digest to the fold of the written bytes")
	}
}

func TestConcurrentLaunchesSerializeOnPSP(t *testing.T) {
	// The Fig. 12 mechanism: N concurrent LAUNCH_UPDATEs through one PSP
	// finish at strictly increasing times with a constant stride.
	model := costmodel.Unit()
	p := New(model, 1)
	eng := sim.NewEngine()
	var finish []sim.Time
	const n = 5
	for i := 0; i < n; i++ {
		eng.Go("vm", func(proc *sim.Proc) {
			mem := guestmem.New(16 << 20)
			ctx, err := p.LaunchStart(proc, mem, sev.SNP, sev.DefaultPolicy())
			if err != nil {
				t.Error(err)
				return
			}
			data := make([]byte, 500_000)
			if err := mem.HostWrite(0x1000, data); err != nil {
				t.Error(err)
				return
			}
			if err := ctx.LaunchUpdateData(proc, 0x1000, len(data), sev.PageNormal); err != nil {
				t.Error(err)
				return
			}
			if _, err := ctx.LaunchFinish(proc); err != nil {
				t.Error(err)
				return
			}
			finish = append(finish, proc.Now())
		})
	}
	eng.Run()
	if len(finish) != n {
		t.Fatalf("%d finishes", len(finish))
	}
	// Commands from different guests interleave on the PSP FIFO, but the
	// total work is strictly serialized: the last guest finishes exactly
	// when all n guests' worth of PSP time has elapsed, and no two guests
	// finish together.
	perVM := model.PSPLaunchStart + model.PreEncrypt(500_000) + model.PSPLaunchFinish
	if last := finish[n-1]; last != sim.Time(int64(perVM)*n) {
		t.Fatalf("last finish %v, want %v (full serialization)", last, time.Duration(perVM.Nanoseconds()*n))
	}
	for i := 1; i < n; i++ {
		if finish[i] <= finish[i-1] {
			t.Fatalf("finishes not strictly increasing: %v", finish)
		}
	}
	if finish[0] <= sim.Time(perVM) {
		t.Fatalf("vm 0 finished at %v, faster than its own PSP work %v despite contention", finish[0], perVM)
	}
}

// TestSameSeedDrawsSameGuestKeys: guest keys depend only on the seed and
// the launch order. Two same-seed PSPs launch three guests each, signing
// eight reports between launches, and every pair of guests must encrypt one
// page to the same ciphertext. ecdsa.Sign reads one byte more or less from
// its reader at random, so signatures must not draw from the stream keys
// come from: if they did, eight signatures would agree on both sides one
// time in 256.
func TestSameSeedDrawsSameGuestKeys(t *testing.T) {
	content := bytes.Repeat([]byte("same page"), 400)
	ciphertexts := func() [][]byte {
		p := New(costmodel.Unit(), 1)
		var out [][]byte
		for i := 0; i < 3; i++ {
			mem, ctx := newGuest(t, p)
			if err := mem.HostWrite(0x1000, content); err != nil {
				t.Fatal(err)
			}
			if err := ctx.LaunchUpdateData(nil, 0x1000, len(content), sev.PageNormal); err != nil {
				t.Fatal(err)
			}
			ct, err := mem.HostRead(0x1000, len(content))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ct)
			if _, err := ctx.LaunchFinish(nil); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				if _, err := ctx.BuildReport(nil, [64]byte{byte(i), byte(j)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out
	}
	a, b := ciphertexts(), ciphertexts()
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("guest %d: two PSPs built from seed 1 installed different keys", i)
		}
	}
}

// newPSPAllocCeiling bounds New: the PSP, its resource, its identity
// stream and the VCEK's derivation, measured at 18 allocations, plus 10 %.
// Issuing a certificate chain as well costs some 260 more.
const newPSPAllocCeiling = 19

func TestNewAllocCeiling(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, func() { New(costmodel.Unit(), 1) }); allocs > newPSPAllocCeiling {
		t.Fatalf("psp.New: %v allocations, ceiling %d", allocs, newPSPAllocCeiling)
	}
}

// ExtendDigest is the serial, region-by-region reference FoldDigest is
// checked against: one region's bytes hashed and folded on the spot.
func ExtendDigest(digest [32]byte, pt sev.PageType, gpa uint64, data []byte) [32]byte {
	return ExtendDigestContent(digest, pt, gpa, len(data), sha256.Sum256(data))
}

func TestFoldDigestMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	initial := InitialDigest(sev.DefaultPolicy(), sev.SNP)
	var metas []RegionMeta
	var contents [][32]byte
	want := initial
	for i := 0; i < 10; i++ {
		data := make([]byte, 1+rng.Intn(8192))
		rng.Read(data)
		gpa := uint64(0x1000 * (i + 1))
		want = ExtendDigest(want, sev.PageNormal, gpa, data)
		metas = append(metas, RegionMeta{PT: sev.PageNormal, GPA: gpa, Len: len(data)})
		contents = append(contents, sha256.Sum256(data))
	}
	if got := FoldDigest(initial, metas, contents); got != want {
		t.Fatalf("FoldDigest %x != ExtendDigest chain %x", got, want)
	}
}
