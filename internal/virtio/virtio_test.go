package virtio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/rmp"
)

const (
	ringGPA = 0x100000
	bufGPA  = 0x180000
)

func blkImage() []byte {
	img := make([]byte, 64*512)
	for i := range img {
		img[i] = byte(i / 512) // sector number in every byte
	}
	return img
}

func probeBlk(t *testing.T, mem *guestmem.Memory, encrypted bool) (*Device, *Driver) {
	t.Helper()
	dev := NewDevice(IDBlk, FeatBlkFlush, &BlkBackend{Image: blkImage()})
	dr, err := Probe(dev, mem, ringGPA, bufGPA, FeatBlkFlush, encrypted)
	if err != nil {
		t.Fatal(err)
	}
	return dev, dr
}

func readSector(t *testing.T, dr *Driver, sector uint64, privateDst uint64) []byte {
	t.Helper()
	req := make([]byte, 9)
	req[0] = 'R'
	binary.LittleEndian.PutUint64(req[1:], sector)
	resp, err := dr.Request(req, 512, privateDst)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestProbeAndRead(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev, dr := probeBlk(t, mem, false)
	if dev.ReadReg(RegStatus)&StatusDriverOK == 0 {
		t.Fatal("device not driver-OK after probe")
	}
	got := readSector(t, dr, 7, 0)
	if len(got) != 512 || got[0] != 7 || got[511] != 7 {
		t.Fatalf("sector 7 read wrong: % x...", got[:4])
	}
	if dev.Requests != 1 {
		t.Fatalf("device served %d requests", dev.Requests)
	}
}

func TestMultipleRequestsAdvanceRings(t *testing.T) {
	mem := guestmem.New(4 << 20)
	_, dr := probeBlk(t, mem, false)
	for s := uint64(0); s < 10; s++ {
		got := readSector(t, dr, s, 0)
		if got[0] != byte(s) {
			t.Fatalf("sector %d returned %d", s, got[0])
		}
	}
}

func TestDriverRejectsMissingFeatures(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev := NewDevice(IDBlk, 0, &BlkBackend{Image: blkImage()}) // no flush
	if _, err := Probe(dev, mem, ringGPA, bufGPA, FeatBlkFlush, false); !errors.Is(err, ErrProbe) {
		t.Fatalf("probe with missing feature: %v", err)
	}
}

func TestDeviceRejectsBogusDriverFeatures(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev := NewDevice(IDBlk, 0, &BlkBackend{Image: blkImage()})
	// Drive the registers by hand, claiming a feature the device lacks.
	if err := dev.WriteReg(mem, RegDriverFeatSel, 0); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteReg(mem, RegDriverFeat, uint32(FeatBlkFlush)); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteReg(mem, RegStatus, StatusFeaturesOK); err == nil {
		t.Fatal("device accepted features it never offered")
	}
	if dev.ReadReg(RegStatus)&StatusFailed == 0 {
		t.Fatal("device did not fail the probe")
	}
}

func TestNotifyBeforeReadyRejected(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev := NewDevice(IDBlk, 0, &BlkBackend{Image: blkImage()})
	if err := dev.WriteReg(mem, RegQueueNotify, 0); !errors.Is(err, ErrProbe) {
		t.Fatalf("notify before ready: %v", err)
	}
}

// TestQueueSizeOutsideMaximumRejected: the device takes a queue size of 1
// up to the maximum it advertises and refuses to ready a queue without
// one, so no ring it services is empty or larger than it reads.
func TestQueueSizeOutsideMaximumRejected(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev := NewDevice(IDBlk, 0, &BlkBackend{Image: blkImage()})
	for _, w := range [][2]uint32{
		{RegStatus, StatusAcknowledge | StatusDriver | StatusFeaturesOK},
		{RegQueueDescLow, 0x1000}, {RegQueueAvailLow, 0x2000}, {RegQueueUsedLow, 0x3000},
	} {
		if err := dev.WriteReg(mem, w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.WriteReg(mem, RegQueueReady, 1); !errors.Is(err, ErrProbe) {
		t.Fatalf("queue readied without a size: %v", err)
	}
	for _, n := range []uint32{0, queueNumMax + 1, 1 << 16} {
		if err := dev.WriteReg(mem, RegQueueNum, n); !errors.Is(err, ErrProbe) {
			t.Fatalf("queue size %d: %v", n, err)
		}
	}
	for _, n := range []uint32{1, queueNumMax} {
		if err := dev.WriteReg(mem, RegQueueNum, n); err != nil {
			t.Fatalf("queue size %d: %v", n, err)
		}
	}
	if err := dev.WriteReg(mem, RegQueueReady, 1); err != nil {
		t.Fatalf("queue of the maximum size: %v", err)
	}
}

func TestQueueReadyRequiresRingAddresses(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev := NewDevice(IDBlk, 0, &BlkBackend{Image: blkImage()})
	if err := dev.WriteReg(mem, RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteReg(mem, RegQueueReady, 1); !errors.Is(err, ErrProbe) {
		t.Fatalf("queue readied without rings: %v", err)
	}
}

func TestSEVGuestRingsInSharedMemory(t *testing.T) {
	// The core confidential-I/O constraint: the device reads rings as the
	// host. Shared rings work; the payload is bounce-buffered into private
	// memory afterwards.
	mem := guestmem.New(4 << 20)
	mem.SetKey(bytes.Repeat([]byte{9}, 16), 3)
	tb := rmp.New()
	mem.AttachRMP(tb, 3)
	if err := tb.PvalidateRangeSkipValidated(0, 4<<20, 2<<20, 3); err != nil {
		t.Fatal(err)
	}
	_, dr := probeBlk(t, mem, true)
	const privateDst = 0x300000
	got := readSector(t, dr, 5, privateDst)
	if got[0] != 5 {
		t.Fatalf("sector 5 read %d", got[0])
	}
	// The bounced copy is in private memory: guest sees it, host does not.
	private, err := mem.GuestRead(privateDst, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(private, got) {
		t.Fatal("bounce copy differs from response")
	}
	hostView, err := mem.HostRead(privateDst, 512)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(hostView, got) {
		t.Fatal("private payload visible to host")
	}
}

func TestPrivateRingsAreUnusable(t *testing.T) {
	// If a confidential guest (incorrectly) put its rings in private
	// memory, the device would read ciphertext and the queue would fail —
	// demonstrating *why* swiotlb exists.
	mem := guestmem.New(4 << 20)
	mem.SetKey(bytes.Repeat([]byte{7}, 16), 4)
	tb := rmp.New()
	mem.AttachRMP(tb, 4)
	if err := tb.PvalidateRangeSkipValidated(0, 4<<20, 2<<20, 4); err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(IDBlk, 0, &BlkBackend{Image: blkImage()})
	dr, err := Probe(dev, mem, ringGPA, bufGPA, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: the guest converts the avail-ring page back to private
	// (page-state-change + pvalidate) and rewrites it through a C-bit
	// mapping. The device's next read sees ciphertext.
	ringPage := dr.availGPA() &^ 4095
	if err := tb.PvalidateRangeSkipValidated(ringPage, 4096, 4096, 4); err != nil {
		t.Fatal(err)
	}
	raw, err := mem.GuestRead(dr.availGPA(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.GuestWrite(dr.availGPA(), raw, true); err != nil {
		t.Fatal(err)
	}
	req := make([]byte, 9)
	req[0] = 'R'
	if _, err := dr.Request(req, 512, 0); err == nil {
		t.Fatal("device consumed a private ring")
	}
}

func TestNetBackendEcho(t *testing.T) {
	mem := guestmem.New(4 << 20)
	dev := NewDevice(IDNet, FeatNetMac, NetBackend{})
	dr, err := Probe(dev, mem, ringGPA, bufGPA, FeatNetMac, false)
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte("ethernet frame: attestation SYN")
	resp, err := dr.Request(frame, len(frame), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, frame) {
		t.Fatal("loopback frame differs")
	}
}

func TestBlkBackendBounds(t *testing.T) {
	b := &BlkBackend{Image: make([]byte, 2*512)}
	req := make([]byte, 9)
	req[0] = 'R'
	binary.LittleEndian.PutUint64(req[1:], 99)
	if _, err := b.Handle(req); err == nil {
		t.Fatal("out-of-range sector served")
	}
	if _, err := b.Handle([]byte("x")); err == nil {
		t.Fatal("short request served")
	}
}
