package virtio

import (
	"encoding/binary"
	"fmt"

	"github.com/severifast/severifast/internal/guestmem"
)

// Driver is the guest-side half: it performs the virtio probe sequence
// against a device and lays the virtqueue out in guest memory.
//
// For an SEV guest the rings and DMA buffers live in *shared* pages — the
// device (host) reads them raw, so private pages would hand it ciphertext.
// Payloads crossing into private memory are bounce-buffered, as Linux's
// swiotlb does for confidential guests.
type Driver struct {
	dev *Device
	mem *guestmem.Memory

	// ringGPA is the base of the shared ring area; bufGPA of the shared
	// bounce buffers.
	ringGPA  uint64
	bufGPA   uint64
	queueNum uint32

	nextDesc  uint16
	availIdx  uint16
	lastUsed  uint16
	Encrypted bool // guest is SEV: payloads bounce through shared memory
}

// queueSize is the number of entries the driver asks a queue for.
const queueSize = 64

// ringAreaMax bounds the ring area of a queueSize queue at any base: the
// descriptors, the avail ring, at most 3 bytes of alignment, the used ring.
const ringAreaMax = queueSize*descSize + 4 + 2*queueSize + 3 + 4 + 8*queueSize

// ringZeros is what Probe writes over a ring area. It is never written, and
// being no frame's local it keeps the probe's stack small.
var ringZeros [ringAreaMax]byte

// ringLayout: descriptors, then avail ring, then used ring, each aligned.
func (dr *Driver) descGPA() uint64  { return dr.ringGPA }
func (dr *Driver) availGPA() uint64 { return dr.ringGPA + uint64(dr.queueNum)*descSize }
func (dr *Driver) usedGPA() uint64 {
	return (dr.availGPA() + 4 + 2*uint64(dr.queueNum) + 3) &^ 3
}

// Probe runs the virtio-mmio initialization sequence (driver status
// handshake, feature negotiation, queue setup) with real register traffic
// and real ring memory. wantFeatures are the driver-requested bits; the
// probe fails if the device does not offer them.
func Probe(dev *Device, mem *guestmem.Memory, ringGPA, bufGPA uint64, wantFeatures uint64, encrypted bool) (*Driver, error) {
	if dev.ReadReg(RegMagic) != MagicValue {
		return nil, fmt.Errorf("%w: bad magic", ErrProbe)
	}
	if dev.ReadReg(RegVersion) != 2 {
		return nil, fmt.Errorf("%w: unsupported version", ErrProbe)
	}
	w := func(off, val uint32) error { return dev.WriteReg(mem, off, val) }

	if err := w(RegStatus, StatusAcknowledge); err != nil {
		return nil, err
	}
	if err := w(RegStatus, StatusAcknowledge|StatusDriver); err != nil {
		return nil, err
	}

	// Feature negotiation: read device features, offer ours back.
	if err := w(RegDeviceFeatSel, 0); err != nil {
		return nil, err
	}
	devFeat := uint64(dev.ReadReg(RegDeviceFeat))
	if err := w(RegDeviceFeatSel, 1); err != nil {
		return nil, err
	}
	devFeat |= uint64(dev.ReadReg(RegDeviceFeat)) << 32
	want := wantFeatures | FeatVersion1
	if want&^devFeat != 0 {
		return nil, fmt.Errorf("%w: device lacks features %#x", ErrProbe, want&^devFeat)
	}
	if err := w(RegDriverFeatSel, 0); err != nil {
		return nil, err
	}
	if err := w(RegDriverFeat, uint32(want)); err != nil {
		return nil, err
	}
	if err := w(RegDriverFeatSel, 1); err != nil {
		return nil, err
	}
	if err := w(RegDriverFeat, uint32(want>>32)); err != nil {
		return nil, err
	}
	if err := w(RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK); err != nil {
		return nil, err
	}
	if dev.ReadReg(RegStatus)&StatusFeaturesOK == 0 {
		return nil, fmt.Errorf("%w: device rejected features", ErrProbe)
	}

	dr := &Driver{
		dev:       dev,
		mem:       mem,
		ringGPA:   ringGPA,
		bufGPA:    bufGPA,
		queueNum:  queueSize,
		Encrypted: encrypted,
	}
	// An encrypted guest converts its DMA region to shared state first
	// (page-state-change + swiotlb setup): the device must be able to read
	// the rings and write completions.
	if encrypted {
		if err := mem.ShareRange(ringGPA, 64<<10); err != nil {
			return nil, err
		}
		if err := mem.ShareRange(bufGPA, 256<<10); err != nil {
			return nil, err
		}
	}
	// Zero the ring area in shared memory (the guest writes rings without
	// the C-bit so the device can read them).
	ringBytes := int(dr.usedGPA()+4+8*uint64(dr.queueNum)) - int(dr.ringGPA)
	if err := mem.GuestWrite(dr.ringGPA, ringZeros[:ringBytes], false); err != nil {
		return nil, err
	}

	// Queue setup.
	if err := w(RegQueueSel, 0); err != nil {
		return nil, err
	}
	if max := dev.ReadReg(RegQueueNumMax); max < dr.queueNum {
		dr.queueNum = max
	}
	if err := w(RegQueueNum, dr.queueNum); err != nil {
		return nil, err
	}
	if err := w(RegQueueDescLow, uint32(dr.descGPA())); err != nil {
		return nil, err
	}
	if err := w(RegQueueDescHigh, uint32(dr.descGPA()>>32)); err != nil {
		return nil, err
	}
	if err := w(RegQueueAvailLow, uint32(dr.availGPA())); err != nil {
		return nil, err
	}
	if err := w(RegQueueAvailHi, uint32(dr.availGPA()>>32)); err != nil {
		return nil, err
	}
	if err := w(RegQueueUsedLow, uint32(dr.usedGPA())); err != nil {
		return nil, err
	}
	if err := w(RegQueueUsedHigh, uint32(dr.usedGPA()>>32)); err != nil {
		return nil, err
	}
	if err := w(RegQueueReady, 1); err != nil {
		return nil, err
	}
	if err := w(RegStatus, StatusAcknowledge|StatusDriver|StatusFeaturesOK|StatusDriverOK); err != nil {
		return nil, err
	}
	return dr, nil
}

// Request performs one I/O: request bytes out, respLen bytes back. The
// payload travels through shared bounce buffers; for an encrypted guest
// the response is then copied into private memory (the swiotlb copy). The
// response is a read-only view of the bounce buffer when it lies in one
// page (guestmem.Memory.GuestView), valid until the next request.
func (dr *Driver) Request(request []byte, respLen int, privateDst uint64) ([]byte, error) {
	// Stage the request in the shared bounce area.
	reqGPA := dr.bufGPA
	respGPA := dr.bufGPA + uint64(len(request)+511)&^511
	if err := dr.mem.GuestWrite(reqGPA, request, false); err != nil {
		return nil, err
	}

	// Two descriptors: driver-readable request, device-writable response.
	d0 := dr.allocDesc()
	d1 := dr.allocDesc()
	if err := dr.writeDesc(d0, reqGPA, uint32(len(request)), descFlagNext, d1); err != nil {
		return nil, err
	}
	if err := dr.writeDesc(d1, respGPA, uint32(respLen), descFlagWrite, 0); err != nil {
		return nil, err
	}

	// Publish in the available ring and notify.
	var slot [2]byte
	binary.LittleEndian.PutUint16(slot[:], d0)
	if err := dr.mem.GuestWrite(dr.availGPA()+4+uint64(dr.availIdx%uint16(dr.queueNum))*2, slot[:], false); err != nil {
		return nil, err
	}
	dr.availIdx++
	var idx [2]byte
	binary.LittleEndian.PutUint16(idx[:], dr.availIdx)
	if err := dr.mem.GuestWrite(dr.availGPA()+2, idx[:], false); err != nil {
		return nil, err
	}
	if err := dr.dev.WriteReg(dr.mem, RegQueueNotify, 0); err != nil {
		return nil, err
	}

	// Reap the used entry.
	usedRaw, _, err := dr.mem.GuestView(dr.usedGPA(), 4+8*int(dr.queueNum), false)
	if err != nil {
		return nil, err
	}
	usedIdx := binary.LittleEndian.Uint16(usedRaw[2:])
	if usedIdx == dr.lastUsed {
		return nil, fmt.Errorf("%w: device completed nothing", ErrRing)
	}
	elem := usedRaw[4+8*int(dr.lastUsed%uint16(dr.queueNum)):]
	if binary.LittleEndian.Uint32(elem[0:]) != uint32(d0) {
		return nil, fmt.Errorf("%w: used id mismatch", ErrRing)
	}
	written := int(binary.LittleEndian.Uint32(elem[4:]))
	dr.lastUsed = usedIdx
	if err := dr.dev.WriteReg(dr.mem, RegIntAck, 1); err != nil {
		return nil, err
	}

	resp, _, err := dr.mem.GuestView(respGPA, written, false)
	if err != nil {
		return nil, err
	}
	// swiotlb: an encrypted guest copies the response out of the shared
	// bounce buffer into private memory before using it.
	if dr.Encrypted && privateDst != 0 {
		if err := dr.mem.GuestWrite(privateDst, resp, true); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

func (dr *Driver) allocDesc() uint16 {
	d := dr.nextDesc
	dr.nextDesc = (dr.nextDesc + 1) % uint16(dr.queueNum)
	return d
}

func (dr *Driver) writeDesc(idx uint16, gpa uint64, length uint32, flags, next uint16) error {
	var raw [descSize]byte
	binary.LittleEndian.PutUint64(raw[0:], gpa)
	binary.LittleEndian.PutUint32(raw[8:], length)
	binary.LittleEndian.PutUint16(raw[12:], flags)
	binary.LittleEndian.PutUint16(raw[14:], next)
	return dr.mem.GuestWrite(dr.descGPA()+uint64(idx)*descSize, raw[:], false)
}

// BlkBackend is a trivial block device: a byte-addressable image served in
// 512-byte sectors. Requests are "R<8-byte LE sector>".
type BlkBackend struct {
	Image []byte
}

// Handle serves one block request. The sector it returns is the image's
// own bytes, which the device copies into the guest.
func (b *BlkBackend) Handle(in []byte) ([]byte, error) {
	if len(in) < 9 || in[0] != 'R' {
		return nil, fmt.Errorf("virtio-blk: bad request")
	}
	sector := binary.LittleEndian.Uint64(in[1:9])
	off := sector * 512
	if off+512 > uint64(len(b.Image)) {
		return nil, fmt.Errorf("virtio-blk: sector %d out of range", sector)
	}
	return b.Image[off : off+512 : off+512], nil
}

// NetBackend echoes frames back (loopback), enough for an attestation
// agent's TCP handshake to traverse the queue machinery.
type NetBackend struct{}

// Handle echoes the frame.
func (NetBackend) Handle(in []byte) ([]byte, error) {
	out := make([]byte, len(in))
	copy(out, in)
	return out, nil
}
