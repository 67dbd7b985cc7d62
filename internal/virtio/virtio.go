// Package virtio implements the virtio-mmio transport and virtqueues the
// guest kernels depend on (the paper's kernels are built with
// CONFIG_VIRTIO_BLK and CONFIG_VIRTIO_NET "needed to boot in Firecracker",
// §6.1). The data structures are real: the driver lays out descriptor,
// available, and used rings in guest memory; the device walks them there.
//
// The SEV-relevant behaviour is modeled faithfully: a confidential guest
// cannot give the device access to private pages, so its rings and DMA
// buffers must live in *shared* memory and payloads are bounce-buffered
// (Linux's swiotlb) — one of the reasons §6.2 sees guest I/O cost more
// under SNP.
package virtio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/severifast/severifast/internal/guestmem"
)

// MMIO register offsets (virtio-mmio v2).
const (
	RegMagic         = 0x00 // "virt"
	RegVersion       = 0x04
	RegDeviceID      = 0x08
	RegVendorID      = 0x0C
	RegDeviceFeat    = 0x10
	RegDeviceFeatSel = 0x14
	RegDriverFeat    = 0x20
	RegDriverFeatSel = 0x24
	RegQueueSel      = 0x30
	RegQueueNumMax   = 0x34
	RegQueueNum      = 0x38
	RegQueueReady    = 0x44
	RegQueueNotify   = 0x50
	RegIntStatus     = 0x60
	RegIntAck        = 0x64
	RegStatus        = 0x70
	RegQueueDescLow  = 0x80
	RegQueueDescHigh = 0x84
	RegQueueAvailLow = 0x90
	RegQueueAvailHi  = 0x94
	RegQueueUsedLow  = 0xA0
	RegQueueUsedHigh = 0xA4
)

// MagicValue is "virt" little-endian.
const MagicValue = 0x74726976

// Device IDs.
const (
	IDNet uint32 = 1
	IDBlk uint32 = 2
)

// Status bits, set by the driver in order during probe.
const (
	StatusAcknowledge = 1
	StatusDriver      = 2
	StatusDriverOK    = 4
	StatusFeaturesOK  = 8
	StatusFailed      = 128
)

// Feature bits (a representative subset).
const (
	FeatVersion1 = 1 << 32
	FeatBlkFlush = 1 << 9
	FeatNetMac   = 1 << 5
)

// descriptor flags.
const (
	descFlagNext  = 1
	descFlagWrite = 2
)

const descSize = 16

// queueNumMax is the largest queue size the device advertises.
const queueNumMax = 256

// Errors.
var (
	ErrProbe = errors.New("virtio: probe protocol violation")
	ErrRing  = errors.New("virtio: malformed virtqueue")
)

// Backend services queue notifications: it receives the chained buffers
// (read parts concatenated) and returns bytes for the device-writable
// parts.
type Backend interface {
	// Handle processes one request; in is the driver-readable payload,
	// and the returned bytes fill the device-writable descriptors.
	Handle(in []byte) ([]byte, error)
}

// Device is one virtio-mmio device instance.
type Device struct {
	ID       uint32
	Features uint64
	Backend  Backend

	status     uint32
	featSel    uint32
	driverFeat uint64
	drvFeatSel uint32

	queueSel   uint32
	queueNum   uint32
	queueReady bool
	descGPA    uint64
	availGPA   uint64
	usedGPA    uint64

	intStatus uint32
	lastAvail uint16

	// Requests counts completed queue notifications.
	Requests uint64
}

// NewDevice creates a device exposing the given feature set.
func NewDevice(id uint32, features uint64, backend Backend) *Device {
	return &Device{ID: id, Features: features | FeatVersion1, Backend: backend}
}

// ReadReg models a driver MMIO read.
func (d *Device) ReadReg(off uint32) uint32 {
	switch off {
	case RegMagic:
		return MagicValue
	case RegVersion:
		return 2
	case RegDeviceID:
		return d.ID
	case RegVendorID:
		return 0x53455646 // "SEVF"
	case RegDeviceFeat:
		if d.featSel == 0 {
			return uint32(d.Features)
		}
		return uint32(d.Features >> 32)
	case RegQueueNumMax:
		return queueNumMax
	case RegIntStatus:
		return d.intStatus
	case RegStatus:
		return d.status
	case RegQueueReady:
		if d.queueReady {
			return 1
		}
		return 0
	}
	return 0
}

// WriteReg models a driver MMIO write. Queue notifications dispatch to the
// backend through the rings in mem.
func (d *Device) WriteReg(mem *guestmem.Memory, off, val uint32) error {
	switch off {
	case RegDeviceFeatSel:
		d.featSel = val
	case RegDriverFeatSel:
		d.drvFeatSel = val
	case RegDriverFeat:
		if d.drvFeatSel == 0 {
			d.driverFeat = d.driverFeat&^0xFFFFFFFF | uint64(val)
		} else {
			d.driverFeat = d.driverFeat&0xFFFFFFFF | uint64(val)<<32
		}
	case RegStatus:
		if val&StatusFeaturesOK != 0 && d.driverFeat&^d.Features != 0 {
			// Driver accepted features the device never offered.
			d.status = StatusFailed
			return fmt.Errorf("%w: driver features %#x not subset of device %#x", ErrProbe, d.driverFeat, d.Features)
		}
		d.status = val
	case RegQueueSel:
		d.queueSel = val
	case RegQueueNum:
		if val == 0 || val > queueNumMax {
			return fmt.Errorf("%w: queue size %d outside 1..%d", ErrProbe, val, queueNumMax)
		}
		d.queueNum = val
	case RegQueueDescLow:
		d.descGPA = d.descGPA&^0xFFFFFFFF | uint64(val)
	case RegQueueDescHigh:
		d.descGPA = d.descGPA&0xFFFFFFFF | uint64(val)<<32
	case RegQueueAvailLow:
		d.availGPA = d.availGPA&^0xFFFFFFFF | uint64(val)
	case RegQueueAvailHi:
		d.availGPA = d.availGPA&0xFFFFFFFF | uint64(val)<<32
	case RegQueueUsedLow:
		d.usedGPA = d.usedGPA&^0xFFFFFFFF | uint64(val)
	case RegQueueUsedHigh:
		d.usedGPA = d.usedGPA&0xFFFFFFFF | uint64(val)<<32
	case RegQueueReady:
		if val == 1 {
			if d.status&StatusFeaturesOK == 0 {
				return fmt.Errorf("%w: queue readied before FEATURES_OK", ErrProbe)
			}
			if d.descGPA == 0 || d.availGPA == 0 || d.usedGPA == 0 {
				return fmt.Errorf("%w: queue readied without ring addresses", ErrProbe)
			}
			if d.queueNum == 0 {
				return fmt.Errorf("%w: queue readied without a size", ErrProbe)
			}
			d.queueReady = true
		} else {
			d.queueReady = false
		}
	case RegQueueNotify:
		return d.serviceQueue(mem)
	case RegIntAck:
		d.intStatus &^= val
	}
	return nil
}

// serviceQueue walks newly-available descriptor chains — reading the real
// ring bytes from guest memory — and completes them into the used ring.
func (d *Device) serviceQueue(mem *guestmem.Memory) error {
	if !d.queueReady {
		return fmt.Errorf("%w: notify before queue ready", ErrProbe)
	}
	// The device reads rings as the host: private rings are ciphertext
	// and unusable, which is exactly the SEV constraint.
	// The ring is only parsed, so it is read onto the stack; WriteReg
	// keeps its size within the advertised maximum.
	var buf [4 + 2*queueNumMax]byte
	availRaw := buf[:4+2*d.queueNum]
	if err := mem.HostReadInto(d.availGPA, availRaw); err != nil {
		return err
	}
	availIdx := binary.LittleEndian.Uint16(availRaw[2:])
	for d.lastAvail != availIdx {
		slot := int(d.lastAvail) % int(d.queueNum)
		head := binary.LittleEndian.Uint16(availRaw[4+2*slot:])
		if err := d.completeChain(mem, head); err != nil {
			return err
		}
		d.lastAvail++
		d.Requests++
	}
	d.intStatus |= 1
	return nil
}

// completeChain processes one descriptor chain and writes the used entry.
func (d *Device) completeChain(mem *guestmem.Memory, head uint16) error {
	var in []byte
	type writable struct {
		gpa uint64
		n   int
	}
	var outsBuf [4]writable
	outs := outsBuf[:0]
	idx := head
	for hops := 0; ; hops++ {
		if hops > int(d.queueNum) {
			return fmt.Errorf("%w: descriptor loop at %d", ErrRing, head)
		}
		var raw [descSize]byte
		if err := mem.HostReadInto(d.descGPA+uint64(idx)*descSize, raw[:]); err != nil {
			return err
		}
		addr := binary.LittleEndian.Uint64(raw[0:])
		length := binary.LittleEndian.Uint32(raw[8:])
		flags := binary.LittleEndian.Uint16(raw[12:])
		next := binary.LittleEndian.Uint16(raw[14:])
		if flags&descFlagWrite != 0 {
			outs = append(outs, writable{addr, int(length)})
		} else {
			data, err := mem.HostRead(addr, int(length))
			if err != nil {
				return err
			}
			if in == nil {
				in = data // a request of one descriptor is not copied again
			} else {
				in = append(in, data...)
			}
		}
		if flags&descFlagNext == 0 {
			break
		}
		idx = next
	}
	resp, err := d.Backend.Handle(in)
	if err != nil {
		return err
	}
	written := 0
	for _, o := range outs {
		n := o.n
		if n > len(resp)-written {
			n = len(resp) - written
		}
		if n > 0 {
			if err := mem.HostWrite(o.gpa, resp[written:written+n]); err != nil {
				return err
			}
			written += n
		}
	}
	// Used ring entry: id + total written length.
	var usedRaw [4]byte
	if err := mem.HostReadInto(d.usedGPA, usedRaw[:]); err != nil {
		return err
	}
	usedIdx := binary.LittleEndian.Uint16(usedRaw[2:])
	var elem [8]byte
	binary.LittleEndian.PutUint32(elem[0:], uint32(head))
	binary.LittleEndian.PutUint32(elem[4:], uint32(written))
	if err := mem.HostWrite(d.usedGPA+4+uint64(usedIdx%uint16(d.queueNum))*8, elem[:]); err != nil {
		return err
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], usedIdx+1)
	return mem.HostWrite(d.usedGPA+2, hdr[:])
}
