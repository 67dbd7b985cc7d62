package chaos

import (
	"bytes"
	"errors"
	"testing"

	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/measure"
	"github.com/severifast/severifast/internal/sim"
)

// TestScribblePastReleaseRefused is the cross-guest case. A guest's memory
// goes back to its host when its boot is served, and the host's next guest
// is built out of it. The guestmem family's scribble, armed on the first
// guest with a delay past that instant and aimed at the boot-parameters
// page every boot writes, must be refused — an identical write at the same
// instant answers ErrReleased — and the next guest, which drew the same
// buffers, must boot with the clean run's launch digest: the trial is
// Harmless, byte for byte.
func TestScribblePastReleaseRefused(t *testing.T) {
	initrd := kernelgen.BuildInitrd(7, 1<<20)
	const boots = 3

	// The clean run says when the first guest was served, and so released.
	h, err := newHarness(initrd, boots, false)
	if err != nil {
		t.Fatal(err)
	}
	var first *kvm.Machine
	var released sim.Time
	h.onMachine(func(m *kvm.Machine) {
		if first == nil {
			first = m
		}
	})
	h.OnServed = func(p *sim.Proc, m *kvm.Machine, _ fleet.Tier) {
		if m == first {
			released = p.Now()
		}
	}
	clean, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	if released == 0 || clean.End <= released {
		t.Fatalf("the first guest was served at %v, the run ended at %v", released, clean.End)
	}

	// Halfway between that release and the run's end: later, and the
	// scheduled event would outlast the run and move its end time.
	delay := released.Add(clean.End.Sub(released) / 2).Duration()
	page := uint64(measure.GPAZeroPage / guestmem.PageSize)
	s := memScribble(0, page, delay, 0x5a, false)
	h, err = newHarness(initrd, boots, false)
	if err != nil {
		t.Fatal(err)
	}
	s.arm(h)
	var writeErr error
	seen := false
	h.onMachine(func(m *kvm.Machine) {
		if !seen {
			seen = true
			h.Eng.After(delay, func() {
				writeErr = m.Mem.HostWrite(page*guestmem.PageSize, bytes.Repeat([]byte{0x5a}, 64))
			})
		}
	})
	res, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(writeErr, guestmem.ErrReleased) {
		t.Fatalf("a host write to the first guest after its release: err %v, want ErrReleased", writeErr)
	}
	_, counters := h.Host.HostStats.Snapshot()
	if counters["guestmem.dir.reused"] == 0 || counters["guestmem.chunk.reused"] == 0 || counters["guestmem.page.reused"] == 0 {
		t.Fatalf("no later guest was built from a released one's memory: %v", counters)
	}
	if len(res.Served) != boots {
		t.Fatalf("%d of %d boots served (failures %v)", len(res.Served), boots, res.failures())
	}
	if out, detail := classify(s, res, clean); out != Harmless {
		t.Fatalf("scribble past release: %s: %s", out, detail)
	}
}
