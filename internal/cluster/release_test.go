package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// TestGuestMemoryFollowsTheASID: a cluster guest holds its memory as long
// as its ASID — through its function's run — and gives both back when
// that ends, so a host never has more guests' memory live than it has
// ASIDs, and its later guests are built out of its earlier ones.
func TestGuestMemoryFollowsTheASID(t *testing.T) {
	cfg := Config{Hosts: 2, ASIDsPerHost: 3, WorkersPerHost: 3, Seed: 5, Telemetry: telemetry.NewRegistry()}
	cfg.Policy, _ = PolicyByName("binpack", cfg.Seed)
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := func(ms []*kvm.Machine) (n int) {
		for _, m := range ms {
			if _, err := m.Mem.HostRead(0, 1); !errors.Is(err, guestmem.ErrReleased) {
				n++
			}
		}
		return n
	}
	guests := make([][]*kvm.Machine, len(c.Shards()))
	for i, s := range c.Shards() {
		i, s := i, s
		s.Host.OnNewMachine = func(m *kvm.Machine) {
			if n := live(guests[i]); n >= cfg.ASIDsPerHost {
				t.Errorf("%s: a new guest while %d others hold memory, %d ASIDs", s.Name, n, cfg.ASIDsPerHost)
			}
			guests[i] = append(guests[i], m)
		}
	}
	var imgs []*Image
	for i := 0; i < 2; i++ {
		preset := kernelgen.Lupine()
		preset.Cmdline = fmt.Sprintf("%s img=%d", preset.Cmdline, i)
		img, err := c.RegisterImage(fmt.Sprintf("img-%d", i), preset, testInitrd(256<<10))
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	spec := TraceSpec{Kind: TraceBursty, Arrivals: 48, MeanGap: 100 * time.Microsecond,
		Images: 2, BurstFactor: 8, BurstOn: time.Millisecond, BurstOff: 2 * time.Millisecond, Seed: 5}
	arr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Play(arr, imgs, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	noFaults(t, c)
	for i, s := range c.Shards() {
		if n := live(guests[i]); n != 0 {
			t.Errorf("%s: %d guests still hold memory after the run", s.Name, n)
		}
		if _, counters := s.Host.HostStats.Snapshot(); len(guests[i]) > cfg.ASIDsPerHost && counters["guestmem.dir.reused"] == 0 {
			t.Errorf("%s: %d guests, none built from a released one", s.Name, len(guests[i]))
		}
	}
}
