package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/artifact"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/snapshot"
)

// scripted places the k-th boot on hosts[k]: the warm-pool tests need a
// boot on a particular host at a particular instant, not a policy's
// opinion of where it should go.
type scripted struct {
	hosts []int
	next  int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Place(_ *Cluster, _ *Image, avail []*HostShard) *HostShard {
	want := s.hosts[s.next]
	s.next++
	for _, h := range avail {
		if h.Index == want {
			return h
		}
	}
	panic("scripted placement on a host with no free ASID")
}

// step is one scripted action at a virtual instant.
type step struct {
	at time.Duration
	do func(p *sim.Proc)
}

// warmPool is a warm cluster of one image driven by a script.
type warmPool struct {
	t   *testing.T
	eng *sim.Engine
	c   *Cluster
	img *Image
}

// newWarmPool builds a warm cluster whose boots land on the given hosts in
// order. With stormGen set the cluster gets a key broker (a storm's
// revocations live there), hosts alternate between two chip generations,
// and stormGen is revoked at stormAt.
func newWarmPool(t *testing.T, hosts int, placements []int, stormGen string, stormAt time.Duration) *warmPool {
	t.Helper()
	cfg := Config{Hosts: hosts, EnableWarm: true, Seed: 42, Policy: &scripted{hosts: placements}}
	var broker *kbs.Broker
	if stormGen != "" {
		auth := kbs.NewAuthority(5)
		broker = kbs.NewBroker(auth.Root(), kbs.Config{MinTCB: stormTCB, Seed: 5})
		broker.AddTenant("t0", []byte("key"))
		cfg.Generations = 2
		cfg.KBS, cfg.Authority, cfg.TCB, cfg.AgentSeed = broker, auth, stormTCB, 9
		cfg.Admission = broker.PolicyEngine()
	}
	w := &warmPool{t: t, eng: sim.NewEngine()}
	var err error
	if w.c, err = New(w.eng, cfg); err != nil {
		t.Fatal(err)
	}
	if stormGen != "" {
		if err := w.c.InstallStorm(broker, StormConfig{At: stormAt, Generation: stormGen}); err != nil {
			t.Fatal(err)
		}
	}
	if w.img, err = w.c.RegisterImage("fn", kernelgen.Lupine(), testInitrd(64<<10)); err != nil {
		t.Fatal(err)
	}
	return w
}

// boot submits one boot of the pool's image.
func (w *warmPool) boot(p *sim.Proc) {
	_ = w.c.Submit(p, Request{Tenant: "t0", Image: w.img})
}

// play runs the script to completion and drains the cluster. The
// publication it ends with, when intact, must be keyed by the seal the
// documented field list gives over its donor's own page table.
func (w *warmPool) play(steps ...step) {
	w.eng.Go("script", func(p *sim.Proc) {
		var now time.Duration
		for _, s := range steps {
			p.Sleep(s.at - now)
			now = s.at
			s.do(p)
		}
		w.c.Close()
	})
	w.eng.Run()
	if f := w.img.fork; w.img.published && f.Src.Verify() == nil {
		if want := artifact.BlobKey(sealOfDonor(w.t, f, f.Donor)); w.img.sealedKey != want {
			w.t.Errorf("publication keyed %x, its field list over the donor's pages seals to %x", w.img.sealedKey[:8], want[:8])
		}
	}
}

// sealOfDonor is the page-list reference for Fork.Seal: the documented
// field list, with the page table read off the donor guest itself
// (ExportPages) instead of the fork source's runs.
func sealOfDonor(t *testing.T, f *snapshot.Fork, donor *kvm.Machine) [32]byte {
	t.Helper()
	pages, err := donor.Mem.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	flag := byte(0)
	if f.SEV {
		flag = 1
	}
	b := le.AppendUint64(append([]byte("SVFSNAP1"), flag), f.Src.Size())
	b = le.AppendUint32(b, uint32(len(pages)))
	for _, pg := range pages {
		private := byte(0)
		if pg.Private {
			private = 1
		}
		b = append(le.AppendUint64(b, pg.PN), private)
	}
	root, keyID := f.Src.Root(), f.Src.KeyID()
	b = append(append(append(b, root[:]...), f.Digest[:]...), keyID[:]...)
	return sha256.Sum256(b)
}

// TestStormDuringTransferServesCold: a storm that withdraws a publication
// while an adopter's transfer is on the fabric has not damaged the image.
// The adopter paid for a container that is no longer on offer; its boot
// goes cold and is served, not failed.
func TestStormDuringTransferServesCold(t *testing.T) {
	// h0 (gen0) publishes; h1 (gen1) starts fetching at 1s, and the ~13 ms
	// peer transfer of a ~40 MB container straddles the storm.
	w := newWarmPool(t, 2, []int{0, 1}, "gen0", time.Second+5*time.Millisecond)
	var withdrawn artifact.BlobKey
	w.play(
		step{0, w.boot},
		step{time.Second, func(p *sim.Proc) {
			if !w.img.published || w.img.donorHost != 0 {
				t.Error("h0 had not published by the time the adopter arrived")
			}
			withdrawn = w.img.sealedKey
			w.boot(p)
		}},
	)
	sum := w.c.Summarize()
	noFaults(t, w.c)
	// A completed fetch and no adoption pin the storm inside the transfer:
	// a storm before it would have skipped the fetch, one after it would
	// have found the pool adopted.
	if !w.c.repl.Present(1, withdrawn) {
		t.Fatal("h1 never fetched the container (the storm must land mid-transfer)")
	}
	if sum.WarmPool.Adoptions != 0 || sum.Storm.WarmInvalidatedBytes == 0 {
		t.Fatalf("adoptions %d, withdrawn bytes %d; want the publication withdrawn before adoption",
			sum.WarmPool.Adoptions, sum.Storm.WarmInvalidatedBytes)
	}
	if sum.Failed != 0 || sum.Served != 2 {
		t.Fatalf("served %d, failed %d; want both boots served", sum.Served, sum.Failed)
	}
	if cold := w.c.shards[1].tiers[fleet.TierCold]; cold != 1 {
		t.Fatalf("h1 served %d cold boots, want its one boot cold", cold)
	}
	// The cold boot re-seeded the pool from a trusted donor.
	if !w.img.published || w.img.donorHost != 1 || sum.Storm.Reseeds != 1 {
		t.Fatalf("published %v by h%d, %d reseeds; want h1's capture re-published",
			w.img.published, w.img.donorHost, sum.Storm.Reseeds)
	}
}

// TestTamperedContainerRefusedAtAdoption: the adoption check is on the
// container a host is about to fork from. A blob corrupted on the
// publisher after publication fails the seal comparison on the adopting
// host: nothing is adopted, the publication is withdrawn, the boot is
// served cold from measured bytes, and that capture re-publishes. The
// publisher's own pool falls to the existing fork-time root check.
func TestTamperedContainerRefusedAtAdoption(t *testing.T) {
	w := newWarmPool(t, 2, []int{0, 1, 0, 0}, "", 0)
	var published, republished artifact.BlobKey
	var honest [32]byte
	w.play(
		step{0, w.boot},
		step{time.Second, func(*sim.Proc) {
			published, honest = w.img.sealedKey, w.img.fork.Digest
			w.img.fork.Src.Blob().Corrupt(100, 0x40)
		}},
		step{2 * time.Second, w.boot}, // h1: adoption refused, cold
		step{3 * time.Second, func(p *sim.Proc) {
			if w.c.adoptions != 0 || w.c.failed != 0 {
				t.Errorf("adoptions %d, failed %d after the refused adoption; want 0, 0", w.c.adoptions, w.c.failed)
			}
			if cold := w.c.shards[1].tiers[fleet.TierCold]; cold != 1 {
				t.Errorf("h1 served %d cold boots, want its one boot cold", cold)
			}
			if !w.img.published || w.img.donorHost != 1 || w.img.sealedKey == published {
				t.Errorf("published %v by h%d under the old key %v; want h1's capture re-published under its own",
					w.img.published, w.img.donorHost, w.img.sealedKey == published)
			}
			h1 := w.img.perHost[1].ForkState()
			if h1 == nil || h1.Digest != honest || h1.Digest != w.c.shards[1].Cache.Get(w.img.key).Digest {
				t.Error("h1's cold boot did not carry the image's measured launch digest")
			}
			republished = w.img.sealedKey
			w.boot(p) // h0: forks its own tampered pool, refused, evicted
		}},
		step{4 * time.Second, func(p *sim.Proc) {
			if w.img.perHost[0].HasWarm() {
				t.Error("publisher's tampered pool survived a fork attempt")
			}
			w.boot(p) // h0: adopts h1's honest container
		}},
	)
	if err := w.c.shards[0].Orch.Err(); !errors.Is(err, guestmem.ErrForkTampered) {
		t.Fatalf("publisher's fork of the tampered pool: %v, want ErrForkTampered", err)
	}
	if w.c.failed != 1 || w.c.served != 3 {
		t.Fatalf("served %d, failed %d; want only the publisher's tampered fork failed", w.c.served, w.c.failed)
	}
	if w.c.adoptions != 1 || w.img.sealedKey != republished || w.img.perHost[0].ForkState() != w.img.perHost[1].ForkState() {
		t.Fatalf("adoptions %d; want h0 to have adopted h1's container", w.c.adoptions)
	}
	if warm := w.c.shards[0].tiers[fleet.TierWarm]; warm != 1 {
		t.Fatalf("h0 served %d warm boots, want the last one", warm)
	}
}

// TestReseededPublicationIsADifferentBlob: a publication is keyed by its
// container's seal, and the seal binds the donor's key identity, so the
// container a trusted host re-publishes after a storm is a different blob
// from the withdrawn one even though image, plain text and launch digest
// are equal. Were the keys equal, the replicator would believe every host
// that fetched the tainted container already holds the new one.
func TestReseededPublicationIsADifferentBlob(t *testing.T) {
	// h0 (gen0) publishes, h1 (gen1) adopts; the storm revokes gen0; h3
	// (gen1) re-seeds; h1 comes back for the new container.
	w := newWarmPool(t, 4, []int{0, 1, 3, 1}, "gen0", 2*time.Second)
	var withdrawn artifact.BlobKey
	w.play(
		step{0, w.boot},
		step{time.Second, func(p *sim.Proc) {
			withdrawn = w.img.sealedKey
			w.boot(p)
		}},
		step{3 * time.Second, func(p *sim.Proc) {
			if w.img.published || w.img.perHost[1].HasWarm() || !w.c.repl.Present(1, withdrawn) {
				t.Error("storm did not withdraw the publication and evict its adopter, or h1 never held the blob")
			}
			w.boot(p)
		}},
		step{4 * time.Second, func(p *sim.Proc) {
			if !w.img.published || w.img.donorHost != 3 {
				t.Errorf("published %v by h%d, want h3's re-seed", w.img.published, w.img.donorHost)
			}
			if w.img.sealedKey == withdrawn {
				t.Error("re-seeded publication carries the withdrawn publication's key")
			}
			if w.c.repl.Present(1, w.img.sealedKey) {
				t.Error("h1 is believed to hold a container it never fetched")
			}
			w.boot(p)
		}},
	)
	sum := w.c.Summarize()
	noFaults(t, w.c)
	if got := w.c.repl.Stats().PerHost[1]; got.PeerFetches != 2 || got.PeerBytes != 2*int64(w.img.sealedSize) {
		t.Fatalf("h1 paid %d peer fetches / %d bytes, want one per publication (2 / %d)",
			got.PeerFetches, got.PeerBytes, 2*w.img.sealedSize)
	}
	if sum.Failed != 0 || sum.WarmPool.Adoptions != 2 || sum.Storm.Reseeds != 1 || sum.Storm.TaintedWarmServed != 0 {
		t.Fatalf("failed %d, adoptions %d, reseeds %d, tainted %d; want 0, 2, 1, 0",
			sum.Failed, sum.WarmPool.Adoptions, sum.Storm.Reseeds, sum.Storm.TaintedWarmServed)
	}
}

// TestWarmParentHeldOnce: the process holds a warm parent once. One
// capture exports one fork source, copying only the pages the guest
// dirtied; publishing it encodes nothing; every adopter forks from the
// publisher's container itself, and adopting costs no allocation that
// grows with the image.
func TestWarmParentHeldOnce(t *testing.T) {
	const hosts = 4
	w := newWarmPool(t, hosts, []int{0}, "", 0)
	var fork *snapshot.Fork
	w.play(
		step{0, w.boot},
		step{time.Second, func(p *sim.Proc) {
			fork = w.img.fork
			if !w.img.published || fork == nil {
				t.Fatal("h0 did not publish")
			}
			donor := w.img.perHost[0].ForkState().Donor // the publisher's
			if want := snapshot.SealedLen(fork.Src.NumPages()); w.img.sealedSize != want || w.c.publishedBytes != int64(want) {
				t.Errorf("published %d bytes (size %d), want the sealed length %d", w.c.publishedBytes, w.img.sealedSize, want)
			}
			var before, after runtime.MemStats
			for _, s := range w.c.shards[1:] {
				simg := w.img.perHost[s.Index]
				runtime.ReadMemStats(&before)
				if err := w.c.adoptWarm(p, s, w.img, simg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if simg.ForkState() != fork || simg.ForkState().Donor != donor {
					t.Errorf("%s did not adopt the publisher's container", s.Name)
				}
				if grew, resident := after.TotalAlloc-before.TotalAlloc, uint64(fork.Src.NumPages()*guestmem.PageSize); grew*32 >= resident {
					t.Errorf("%s: adoption allocated %d bytes; the image holds %d resident", s.Name, grew, resident)
				}
			}
		}},
	)
	noFaults(t, w.c)
	if w.c.captures != 1 || w.c.adoptions != hosts-1 {
		t.Fatalf("captures %d, adoptions %d; want 1, %d", w.c.captures, w.c.adoptions, hosts-1)
	}
	var exported, exportedBytes int64
	for _, s := range w.c.shards {
		_, counters := s.Host.HostStats.Snapshot()
		exported += counters["guestmem.fork.exported"]
		exportedBytes += counters["guestmem.fork.exported_bytes"]
	}
	// exported_bytes is what the capture copied: the dirty blob, a sliver
	// of a booted guest — the rest stays where the artifacts hold it.
	resident := int64(fork.Src.NumPages() * guestmem.PageSize)
	if exported != 1 || exportedBytes != int64(fork.Src.Blob().Len()) || exportedBytes == 0 || exportedBytes*100 >= resident {
		t.Fatalf("%d fork sources / %d bytes copied for one capture and %d adoptions; want 1 / %d, under 1%% of the %d resident",
			exported, exportedBytes, hosts-1, fork.Src.Blob().Len(), resident)
	}
}

// TestTamperedAliasedArtifactRefusedAtAdoption: most of a container's
// pages are not in its blob — they alias the image's registered artifacts,
// which the seal covers through the fork root. A byte flipped in one of
// them after publication fails the adopting host's seal check exactly as a
// flip in the blob does: nothing is adopted and the publication is
// withdrawn. With the byte restored, the next boot is served cold from
// honest bytes and re-publishes.
func TestTamperedAliasedArtifactRefusedAtAdoption(t *testing.T) {
	w := newWarmPool(t, 2, []int{0, 1}, "", 0)
	w.play(
		step{0, w.boot},
		step{time.Second, func(p *sim.Proc) {
			initrd := artifact.Lookup(w.img.perHost[0].Spec().Initrd)
			if !w.img.published || initrd == nil {
				t.Fatal("h0 did not publish, or the image's initrd is not an interned artifact")
			}
			simg := w.img.perHost[1]
			initrd.Corrupt(1000, 0x08)
			err := w.c.adoptWarm(p, w.c.shards[1], w.img, simg)
			initrd.Corrupt(1000, 0x08) // the buffer is shared with every test that builds this initrd
			if err != nil || simg.HasWarm() || w.img.published || w.c.adoptions != 0 {
				t.Errorf("adoption over a tampered initrd: err %v, adopted %v, still published %v, adoptions %d; want it refused and withdrawn",
					err, simg.HasWarm(), w.img.published, w.c.adoptions)
			}
		}},
		step{2 * time.Second, w.boot}, // h1: cold, from honest bytes
	)
	noFaults(t, w.c)
	if w.c.failed != 0 || w.c.served != 2 || w.c.shards[1].tiers[fleet.TierCold] != 1 {
		t.Fatalf("served %d, failed %d, h1 cold %d; want both boots served, h1's cold", w.c.served, w.c.failed, w.c.shards[1].tiers[fleet.TierCold])
	}
	if !w.img.published || w.img.donorHost != 1 {
		t.Fatalf("published %v by h%d; want h1's capture re-published", w.img.published, w.img.donorHost)
	}
}
