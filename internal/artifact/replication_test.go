package artifact

import (
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

func blobKey(s string) BlobKey { return BlobKey(sha256.Sum256([]byte(s))) }

// Unit costs make virtual-time charges exact: 1 byte/sec means a
// transfer of n bytes takes n seconds plus latency.
func unitCost() TransferCost {
	return TransferCost{
		OriginLatency:     3 * time.Second,
		OriginBytesPerSec: 1,
		PeerLatency:       1 * time.Second,
		PeerBytesPerSec:   2,
	}
}

func TestFetchChargesOriginThenPeerThenLocal(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReplicator(3, 4, unitCost(), nil)
	key := blobKey("kernel")
	r.Register(key, 10)

	var (
		srcs  []Source
		times []time.Duration
	)
	fetch := func(host int) {
		eng.Go("f", func(p *sim.Proc) {
			src, err := r.Fetch(p, host, key)
			if err != nil {
				t.Errorf("fetch host %d: %v", host, err)
			}
			srcs = append(srcs, src)
			times = append(times, p.Now().Duration())
		})
		eng.Run()
	}

	fetch(0) // origin: 3s latency + 10 bytes / 1 Bps = 13s
	fetch(1) // peer of host 0: 1s + 10/2 = 6s more
	fetch(1) // local, free

	want := []Source{SourceOrigin, SourcePeer, SourceLocal}
	for i, s := range srcs {
		if s != want[i] {
			t.Errorf("fetch %d source = %v, want %v", i, s, want[i])
		}
	}
	if times[0] != 13*time.Second {
		t.Errorf("origin fetch finished at %v, want 13s", times[0])
	}
	if times[1] != 13*time.Second+6*time.Second {
		t.Errorf("peer fetch finished at %v, want 19s", times[1])
	}
	if times[2] != times[1] {
		t.Errorf("local hit advanced time: %v -> %v", times[1], times[2])
	}

	st := r.Stats()
	if st.Total.OriginFetches != 1 || st.Total.PeerFetches != 1 || st.Total.LocalHits != 1 {
		t.Errorf("geography = %+v", st.Total)
	}
	if st.Total.OriginBytes != 10 || st.Total.PeerBytes != 10 {
		t.Errorf("bytes = origin %d peer %d, want 10/10", st.Total.OriginBytes, st.Total.PeerBytes)
	}
	if st.PerHost[0].OriginFetches != 1 || st.PerHost[1].PeerFetches != 1 {
		t.Errorf("per-host geography = %+v", st.PerHost)
	}
}

func TestFetchSingleFlightPerHost(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReplicator(2, 4, unitCost(), nil)
	key := blobKey("initrd")
	r.Register(key, 1)

	var srcs []Source
	for i := 0; i < 3; i++ {
		eng.Go("f", func(p *sim.Proc) {
			src, err := r.Fetch(p, 0, key)
			if err != nil {
				t.Errorf("fetch: %v", err)
			}
			srcs = append(srcs, src)
		})
	}
	eng.Run()

	origins, locals := 0, 0
	for _, s := range srcs {
		switch s {
		case SourceOrigin:
			origins++
		case SourceLocal:
			locals++
		}
	}
	if origins != 1 || locals != 2 {
		t.Errorf("got %d origin / %d local fetches, want 1/2 (srcs=%v)", origins, locals, srcs)
	}
	st := r.Stats()
	if st.PerHost[0].Waits != 2 {
		t.Errorf("waits = %d, want 2", st.PerHost[0].Waits)
	}
	// Only one transfer must have been charged.
	if st.Total.OriginBytes != 1 {
		t.Errorf("origin bytes = %d, want 1", st.Total.OriginBytes)
	}
}

func TestFabricSerializesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	// One fabric slot: two concurrent origin pulls of different blobs
	// must queue back-to-back.
	r := NewReplicator(2, 1, unitCost(), nil)
	k1, k2 := blobKey("a"), blobKey("b")
	r.Register(k1, 1)
	r.Register(k2, 1)

	var last time.Duration
	eng.Go("f1", func(p *sim.Proc) {
		r.Fetch(p, 0, k1)
	})
	eng.Go("f2", func(p *sim.Proc) {
		r.Fetch(p, 1, k2)
		last = p.Now().Duration()
	})
	eng.Run()

	// Each transfer is 3s + 1s = 4s; serialized on one slot → 8s total.
	if last != 8*time.Second {
		t.Errorf("second transfer finished at %v, want 8s", last)
	}
	if got := r.fabric.Served(); got != 2 {
		t.Errorf("fabric served = %d, want 2", got)
	}
}

func TestPublishMakesPeerSource(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReplicator(2, 2, unitCost(), nil)
	key := blobKey("warm-snapshot")
	// Not registered at origin: only host 0 publishes it locally.
	r.Publish(0, key, 4)

	if !r.Present(0, key) {
		t.Fatal("published blob not present on publisher")
	}
	if r.Present(1, key) {
		t.Fatal("published blob present on non-publisher")
	}

	var src Source
	eng.Go("f", func(p *sim.Proc) {
		var err error
		src, err = r.Fetch(p, 1, key)
		if err != nil {
			t.Errorf("fetch published blob: %v", err)
		}
	})
	eng.Run()
	if src != SourcePeer {
		t.Errorf("fetch of published blob = %v, want peer", src)
	}
}

// TestLocalHitFetchAllocatesNothing: a cluster boot fetches its kernel
// and initrd, and a blob already on the host is a free hit in host memory
// too. Only a failed fetch formats its key.
func TestLocalHitFetchAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReplicator(1, 1, unitCost(), nil)
	key := blobKey("kernel")
	r.Register(key, 10)
	var allocs float64
	eng.Go("f", func(p *sim.Proc) {
		if _, err := r.Fetch(p, 0, key); err != nil {
			t.Error(err)
		}
		allocs = testing.AllocsPerRun(100, func() { r.Fetch(p, 0, key) })
	})
	eng.Run()
	if allocs != 0 {
		t.Errorf("a local-hit Fetch allocates %v times, want 0", allocs)
	}
}

func TestFetchUnknownBlob(t *testing.T) {
	eng := sim.NewEngine()
	r := NewReplicator(1, 1, unitCost(), nil)
	var err error
	eng.Go("f", func(p *sim.Proc) {
		_, err = r.Fetch(p, 0, blobKey("nope"))
	})
	eng.Run()
	if !errors.Is(err, ErrUnknownBlob) {
		t.Errorf("err = %v, want ErrUnknownBlob", err)
	}
}

func TestReplicationTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng := sim.NewEngine()
	r := NewReplicator(2, 2, unitCost(), reg)
	key := blobKey("counted")
	r.Register(key, 7)

	eng.Go("f", func(p *sim.Proc) {
		r.Fetch(p, 0, key) // origin
		r.Fetch(p, 0, key) // local
	})
	eng.Run()

	if got := reg.Counter("severifast_replication_fetch_total",
		telemetry.A("host", "h0"), telemetry.A("source", "origin")).Value(); got != 1 {
		t.Errorf("origin fetch counter = %d, want 1", got)
	}
	if got := reg.Counter("severifast_replication_fetch_total",
		telemetry.A("host", "h0"), telemetry.A("source", "local")).Value(); got != 1 {
		t.Errorf("local fetch counter = %d, want 1", got)
	}
	if got := reg.Counter("severifast_replication_bytes_total",
		telemetry.A("host", "h0"), telemetry.A("source", "origin")).Value(); got != 7 {
		t.Errorf("origin bytes counter = %d, want 7", got)
	}
}
