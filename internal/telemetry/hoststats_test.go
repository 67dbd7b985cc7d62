package telemetry

import (
	"bytes"
	"sync"
	"testing"
)

// TestHostCounterNames pins each counter to the name Snapshot and Write
// report it under; bench/ and the facade's WriteHostStats read these.
func TestHostCounterNames(t *testing.T) {
	table := []struct {
		c    HostCounter
		name string
	}{
		{GuestmemDirReused, "guestmem.dir.reused"},
		{GuestmemLeafReused, "guestmem.leaf.reused"},
		{GuestmemChunkReused, "guestmem.chunk.reused"},
		{GuestmemPageReused, "guestmem.page.reused"},
		{GuestmemLeafShared, "guestmem.leaf.shared"},
		{GuestmemChunkShared, "guestmem.chunk.shared"},
		{GuestmemLeafOwned, "guestmem.leaf.owned"},
		{GuestmemChunkOwned, "guestmem.chunk.owned"},
		{GuestmemForkExported, "guestmem.fork.exported"},
		{GuestmemForkExportedBytes, "guestmem.fork.exported_bytes"},
		{GuestmemForkAdopted, "guestmem.fork.adopted"},
		{GuestmemForkAliasedPages, "guestmem.fork.aliased_pages"},
		{GuestmemDigestMemo, "guestmem.digest.memo"},
		{GuestmemDigestStreamed, "guestmem.digest.streamed"},
		{GuestmemDigestStreamedBytes, "guestmem.digest.streamed_bytes"},
		{GuestmemDigestTransformed, "guestmem.digest.transformed"},
		{GuestmemViewHit, "guestmem.view.hit"},
		{GuestmemViewBytes, "guestmem.view.bytes"},
		{ArtifactInterned, "artifact.interned"},
		{ArtifactInternedBytes, "artifact.interned_bytes"},
		{ArtifactDigestHit, "artifact.digest.hit"},
		{ArtifactDigestMiss, "artifact.digest.miss"},
		{ArtifactDigestBytesSpared, "artifact.digest.bytes_spared"},
		{ArtifactDigestBytesHashed, "artifact.digest.bytes_hashed"},
		{ArtifactDerivedHit, "artifact.derived.hit"},
		{ArtifactDerivedMiss, "artifact.derived.miss"},
		{ArtifactCorrupted, "artifact.corrupted"},
		{PSPFoldPrefixHits, "psp.fold.prefix_hits"},
		{PSPFoldPrefixMisses, "psp.fold.prefix_misses"},
	}
	if len(table) != int(numHostCounters) {
		t.Fatalf("table pins %d counters, the recorder has %d", len(table), numHostCounters)
	}
	for i, tc := range table {
		r := NewHostRecorder()
		r.Add(tc.c, int64(i)+1)
		_, counters := r.Snapshot()
		if len(counters) != 1 || counters[tc.name] != int64(i)+1 {
			t.Errorf("Add(%d) snapshots as %v, want %s=%d", tc.c, counters, tc.name, i+1)
		}
	}
}

// TestHostCounterSnapshot: a counter is reported once something was
// added to it, zero included, and not after Reset; Write prints the same
// names in order.
func TestHostCounterSnapshot(t *testing.T) {
	r := NewHostRecorder()
	if _, counters := r.Snapshot(); len(counters) != 0 {
		t.Fatalf("fresh recorder reports %v", counters)
	}
	r.Add(GuestmemViewHit, 0)
	r.Add(ArtifactDigestMiss, 3)
	r.Add(ArtifactDigestMiss, 4)
	_, counters := r.Snapshot()
	if len(counters) != 2 || counters["guestmem.view.hit"] != 0 || counters["artifact.digest.miss"] != 7 {
		t.Fatalf("counters = %v", counters)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "sevf_host_counter{name=\"artifact.digest.miss\"} 7\nsevf_host_counter{name=\"guestmem.view.hit\"} 0\n"
	if buf.String() != want {
		t.Fatalf("Write:\n%s\nwant:\n%s", buf.String(), want)
	}
	r.Reset()
	if _, counters := r.Snapshot(); len(counters) != 0 {
		t.Fatalf("after Reset: %v", counters)
	}
}

func TestHostCounterAddAllocatesNothing(t *testing.T) {
	r := NewHostRecorder()
	if got := testing.AllocsPerRun(100, func() { r.Add(GuestmemPageReused, 1) }); got != 0 {
		t.Fatalf("Add allocates %.1f times, want 0", got)
	}
}

// TestHostCounterConcurrentAdds: adds from many goroutines, as the
// hostwork pool and fleet workers make them, sum exactly. Run under
// -race.
func TestHostCounterConcurrentAdds(t *testing.T) {
	const goroutines, adds = 8, 5000
	r := NewHostRecorder()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				r.Add(ArtifactDigestHit, 1)
				r.Add(ArtifactDigestBytesSpared, int64(g))
				if i%1000 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	_, counters := r.Snapshot()
	if got := counters["artifact.digest.hit"]; got != goroutines*adds {
		t.Fatalf("hits = %d, want %d", got, goroutines*adds)
	}
	if got := counters["artifact.digest.bytes_spared"]; got != adds*(goroutines*(goroutines-1)/2) {
		t.Fatalf("bytes spared = %d, want %d", got, adds*(goroutines*(goroutines-1)/2))
	}
	if len(counters) != 2 {
		t.Fatalf("untouched counters reported: %v", counters)
	}
}
