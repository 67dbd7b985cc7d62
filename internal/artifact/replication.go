// The replication layer extends the content-addressed intern store
// across hosts: a Replicator tracks, per simulated host, which blobs
// (kernel images, initrds, sealed warm snapshots) are locally present,
// and charges the virtual-time cost of moving a blob that is not. A
// fetch resolves against the nearest holder — the host itself (free),
// any peer host that already holds the blob (east-west transfer), or
// the origin registry (the slower north-south pull a cold datacenter
// pays). Transfers contend on a shared fabric resource, so a burst of
// image pulls serializes in virtual time exactly like a burst of PSP
// launches does.
//
// Because blobs are content-addressed, replication needs no
// invalidation: a blob either is the named bytes or it is not present.
// The per-host hit/fetch counters are the run's "cache-hit geography" —
// how much of the fleet's image traffic was served locally, laterally,
// or from origin.
package artifact

import (
	"errors"
	"fmt"
	"time"

	"github.com/severifast/severifast/internal/sim"
	"github.com/severifast/severifast/internal/telemetry"
)

// BlobKey is the content address of a replicated blob (SHA-256 of its
// bytes — Buf.Digest for interned buffers).
type BlobKey [32]byte

// Source classifies where a Fetch was served from.
type Source int

// Fetch sources, nearest first.
const (
	// SourceLocal: the blob was already present on the host (or another
	// in-flight fetch for the same host completed while we waited).
	SourceLocal Source = iota
	// SourcePeer: copied from another host over the cluster fabric.
	SourcePeer
	// SourceOrigin: pulled from the origin registry.
	SourceOrigin
)

func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local"
	case SourcePeer:
		return "peer"
	case SourceOrigin:
		return "origin"
	}
	return fmt.Sprintf("source(%d)", int(s))
}

// TransferCost prices blob movement in virtual time: a fixed latency
// plus a bandwidth term per transfer. Peer (east-west) transfers are
// expected to be cheaper than origin (registry) pulls.
type TransferCost struct {
	OriginLatency     time.Duration
	OriginBytesPerSec float64
	PeerLatency       time.Duration
	PeerBytesPerSec   float64
}

// DefaultTransferCost models a 10 Gb/s registry path with a couple of
// milliseconds of front-end latency, and a faster, closer east-west
// fabric between hosts.
func DefaultTransferCost() TransferCost {
	return TransferCost{
		OriginLatency:     2 * time.Millisecond,
		OriginBytesPerSec: 1.25e9,
		PeerLatency:       200 * time.Microsecond,
		PeerBytesPerSec:   3.0e9,
	}
}

func (c TransferCost) origin(n int) time.Duration {
	return c.OriginLatency + perBytes(c.OriginBytesPerSec, n)
}

func (c TransferCost) peer(n int) time.Duration {
	return c.PeerLatency + perBytes(c.PeerBytesPerSec, n)
}

func perBytes(bytesPerSec float64, n int) time.Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// GeoStats is one host's view of where its blob demand was served.
type GeoStats struct {
	// LocalHits counts fetches satisfied without any transfer.
	LocalHits int
	// Waits counts fetches that piggybacked on a transfer another boot
	// on the same host already had in flight (counted as LocalHits too).
	Waits int
	// PeerFetches/OriginFetches count actual transfers by source.
	PeerFetches   int
	OriginFetches int
	// PeerBytes/OriginBytes are the transferred volumes.
	PeerBytes   int64
	OriginBytes int64
}

// ReplStats aggregates geography across hosts.
type ReplStats struct {
	PerHost []GeoStats
	Total   GeoStats
}

func (s GeoStats) add(o GeoStats) GeoStats {
	s.LocalHits += o.LocalHits
	s.Waits += o.Waits
	s.PeerFetches += o.PeerFetches
	s.OriginFetches += o.OriginFetches
	s.PeerBytes += o.PeerBytes
	s.OriginBytes += o.OriginBytes
	return s
}

// blob is one content-addressed object's replication state.
type blob struct {
	size     int
	origin   bool // held by the origin registry
	present  []bool
	holders  int           // hosts with present[i] == true
	fetching []*sim.Signal // per-host in-flight fetch, nil when none
}

// Replicator is the cross-host distribution directory. It is part of
// the simulation model: all methods that move virtual time take a
// *sim.Proc, and all state is touched only by processes of one engine
// (which run one at a time), so it needs no locking — sharing a
// Replicator across engines is a caller bug.
type Replicator struct {
	hosts  int
	fabric *sim.Resource
	cost   TransferCost
	blobs  map[BlobKey]*blob
	stats  []GeoStats
	reg    *telemetry.Registry
}

// ErrUnknownBlob reports a fetch for a key nobody registered.
var ErrUnknownBlob = errors.New("artifact: blob not registered with any source")

// NewReplicator builds a directory for the given host count.
// fabricSlots bounds concurrent transfers cluster-wide (the shared
// network fabric); cost prices each transfer. reg, when non-nil,
// receives per-host fetch/byte counters (nil is inert).
func NewReplicator(hosts, fabricSlots int, cost TransferCost, reg *telemetry.Registry) *Replicator {
	if hosts < 1 {
		panic("artifact: replicator needs at least one host")
	}
	if fabricSlots < 1 {
		fabricSlots = 1
	}
	return &Replicator{
		hosts:  hosts,
		fabric: sim.NewResource("fabric", fabricSlots),
		cost:   cost,
		blobs:  make(map[BlobKey]*blob),
		stats:  make([]GeoStats, hosts),
		reg:    reg,
	}
}

// Register announces a blob held by the origin registry. Registering
// the same key again (size must match) is a no-op, so content-identical
// images across specs share one entry.
func (r *Replicator) Register(key BlobKey, size int) {
	b := r.blobs[key]
	if b == nil {
		b = r.newBlob(size)
		r.blobs[key] = b
	}
	b.origin = true
}

// Publish announces a blob produced locally on a host (a captured warm
// snapshot) without any transfer: the host becomes a peer source.
func (r *Replicator) Publish(host int, key BlobKey, size int) {
	b := r.blobs[key]
	if b == nil {
		b = r.newBlob(size)
		r.blobs[key] = b
	}
	if !b.present[host] {
		b.present[host] = true
		b.holders++
	}
}

func (r *Replicator) newBlob(size int) *blob {
	return &blob{
		size:     size,
		present:  make([]bool, r.hosts),
		fetching: make([]*sim.Signal, r.hosts),
	}
}

// Present reports whether the blob is already local to host — the
// signal cache-affinity placement reads. In-flight fetches do not
// count.
func (r *Replicator) Present(host int, key BlobKey) bool {
	b := r.blobs[key]
	return b != nil && b.present[host]
}

// Fetch makes the blob local to host, charging the transfer in virtual
// time, and reports where it was served from. Fetches of a blob already
// present are free local hits. Concurrent fetches of the same blob for
// the same host single-flight: the losers park until the winner's
// transfer lands and then count a (free) waited hit. Transfers occupy a
// fabric slot for their duration, so replication storms queue.
func (r *Replicator) Fetch(p *sim.Proc, host int, key BlobKey) (Source, error) {
	b := r.blobs[key]
	if b == nil {
		return SourceLocal, fmt.Errorf("%w: %x", ErrUnknownBlob, key[:6])
	}
	for {
		if b.present[host] {
			r.stats[host].LocalHits++
			r.count(host, SourceLocal, 0)
			return SourceLocal, nil
		}
		sig := b.fetching[host]
		if sig == nil {
			break
		}
		r.stats[host].Waits++
		sig.Wait(p)
	}
	src := SourceOrigin
	d := r.cost.origin(b.size)
	if b.holders > 0 {
		src = SourcePeer
		d = r.cost.peer(b.size)
	} else if !b.origin {
		return SourceLocal, fmt.Errorf("%w: %x has no holder and no origin", ErrUnknownBlob, key[:6])
	}
	sig := sim.NewSignal()
	b.fetching[host] = sig
	r.fabric.UseLabeled(p, d, "xfer-"+src.String())
	b.present[host] = true
	b.holders++
	b.fetching[host] = nil
	sig.Fire(p.Engine())
	switch src {
	case SourcePeer:
		r.stats[host].PeerFetches++
		r.stats[host].PeerBytes += int64(b.size)
	case SourceOrigin:
		r.stats[host].OriginFetches++
		r.stats[host].OriginBytes += int64(b.size)
	}
	r.count(host, src, b.size)
	return src, nil
}

func (r *Replicator) count(host int, src Source, bytes int) {
	if r.reg == nil {
		return
	}
	h := telemetry.A("host", fmt.Sprintf("h%d", host))
	s := telemetry.A("source", src.String())
	r.reg.Counter("severifast_replication_fetch_total", h, s).Inc()
	if bytes > 0 {
		r.reg.Counter("severifast_replication_bytes_total", h, s).Add(int64(bytes))
	}
}

// Stats snapshots per-host and total geography.
func (r *Replicator) Stats() ReplStats {
	out := ReplStats{PerHost: append([]GeoStats(nil), r.stats...)}
	for _, g := range out.PerHost {
		out.Total = out.Total.add(g)
	}
	return out
}
