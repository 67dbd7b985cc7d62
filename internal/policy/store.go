package policy

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/severifast/severifast/internal/sim"
)

// Store errors.
var (
	ErrDuplicate     = errors.New("policy: duplicate")
	ErrUnknownSigner = errors.New("policy: unknown signer")
	ErrBadSignature  = errors.New("policy: bad claim signature")
	ErrNotFound      = errors.New("policy: not found")
)

// anchorRec is one root-of-trust window for a domain: the named signer is
// an anchor from From through Until inclusive (Until zero = open-ended).
// Rotation closes the old window and opens a new one at the same instant,
// so an evaluation exactly at the rotation instant accepts both keys —
// the handover has no dead gap and no ambiguity.
type anchorRec struct {
	ID    string
	From  sim.Time
	Until sim.Time
}

func (a anchorRec) active(now sim.Time) bool {
	return now >= a.From && (a.Until == 0 || now <= a.Until)
}

// claimRec wraps a stored claim with store-side metadata. The claim
// itself is immutable once filed — revocation is metadata, never a
// signature rewrite — and the signature verdict is memoized on first
// evaluation so the P-384 verify is paid once per claim, not per boot.
type claimRec struct {
	claim      Claim
	revoked    bool
	revokedAt  sim.Time
	sigChecked bool
	sigOK      bool
}

// effectiveExpiry is the instant after which the record stops being
// valid: the earlier of NotAfter and the revocation instant (zero =
// never).
func (r *claimRec) effectiveExpiry() sim.Time {
	exp := r.claim.NotAfter
	if r.revoked {
		exp = minExpiry(exp, r.revokedAt)
	}
	return exp
}

func (r *claimRec) validAt(now sim.Time) bool {
	if !r.claim.windowValid(now) {
		return false
	}
	return !r.revoked || now <= r.revokedAt
}

// domain is one tenant's trust domain: its anchor windows and claims,
// kept sorted by claim ID so evaluation order is deterministic.
type domain struct {
	name    string
	detail  string // the domain rule's detail when it alone covers a tenant
	anchors []anchorRec
	claims  []*claimRec
}

func (d *domain) find(id string) (*claimRec, int) {
	i := sort.Search(len(d.claims), func(i int) bool { return d.claims[i].claim.ID >= id })
	if i < len(d.claims) && d.claims[i].claim.ID == id {
		return d.claims[i], i
	}
	return nil, i
}

// Store holds per-tenant trust domains, the signer registry, and a
// monotonic version that bumps on every mutation. The version is what
// lets downstream caches (the broker's verdict cache, fleet admission
// certificates) notice a revocation storm without subscribing to events:
// a certificate minted under version N is stale the instant the store
// moves to N+1.
//
// The store is mutex-guarded: claims arrive from cache-publish callbacks
// on worker goroutines while engine processes evaluate admissions.
type Store struct {
	mu sync.Mutex
	// floorMu serializes BumpFloor's read-revoke-file sequence, so two
	// concurrent bumps cannot both read the same current floor.
	floorMu   sync.Mutex
	signers   map[string]*ecdsa.PublicKey
	domains   map[string]*domain
	version   uint64
	intercept func(Claim) Claim
	stats     statsInner
	engine    *Engine
}

type statsInner struct {
	evals   int
	grants  int
	denials int
	ledger  Ledger // every verdict, unstamped
}

// Stats is a deterministic snapshot of the store.
type Stats struct {
	Domains int
	Claims  int
	Signers int
	Revoked int
	Version uint64

	Evals   int
	Grants  int
	Denials int
	// Views of the store's ledger, nil while the engine refused nothing.
	DenialsByReason map[string]int
	DenialsByRule   map[string]int
}

// NewStore builds an empty store.
func NewStore() *Store {
	s := &Store{
		signers: make(map[string]*ecdsa.PublicKey),
		domains: make(map[string]*domain),
	}
	s.engine = &Engine{store: s}
	return s
}

// Engine returns the evaluation engine bound to this store.
func (s *Store) Engine() *Engine { return s.engine }

// AddSigner registers a signer's public key under the ID its claims name
// as Issuer.
func (s *Store) AddSigner(sg *Signer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.signers[sg.ID]; ok {
		return fmt.Errorf("%w: signer %q", ErrDuplicate, sg.ID)
	}
	s.signers[sg.ID] = &sg.key.PublicKey
	s.version++
	return nil
}

// EnsureDomain creates the named trust domain if absent and anchors the
// given signers in it from virtual time zero, open-ended. Repeated calls
// are additive and idempotent per anchor.
func (s *Store) EnsureDomain(name string, anchors ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.domains[name]
	if d == nil {
		d = &domain{name: name, detail: "domains " + name}
		s.domains[name] = d
		s.version++
	}
	for _, a := range anchors {
		dup := false
		for _, rec := range d.anchors {
			if rec.ID == a && rec.From == 0 && rec.Until == 0 {
				dup = true
				break
			}
		}
		if !dup {
			d.anchors = append(d.anchors, anchorRec{ID: a})
			s.version++
		}
	}
}

// File signs c as by and files it under the domain its scope names
// (wildcard scopes file under the "*" domain). The signer must be
// registered under its ID with the same key, so an honest writer gets its
// mistakes back as typed errors: ErrUnknownSigner, ErrBadSignature, or
// ErrDuplicate when the domain already holds a claim with c's ID. A caller
// that wants idempotent filing ignores ErrDuplicate explicitly. When an
// Intercept hook is installed it models an adversary on the store's write
// path: the signed claim is transformed and filed verbatim with no checks,
// and the engine's per-claim verification decides its fate at evaluation
// time.
func (s *Store) File(by *Signer, c Claim) error {
	c, err := by.sign(c)
	if err != nil {
		return err
	}
	// The filing domain comes from the claim as written, so an intercept
	// that rescopes it leaves a visibly foreign claim where the honest
	// one would have gone — which is exactly what the engine's
	// out-of-scope check exists to catch.
	name := domainNameFor(c)
	s.mu.Lock()
	hook := s.intercept
	s.mu.Unlock()
	if hook != nil {
		return s.inject(name, hook(c), false)
	}
	s.mu.Lock()
	pub, ok := s.signers[c.Issuer]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: issuer %q", ErrUnknownSigner, c.Issuer)
	}
	if !verifyClaim(&c, pub) {
		return fmt.Errorf("%w: claim %q", ErrBadSignature, c.ID)
	}
	return s.inject(name, c, true)
}

// Inject files a claim with no checks at all — the hostile-write path
// used by tests and chaos mutations. The engine re-verifies every claim
// it consults, so an injected forgery is caught at evaluation, with the
// precise reason recorded in the decision trace.
func (s *Store) Inject(c Claim) error {
	return s.inject(domainNameFor(c), c, false)
}

func domainNameFor(c Claim) string {
	if c.Scope == "" {
		return "*"
	}
	return c.Scope
}

func (s *Store) inject(name string, c Claim, sigVerified bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.domains[name]
	if d == nil {
		d = &domain{name: name, detail: "domains " + name}
		s.domains[name] = d
	}
	rec, i := d.find(c.ID)
	if rec != nil {
		return fmt.Errorf("%w: claim %q in domain %q", ErrDuplicate, c.ID, name)
	}
	nr := &claimRec{claim: c, sigChecked: sigVerified, sigOK: sigVerified}
	d.claims = append(d.claims, nil)
	copy(d.claims[i+1:], d.claims[i:])
	d.claims[i] = nr
	s.version++
	return nil
}

// Intercept installs (or clears, with nil) the write-path hook File
// routes through. See File.
func (s *Store) Intercept(fn func(Claim) Claim) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.intercept = fn
}

// RevokeClaim marks the claim invalid for every instant strictly after
// `at` (the boundary instant itself still admits — the same inclusive
// convention as claim expiry and broker nonces). The store version bumps,
// so every cached certificate and verdict minted before the revocation
// is invalidated at once: a revocation storm is this call in a loop, not
// a provisioning teardown.
func (s *Store) RevokeClaim(domainName, id string, at sim.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.domains[domainName]
	if d == nil {
		return fmt.Errorf("%w: domain %q", ErrNotFound, domainName)
	}
	rec, _ := d.find(id)
	if rec == nil {
		return fmt.Errorf("%w: claim %q in domain %q", ErrNotFound, id, domainName)
	}
	if rec.revoked {
		rec.revokedAt = minExpiry(rec.revokedAt, at)
	} else {
		rec.revoked = true
		rec.revokedAt = at
	}
	s.version++
	return nil
}

// RevokeKind revokes every claim of the kind in the domain at the
// instant. This is the revocation-storm primitive: one call distrusts a
// whole class of claims at a virtual instant. Like RevokeClaim, an
// unknown domain is a typed ErrNotFound; a known domain holding no claim
// of the kind is success and leaves the version alone.
func (s *Store) RevokeKind(domainName string, kind Kind, at sim.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.domains[domainName]
	if d == nil {
		return fmt.Errorf("%w: domain %q", ErrNotFound, domainName)
	}
	touched := false
	for _, rec := range d.claims {
		if rec.claim.Kind != kind {
			continue
		}
		if rec.revoked {
			rec.revokedAt = minExpiry(rec.revokedAt, at)
		} else {
			rec.revoked = true
			rec.revokedAt = at
		}
		touched = true
	}
	if touched {
		s.version++
	}
	return nil
}

// FloorClaimID names the first minimum-TCB floor: a platform claim for
// every chip in the "*" domain. BumpFloor files each successor under a
// descending ID ("floor-bump-998", "floor-bump-997", ...), so the newest
// floor sorts first in the engine's claim scan and a below-floor platform
// is refused as tcb-below-floor by it, not as claim-expired by the floor
// it replaced.
const FloorClaimID = "min-tcb-floor"

// floorClaimID is the ID of the n-th floor claim, counting from zero.
func floorClaimID(n int) string {
	if n == 0 {
		return FloorClaimID
	}
	return fmt.Sprintf("floor-bump-%03d", 999-n)
}

// BumpFloor raises the "*" domain's minimum-TCB floor at an instant. The
// current floor is read from the store: the last claim of the
// FloorClaimID sequence. It is revoked at `at` (an old-TCB exchange at
// exactly `at` still admits), and by files its successor carrying minTCB
// in force from the same instant, so no instant goes without a floor.
// ErrNotFound when no floor claim was ever filed. Concurrent bumps are
// serialized: each one advances the floor.
func (s *Store) BumpFloor(by *Signer, minTCB uint64, at sim.Time) error {
	s.floorMu.Lock()
	defer s.floorMu.Unlock()
	s.mu.Lock()
	d, n := s.domains["*"], 0
	for d != nil {
		if rec, _ := d.find(floorClaimID(n)); rec == nil {
			break
		}
		n++
	}
	s.mu.Unlock()
	if n == 0 {
		return fmt.Errorf("%w: claim %q in domain %q", ErrNotFound, FloorClaimID, "*")
	}
	if err := s.RevokeClaim("*", floorClaimID(n-1), at); err != nil {
		return err
	}
	return s.File(by, Claim{
		ID:      floorClaimID(n),
		Kind:    KindPlatform,
		Scope:   "*",
		Subject: "*",
		MinTCB:  minTCB,
		Note:    fmt.Sprintf("minimum-TCB floor bumped to %#x", minTCB),
	})
}

// rotateAnchor closes the old anchor's window at `at` and opens the new
// anchor's window from `at`: both keys are live at exactly the rotation
// instant, the old one invalid strictly after. Claims issued by the old
// anchor stop evaluating once it leaves its window — rotating a
// compromised root implicitly revokes everything it signed.
func (s *Store) rotateAnchor(domainName, oldID, newID string, at sim.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.domains[domainName]
	if d == nil {
		return fmt.Errorf("%w: domain %q", ErrNotFound, domainName)
	}
	found := false
	for i := range d.anchors {
		if d.anchors[i].ID == oldID && (d.anchors[i].Until == 0 || d.anchors[i].Until > at) {
			d.anchors[i].Until = at
			found = true
		}
	}
	if !found {
		return fmt.Errorf("%w: anchor %q in domain %q", ErrNotFound, oldID, domainName)
	}
	d.anchors = append(d.anchors, anchorRec{ID: newID, From: at})
	s.version++
	return nil
}

// Version returns the monotonic mutation counter.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// CountKind counts the claims of a kind across every domain, and how many
// of those are revoked (at any instant).
func (s *Store) CountKind(kind Kind) (filed, revoked int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.domains {
		for _, rec := range d.claims {
			if rec.claim.Kind != kind {
				continue
			}
			filed++
			if rec.revoked {
				revoked++
			}
		}
	}
	return filed, revoked
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Domains:       len(s.domains),
		Signers:       len(s.signers),
		Version:       s.version,
		Evals:         s.stats.evals,
		Grants:        s.stats.grants,
		Denials:       s.stats.denials,
		DenialsByRule: s.stats.ledger.Counts(0),
	}
	for _, d := range s.domains {
		st.Claims += len(d.claims)
		for _, rec := range d.claims {
			if rec.revoked {
				st.Revoked++
			}
		}
	}
	for k, n := range st.DenialsByRule {
		if st.DenialsByReason == nil {
			st.DenialsByReason = make(map[string]int)
		}
		st.DenialsByReason[k[strings.IndexByte(k, '/')+1:]] += n
	}
	return st
}

// record books one evaluation outcome into stats. Called with s.mu held.
func (s *Store) record(den *Denial) {
	s.stats.evals++
	if den == nil {
		s.stats.grants++
		return
	}
	s.stats.denials++
	s.stats.ledger.Add(den)
}
