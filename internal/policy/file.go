package policy

// Policy files: the JSON surface cmd/sevf-policy lints and evaluates. A
// file declares signers (by derivation seed — the simulator has no real
// keys to import), trust domains with their anchors, claims (signed at
// load time), canned evidence packages, and policy mutations pinned to
// virtual instants. Everything the loader produces is deterministic
// except signature bytes, which never reach any output.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/severifast/severifast/internal/sim"
)

// File is one parsed policy file.
type File struct {
	Signers   []FileSigner   `json:"signers"`
	Domains   []FileDomain   `json:"domains"`
	Claims    []FileClaim    `json:"claims"`
	Evidence  []FileEvidence `json:"evidence,omitempty"`
	Mutations []FileMutation `json:"mutations,omitempty"`
}

// FileSigner derives a named P-384 signer from a seed.
type FileSigner struct {
	ID   string `json:"id"`
	Seed int64  `json:"seed"`
}

// FileDomain declares a trust domain and its anchor signers.
type FileDomain struct {
	Name    string   `json:"name"`
	Anchors []string `json:"anchors"`
}

// FileClaim is one claim before signing. MinTCB uses the dotted
// "bootloader.tee.snp.microcode" form; instants are virtual milliseconds.
type FileClaim struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Scope       string `json:"scope"`
	Subject     string `json:"subject"`
	MinTCB      string `json:"min_tcb,omitempty"`
	NotBeforeMS int64  `json:"not_before_ms,omitempty"`
	NotAfterMS  int64  `json:"not_after_ms,omitempty"`
	Note        string `json:"note,omitempty"`
	Issuer      string `json:"issuer"`
}

// FileEvidence is one canned evidence package to evaluate.
type FileEvidence struct {
	Name        string `json:"name"`
	Tenant      string `json:"tenant"`
	Chip        string `json:"chip,omitempty"`
	TCB         string `json:"tcb,omitempty"`
	Measurement string `json:"measurement,omitempty"` // hex, empty = not asserted
	NowMS       int64  `json:"now_ms"`
}

// FileMutation is one policy mutation applied at a virtual instant
// before every evidence package whose now has reached it.
type FileMutation struct {
	AtMS   int64  `json:"at_ms"`
	Op     string `json:"op"` // "revoke-claim", "revoke-kind", "rotate-anchor"
	Domain string `json:"domain"`
	Claim  string `json:"claim,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Old    string `json:"old,omitempty"`
	New    string `json:"new,omitempty"`
}

// LoadFile reads and parses a policy file.
func LoadFile(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("policy file %s: %w", path, err)
	}
	return &f, nil
}

// knownKinds for linting.
var knownKinds = map[string]bool{
	string(KindMeasurement): true,
	string(KindPlatform):    true,
	string(KindDelegation):  true,
	string(KindRevocation):  true,
}

var knownMutationOps = map[string]bool{"revoke-claim": true, "revoke-kind": true, "rotate-anchor": true}

// Lint checks a policy file for the mistakes a store would accept
// silently or reject late: unknown issuers and kinds, duplicate IDs,
// inverted validity windows, issuers with no possible authority path,
// malformed measurement subjects, and mutations naming missing claims or
// undeclared domains.
// It returns one finding per problem, deterministically ordered.
func (f *File) Lint() []string {
	var out []string
	signers := make(map[string]bool)
	for i, s := range f.Signers {
		if s.ID == "" {
			out = append(out, fmt.Sprintf("signers[%d]: empty id", i))
			continue
		}
		if signers[s.ID] {
			out = append(out, fmt.Sprintf("signers[%d]: duplicate id %q", i, s.ID))
		}
		signers[s.ID] = true
	}
	anchored := make(map[string]bool) // signer anchored in any domain
	domains := make(map[string]bool)
	for i, d := range f.Domains {
		if d.Name == "" {
			out = append(out, fmt.Sprintf("domains[%d]: empty name", i))
		}
		if domains[d.Name] {
			out = append(out, fmt.Sprintf("domains[%d]: duplicate domain %q", i, d.Name))
		}
		domains[d.Name] = true
		for _, a := range d.Anchors {
			if !signers[a] {
				out = append(out, fmt.Sprintf("domains[%d] (%s): anchor %q is not a declared signer", i, d.Name, a))
			}
			anchored[a] = true
		}
	}
	// A signer is reachable if anchored somewhere or delegated to by a
	// delegation claim (time windows ignored at lint level).
	reachable := make(map[string]bool, len(anchored))
	for a := range anchored {
		reachable[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, c := range f.Claims {
			if c.Kind == string(KindDelegation) && reachable[c.Issuer] && !reachable[c.Subject] {
				reachable[c.Subject] = true
				changed = true
			}
		}
	}
	ids := make(map[string]bool)
	for i, c := range f.Claims {
		where := fmt.Sprintf("claims[%d] (%s)", i, c.ID)
		if c.ID == "" {
			out = append(out, fmt.Sprintf("claims[%d]: empty id", i))
		}
		key := domainNameFor(Claim{Scope: c.Scope}) + "/" + c.ID
		if ids[key] {
			out = append(out, where+": duplicate claim id in its domain")
		}
		ids[key] = true
		if !knownKinds[c.Kind] {
			out = append(out, fmt.Sprintf("%s: unknown kind %q", where, c.Kind))
		}
		if !signers[c.Issuer] {
			out = append(out, fmt.Sprintf("%s: issuer %q is not a declared signer", where, c.Issuer))
		} else if !reachable[c.Issuer] {
			out = append(out, fmt.Sprintf("%s: issuer %q has no anchor or delegation path", where, c.Issuer))
		}
		if c.NotAfterMS != 0 && c.NotAfterMS < c.NotBeforeMS {
			out = append(out, fmt.Sprintf("%s: not_after_ms %d precedes not_before_ms %d", where, c.NotAfterMS, c.NotBeforeMS))
		}
		if c.Kind == string(KindMeasurement) && c.Subject != "*" {
			if _, err := hex.DecodeString(c.Subject); err != nil || len(c.Subject)%2 != 0 {
				out = append(out, fmt.Sprintf("%s: measurement subject is not hex", where))
			}
		}
		if c.MinTCB != "" {
			if _, err := parseDottedTCB(c.MinTCB); err != nil {
				out = append(out, fmt.Sprintf("%s: min_tcb: %v", where, err))
			}
		}
	}
	for i, m := range f.Mutations {
		where := fmt.Sprintf("mutations[%d]", i)
		if !knownMutationOps[m.Op] {
			out = append(out, fmt.Sprintf("%s: unknown op %q", where, m.Op))
			continue
		}
		if m.Op == "revoke-claim" && !ids[m.Domain+"/"+m.Claim] {
			out = append(out, fmt.Sprintf("%s: revoke-claim names missing claim %s/%s", where, m.Domain, m.Claim))
		}
		if m.Op == "revoke-kind" && !domains[m.Domain] {
			out = append(out, fmt.Sprintf("%s: revoke-kind names undeclared domain %q", where, m.Domain))
		}
		if m.Op == "rotate-anchor" && (m.Old == "" || m.New == "") {
			out = append(out, fmt.Sprintf("%s: rotate-anchor needs old and new", where))
		}
	}
	return out
}

// BuildStore derives the signers, creates the domains, signs every claim
// with its issuer's derived key, and files them. Claims whose issuer is
// undeclared are injected unsigned — the engine will refuse them with
// the precise reason, which is more useful to a policy author than a
// load failure.
func (f *File) BuildStore() (*Store, error) {
	s := NewStore()
	signers := make(map[string]*Signer, len(f.Signers))
	for _, fs := range f.Signers {
		sg := NewSigner(fs.ID, fs.Seed)
		if err := s.AddSigner(sg); err != nil {
			return nil, err
		}
		signers[fs.ID] = sg
	}
	for _, d := range f.Domains {
		s.EnsureDomain(d.Name, d.Anchors...)
	}
	for _, fc := range f.Claims {
		c := Claim{
			ID:        fc.ID,
			Kind:      Kind(fc.Kind),
			Scope:     fc.Scope,
			Subject:   fc.Subject,
			NotBefore: msToTime(fc.NotBeforeMS),
			NotAfter:  msToTime(fc.NotAfterMS),
			Note:      fc.Note,
			Issuer:    fc.Issuer,
		}
		if fc.MinTCB != "" {
			tcb, err := parseDottedTCB(fc.MinTCB)
			if err != nil {
				return nil, fmt.Errorf("claim %q: min_tcb: %w", fc.ID, err)
			}
			c.MinTCB = tcb
		}
		sg := signers[fc.Issuer]
		if sg == nil {
			if err := s.Inject(c); err != nil {
				return nil, err
			}
			continue
		}
		if err := s.File(sg, c); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Apply performs the mutation against the store.
func (m *FileMutation) Apply(s *Store) error {
	at := msToTime(m.AtMS)
	switch m.Op {
	case "revoke-claim":
		return s.RevokeClaim(m.Domain, m.Claim, at)
	case "revoke-kind":
		return s.RevokeKind(m.Domain, Kind(m.Kind), at)
	case "rotate-anchor":
		return s.RotateAnchor(m.Domain, m.Old, m.New, at)
	}
	return fmt.Errorf("policy: unknown mutation op %q", m.Op)
}

// Package builds the Evidence an entry asserts.
func (e *FileEvidence) Package() (Evidence, error) {
	ev := Evidence{Tenant: e.Tenant, ChipID: e.Chip, HasPlatform: e.Chip != ""}
	if e.TCB != "" {
		tcb, err := parseDottedTCB(e.TCB)
		if err != nil {
			return ev, fmt.Errorf("evidence %q: tcb: %w", e.Name, err)
		}
		ev.TCB = tcb
	}
	if e.Measurement != "" {
		m, err := hex.DecodeString(e.Measurement)
		if err != nil {
			return ev, fmt.Errorf("evidence %q: measurement: %w", e.Name, err)
		}
		ev.Measurement = m
	}
	return ev, nil
}

func msToTime(ms int64) sim.Time {
	return sim.Time(time.Duration(ms) * time.Millisecond)
}

// parseDottedTCB parses "bootloader.tee.snp.microcode" into the encoded
// layout shared with kbs.TCB (this package cannot import kbs — kbs
// imports it).
func parseDottedTCB(s string) (uint64, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("want 4 dotted components, got %q", s)
	}
	var vals [4]uint8
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("component %d of %q: %w", i, s, err)
		}
		vals[i] = uint8(v)
	}
	return uint64(vals[0])<<56 | uint64(vals[1])<<48 | uint64(vals[2])<<8 | uint64(vals[3]), nil
}
