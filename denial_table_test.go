package severifast

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/severifast/severifast/internal/attest"
	"github.com/severifast/severifast/internal/cluster"
	"github.com/severifast/severifast/internal/costmodel"
	"github.com/severifast/severifast/internal/firecracker"
	"github.com/severifast/severifast/internal/fleet"
	"github.com/severifast/severifast/internal/guestmem"
	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/kernelgen"
	"github.com/severifast/severifast/internal/kvm"
	"github.com/severifast/severifast/internal/policy"
	"github.com/severifast/severifast/internal/psp"
	"github.com/severifast/severifast/internal/sev"
	"github.com/severifast/severifast/internal/sim"
)

// denialSentinels are the table's errors.Is columns, in order: the
// broker's, the engine's, then the facade's.
var denialSentinels = []struct {
	name string
	err  error
}{
	{"kbs.ErrDenied", kbs.ErrDenied},
	{"kbs.ErrReplay", kbs.ErrReplay},
	{"kbs.ErrExpired", kbs.ErrExpired},
	{"kbs.ErrMeasurement", kbs.ErrMeasurement},
	{"kbs.ErrUnavailable", kbs.ErrUnavailable},
	{"policy.ErrDenied", policy.ErrDenied},
	{"ErrMeasurementMismatch", ErrMeasurementMismatch},
	{"ErrAttestationDenied", ErrAttestationDenied},
	{"ErrPolicyDenied", ErrPolicyDenied},
	{"ErrUnknownKernel", ErrUnknownKernel},
}

// denialRow is one line of the table: the row's name, an x or a dot per
// sentinel the error matches (the facade's four after classifyErr), the
// key the refusing gate counted it under ("-" where no gate counts, "?"
// where the error never leaves the gate), and the error's text.
func denialRow(name string, err error, key string) string {
	var marks strings.Builder
	for i, s := range denialSentinels {
		if i == 6 {
			marks.WriteByte(' ')
		}
		e := err
		if i >= 6 {
			e = classifyErr(err)
		}
		switch {
		case err == nil:
			marks.WriteByte('?')
		case errors.Is(e, s.err):
			marks.WriteByte('x')
		default:
			marks.WriteByte('.')
		}
	}
	text := "?"
	if err != nil {
		text = err.Error()
	}
	return fmt.Sprintf("%-40s %s  %-28s %s", name, marks.String(), key, text)
}

// countDelta returns the one key whose count rose by one from before to
// after, "-" if none moved, or a description of what moved instead.
func countDelta(before, after map[string]int) string {
	var moved []string
	for k, v := range after {
		if v != before[k] {
			moved = append(moved, fmt.Sprintf("%s+%d", k, v-before[k]))
		}
	}
	sort.Strings(moved)
	if len(moved) == 0 {
		return "-"
	}
	if len(moved) == 1 && strings.HasSuffix(moved[0], "+1") {
		return strings.TrimSuffix(moved[0], "+1")
	}
	return "moved:" + strings.Join(moved, ",")
}

var denialTCB = kbs.TCB{BootLoader: 2, TEE: 1, SNP: 8, Microcode: 115}

// TestDenialTable pins every kind of refusal the trust path issues:
// each broker reason, in process and over HTTP against Handler; each
// engine verdict at the broker, fleet and dispatch gates; a breaker
// fast-fail; and the one-shot owner's refusals a booted guest can
// reach. For each it records which sentinels match, the key the gate
// counted it under, and the error text, against testdata/denials.golden
// (-update-golden rewrites it).
func TestDenialTable(t *testing.T) {
	var rows []string
	rows = append(rows, brokerDenialRows(t)...)
	rows = append(rows, gateDenialRows(t)...)
	rows = append(rows, breakerDenialRow(t))
	rows = append(rows, oneShotDenialRows(t)...)

	var hdr strings.Builder
	for i, s := range denialSentinels {
		fmt.Fprintf(&hdr, "# col %d: %s\n", i+1, s.name)
	}
	got := hdr.String() + strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", "denials.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}

// denialGuest is one enrolled PSP with a finished guest on it.
type denialGuest struct {
	ctx    *psp.GuestContext
	digest [32]byte
	enr    *kbs.Enrollment
}

func launchDenialGuest(t *testing.T, auth *kbs.Authority, chip string, tcb kbs.TCB, level sev.Level, pol sev.Policy) *denialGuest {
	t.Helper()
	p := psp.New(costmodel.Unit(), 1)
	enr := auth.Enroll(p, chip, tcb)
	mem := guestmem.New(1 << 20)
	ctx, err := p.LaunchStart(nil, mem, level, pol)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.HostWrite(0x1000, []byte("denial table guest")); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchUpdateData(nil, 0x1000, 18, sev.PageNormal); err != nil {
		t.Fatal(err)
	}
	digest, err := ctx.LaunchFinish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &denialGuest{ctx: ctx, digest: digest, enr: enr}
}

// redeem runs one challenge and redemption of g's evidence for tenant
// acme against svc at now, with tamper applied to the request.
func (g *denialGuest) redeem(t *testing.T, svc kbs.Service, now sim.Time, tamper func(*kbs.RedeemRequest)) error {
	t.Helper()
	ch, err := svc.Challenge("acme", now)
	if err != nil {
		return err
	}
	pub := attest.NewAgentSeeded(99).PublicKey()
	report, err := g.ctx.BuildReport(nil, kbs.BindReportData(ch.Nonce, pub))
	if err != nil {
		t.Fatal(err)
	}
	req := kbs.RedeemRequest{Tenant: "acme", Nonce: ch.Nonce, Report: report.Marshal(),
		Chain: g.enr.Chain.Marshal(), GuestPub: pub}
	if tamper != nil {
		tamper(&req)
	}
	_, err = svc.Redeem(req, now)
	return err
}

// brokerDenialRows refuses an exchange for every broker reason and every
// engine verdict a broker's store can reach, once in process and once
// through kbs.Client against Handler, keyed by the broker's Stats.
func brokerDenialRows(t *testing.T) []string {
	auth := kbs.NewAuthority(7)
	good := launchDenialGuest(t, auth, "chip-0", denialTCB, sev.SNP, sev.DefaultPolicy())
	older, _ := denialTCB.Predecessor()
	stale := launchDenialGuest(t, auth, "chip-old", older, sev.SNP, sev.DefaultPolicy())
	weak := launchDenialGuest(t, auth, "chip-weak", denialTCB, sev.SNP, sev.Policy{ESRequired: true})
	fileRef := func(t *testing.T, b *kbs.Broker, g *denialGuest) {
		if err := b.File(kbs.RefClaim(g.digest, "img")); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// prep readies the broker's store; nil files good's reference value.
		prep func(t *testing.T, b *kbs.Broker)
		run  func(t *testing.T, svc kbs.Service, b *kbs.Broker) error
	}{
		{"tenant/challenge", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			_, err := svc.Challenge("nobody", 0)
			return err
		}},
		{"tenant/redeem", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			b.AddTenant("mallory", []byte("m"))
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.Tenant = "mallory" })
		}},
		{"replay", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			var again kbs.RedeemRequest
			if err := good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { again = *r }); err != nil {
				t.Fatal(err)
			}
			_, err := svc.Redeem(again, 0)
			return err
		}},
		{"expired", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			ch, err := svc.Challenge("acme", 0)
			if err != nil {
				t.Fatal(err)
			}
			pub := attest.NewAgentSeeded(99).PublicKey()
			report, err := good.ctx.BuildReport(nil, kbs.BindReportData(ch.Nonce, pub))
			if err != nil {
				t.Fatal(err)
			}
			_, err = svc.Redeem(kbs.RedeemRequest{Tenant: "acme", Nonce: ch.Nonce, Report: report.Marshal(),
				Chain: good.enr.Chain.Marshal(), GuestPub: pub}, ch.Expires+1)
			return err
		}},
		{"malformed/guest-key", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.GuestPub = r.GuestPub[:31] })
		}},
		{"malformed/chain", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.Chain = []byte("junk") })
		}},
		{"malformed/report", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.Report = r.Report[:10] })
		}},
		{"forged/chain", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			rogue := kbs.NewAuthority(666).ChainFor("chip-0", denialTCB).Marshal()
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.Chain = rogue })
		}},
		{"forged/report", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.Report[len(r.Report)-1] ^= 0xFF })
		}},
		{"binding", nil, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error {
			mitm := attest.NewAgentSeeded(666).PublicKey()
			return good.redeem(t, svc, 0, func(r *kbs.RedeemRequest) { r.GuestPub = mitm })
		}},
		{"policy-floor", func(t *testing.T, b *kbs.Broker) { fileRef(t, b, weak) },
			func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return weak.redeem(t, svc, 0, nil) }},
		{"engine/tcb-below-floor", func(t *testing.T, b *kbs.Broker) {
			fileRef(t, b, stale)
			if err := b.Policy().BumpFloor(b.Signer(), denialTCB.Encode(), 0); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return stale.redeem(t, svc, 1, nil) }},
		{"engine/platform-revoked", func(t *testing.T, b *kbs.Broker) {
			fileRef(t, b, good)
			if err := b.File(kbs.RevocationClaim("chip-0", 0)); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 0, nil) }},
		{"engine/measurement-untrusted", func(t *testing.T, b *kbs.Broker) {},
			func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 0, nil) }},
		{"engine/measurement/claim-expired", func(t *testing.T, b *kbs.Broker) {
			fileRef(t, b, good)
			if err := b.Policy().RevokeKind("*", policy.KindMeasurement, 0); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 1, nil) }},
		{"engine/platform/claim-expired", func(t *testing.T, b *kbs.Broker) {
			fileRef(t, b, good)
			if err := b.Policy().RevokeClaim("*", policy.FloorClaimID, 0); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 1, nil) }},
		{"engine/claim-forged", func(t *testing.T, b *kbs.Broker) {
			c := kbs.RefClaim(good.digest, "img")
			c.Issuer = kbs.PolicyAnchorID
			if err := b.Policy().Inject(c); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 0, nil) }},
		{"engine/out-of-scope", func(t *testing.T, b *kbs.Broker) {
			b.Policy().Intercept(func(c policy.Claim) policy.Claim { c.Scope = "other"; return c })
			c := kbs.RefClaim(good.digest, "img")
			c.Scope = "acme"
			if err := b.Policy().File(b.Signer(), c); err != nil {
				t.Fatal(err)
			}
			b.Policy().Intercept(nil)
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 0, nil) }},
		{"engine/issuer-unauthorized", func(t *testing.T, b *kbs.Broker) {
			rogue := policy.NewSigner("rogue", 1)
			if err := b.Policy().AddSigner(rogue); err != nil {
				t.Fatal(err)
			}
			if err := b.Policy().File(rogue, kbs.RefClaim(good.digest, "img")); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, svc kbs.Service, b *kbs.Broker) error { return good.redeem(t, svc, 0, nil) }},
	}
	var rows []string
	for _, wire := range []bool{false, true} {
		for _, tc := range cases {
			b := kbs.NewBroker(auth.Root(), kbs.Config{MinLevel: sev.SNP, MinPolicy: sev.DefaultPolicy(), Seed: 3})
			b.AddTenant("acme", []byte("acme disk key"))
			if tc.prep == nil {
				fileRef(t, b, good)
			} else {
				tc.prep(t, b)
			}
			var svc kbs.Service = b
			name := "broker/" + tc.name
			if wire {
				srv := httptest.NewServer(b.Handler())
				defer srv.Close()
				svc, name = &kbs.Client{Base: srv.URL}, "http/"+tc.name
			}
			before, _ := b.Stats()
			err := tc.run(t, svc, b)
			after, _ := b.Stats()
			rows = append(rows, denialRow(name, err, countDelta(before.Denials, after.Denials)))
		}
	}
	return rows
}

// gateStores builds, for each engine verdict a pre-boot gate can reach
// (tenant and platform asserted, no measurement), a store whose engine
// refuses chip-h0 at denialTCB for tenant t0 with it.
func gateStores(t *testing.T) []struct {
	name  string
	store *policy.Store
} {
	type row = struct {
		name  string
		store *policy.Store
	}
	build := func(anchor bool, claims ...policy.Claim) (*policy.Store, *policy.Signer) {
		s := policy.NewStore()
		sg := policy.NewSigner("gate-root", 11)
		if err := s.AddSigner(sg); err != nil {
			t.Fatal(err)
		}
		if anchor {
			s.EnsureDomain("*", sg.ID)
		}
		for _, c := range claims {
			if err := s.File(sg, c); err != nil {
				t.Fatal(err)
			}
		}
		return s, sg
	}
	platform := func(min kbs.TCB) policy.Claim {
		return policy.Claim{ID: "platform-any", Kind: policy.KindPlatform, Scope: "*", Subject: "*", MinTCB: min.Encode()}
	}
	var rows []row
	s, _ := build(false)
	rows = append(rows, row{"unknown-domain", s})
	s, _ = build(true)
	rows = append(rows, row{"platform-untrusted", s})
	newer := denialTCB
	newer.SNP++
	s, _ = build(true, platform(newer))
	rows = append(rows, row{"tcb-below-floor", s})
	s, _ = build(true, platform(kbs.TCB{}), kbs.RevocationClaim("chip-h0", 0))
	rows = append(rows, row{"platform-revoked", s})
	later := platform(kbs.TCB{})
	later.NotBefore = sim.Time(time.Hour)
	s, _ = build(true, later)
	rows = append(rows, row{"claim-expired", s})
	s, _ = build(true)
	forged := platform(kbs.TCB{})
	forged.Issuer = "gate-root"
	if err := s.Inject(forged); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{"claim-forged", s})
	s, sg := build(true)
	s.EnsureDomain("t0")
	s.Intercept(func(c policy.Claim) policy.Claim { c.Scope = "other"; return c })
	scoped := platform(kbs.TCB{})
	scoped.Scope = "t0"
	if err := s.File(sg, scoped); err != nil {
		t.Fatal(err)
	}
	s.Intercept(nil)
	rows = append(rows, row{"out-of-scope", s})
	s, _ = build(true)
	rogue := policy.NewSigner("rogue", 12)
	if err := s.AddSigner(rogue); err != nil {
		t.Fatal(err)
	}
	if err := s.File(rogue, platform(kbs.TCB{})); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{"issuer-unauthorized", s})
	return rows
}

// gateDenialRows refuses one boot at the fleet's admission gate and one
// placement at the cluster's dispatch gate for each gate verdict. The
// dispatch gate's refusal never leaves the cluster, so its row has only
// the key.
func gateDenialRows(t *testing.T) []string {
	var rows []string
	for _, g := range gateStores(t) {
		eng := sim.NewEngine()
		host := kvm.NewHost(eng, costmodel.Default(), 1)
		auth := kbs.NewAuthority(5)
		o := fleet.New(eng, host, fleet.Config{
			Standalone: true,
			Admission:  g.store.Engine(),
			Enrollment: auth.Enroll(host.PSP, "chip-h0", denialTCB),
		})
		img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		var got error
		eng.Go("gate", func(p *sim.Proc) {
			o.Serve(p, fleet.Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, _ fleet.Tier, err error) { got = err }})
		})
		eng.Run()
		rows = append(rows, denialRow("fleet/"+g.name, got, countDelta(nil, o.Metrics().PolicyDenials)))
	}
	for _, g := range gateStores(t) {
		eng := sim.NewEngine()
		auth := kbs.NewAuthority(5)
		b := kbs.NewBroker(auth.Root(), kbs.Config{Seed: 5})
		b.AddTenant("t0", []byte("key"))
		c, err := cluster.New(eng, cluster.Config{
			Hosts: 1, ASIDsPerHost: 1, WorkersPerHost: 1, Seed: 1,
			KBS: b, Authority: auth, TCB: denialTCB, AgentSeed: 1,
			Admission: g.store.Engine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		img, err := c.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Play([]cluster.Arrival{{}}, []*cluster.Image{img}, 0); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		rows = append(rows, denialRow("dispatch/"+g.name, nil, countDelta(nil, c.Summarize().DispatchDenials)))
	}
	return rows
}

// deadBroker files claims but answers no exchange: every challenge is a
// transport failure.
type deadBroker struct{ kbs.Service }

func (deadBroker) File(policy.Claim) error { return nil }

func (deadBroker) Challenge(string, sim.Time) (kbs.Challenge, error) {
	return kbs.Challenge{}, errors.New("connection refused")
}

// breakerDenialRow fails one exchange on a dead broker, which opens a
// one-failure breaker, so the retry fails fast on it.
func breakerDenialRow(t *testing.T) string {
	eng := sim.NewEngine()
	host := kvm.NewHost(eng, costmodel.Default(), 1)
	auth := kbs.NewAuthority(5)
	o := fleet.New(eng, host, fleet.Config{
		Standalone: true,
		KBS:        deadBroker{},
		Enrollment: auth.Enroll(host.PSP, "chip-h0", denialTCB),
		Breaker:    fleet.BreakerPolicy{Threshold: 1, Cooldown: time.Hour},
		Retry:      fleet.RetryPolicy{Max: 1, Backoff: time.Millisecond},
	})
	img, err := o.RegisterImage("fn", kernelgen.Lupine(), kernelgen.BuildInitrd(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var got error
	eng.Go("breaker", func(p *sim.Proc) {
		o.Serve(p, fleet.Request{Tenant: "t0", Image: img, Done: func(_ *sim.Proc, _ fleet.Tier, err error) { got = err }})
	})
	eng.Run()
	return denialRow("fleet/breaker-open", got, countDelta(nil, o.Metrics().Denials))
}

// oneShotDenialRows boots a networked SNP guest whose in-process owner
// refuses it: a foreign platform key (forged), a launch it does not
// expect (measurement), and a level below SNP (the policy floor). The
// owner's malformed and binding refusals need evidence a booted agent
// never sends; internal/attest holds them to the broker's.
func oneShotDenialRows(t *testing.T) []string {
	boot := func(name string, cfg Config, owner func(h *Host, l firecracker.Config) firecracker.Config) string {
		h := NewHostSeed(1)
		l, err := cfg.resolve()
		if err != nil {
			t.Fatal(err)
		}
		want := owner(h, *l)
		a, err := attest.ForLaunch(h.PlatformKey(), want, 1)
		if err != nil || a == nil {
			t.Fatalf("%s: no owner (%v)", name, err)
		}
		if name == "oneshot/forged" {
			a, _ = attest.ForLaunch(NewHostSeed(2).PlatformKey(), want, 1)
		}
		l.Attestor = a
		var got error
		h.eng.Go("oneshot", func(p *sim.Proc) { _, got = firecracker.Boot(p, h.inner, *l) })
		h.run()
		key := "-"
		if d := policy.DenialOf(got); d != nil {
			key = "reason:" + d.Key()
		}
		return denialRow(name, got, key)
	}
	same := func(_ *Host, l firecracker.Config) firecracker.Config { return l }
	base := Config{Kernel: KernelAWS}
	other := base
	other.InitrdMiB = 2
	return []string{
		boot("oneshot/forged", base, same),
		boot("oneshot/measurement", base, func(_ *Host, l firecracker.Config) firecracker.Config {
			o, err := other.resolve()
			if err != nil {
				t.Fatal(err)
			}
			return *o
		}),
		boot("oneshot/policy-floor", Config{Kernel: KernelAWS, Level: LevelES}, same),
	}
}
