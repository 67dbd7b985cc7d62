package policy

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/severifast/severifast/internal/telemetry"
)

// runInstrumented drives an identical evaluation sequence — grants and
// denials across two tenants, a revocation mid-sequence — against a
// fresh instrumented store, and returns both exporter outputs.
func runInstrumented(t *testing.T) (prom, sum []byte) {
	t.Helper()
	p := newPKI(t)
	reg := telemetry.NewRegistry()
	p.store.Instrument(reg)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", MinTCB: testTCB, Issuer: "root"})
	p.add(Claim{ID: "meas", Kind: KindMeasurement, Scope: "*", Subject: "00ff", Issuer: "root"})
	eng := p.store.Engine()
	good := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB, HasPlatform: true, Measurement: []byte{0x00, 0xff}}
	stale := good
	stale.TCB = 0
	stale.Tenant = "t1"
	for i := 0; i < 3; i++ {
		eng.Evaluate(good, ms(int64(i)))
		eng.Evaluate(stale, ms(int64(i)))
	}
	if err := p.store.RevokeClaim("*", "meas", ms(10)); err != nil {
		t.Fatal(err)
	}
	eng.Evaluate(good, ms(11))

	var pb, sb bytes.Buffer
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONSummary(&sb); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), sb.Bytes()
}

// TestPolicyTelemetryDeterminism pins the per-reason denial counters
// into both exporters and requires byte-identical output across two
// identical runs.
func TestPolicyTelemetryDeterminism(t *testing.T) {
	prom1, sum1 := runInstrumented(t)
	prom2, sum2 := runInstrumented(t)
	if !bytes.Equal(prom1, prom2) {
		t.Fatal("Prometheus export differs across identical runs")
	}
	if !bytes.Equal(sum1, sum2) {
		t.Fatal("JSON summary differs across identical runs")
	}
	for _, want := range []string{
		`severifast_policy_evals_total{decision="allow",tenant="t0"} 3`,
		`severifast_policy_evals_total{decision="deny",tenant="t1"} 3`,
		`severifast_policy_evals_total{decision="deny",tenant="t0"} 1`,
		`severifast_policy_denials_total{reason="tcb-below-floor",rule="platform",tenant="t1"} 3`,
		`severifast_policy_denials_total{reason="claim-expired",rule="measurement",tenant="t0"} 1`,
	} {
		if !strings.Contains(string(prom1), want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, prom1)
		}
	}
	for _, want := range []string{
		"severifast_policy_denials_total",
		"tcb-below-floor",
		"claim-expired",
	} {
		if !strings.Contains(string(sum1), want) {
			t.Errorf("JSON summary missing %q", want)
		}
	}
}

// TestStoreEvaluateRace exercises concurrent evaluation, mutation, and
// claim filing under -race: the store and its signers are shared between
// engine processes and cache-publish callbacks in fleet runs.
func TestStoreEvaluateRace(t *testing.T) {
	p := newPKI(t)
	reg := telemetry.NewRegistry()
	p.store.Instrument(reg)
	p.add(Claim{ID: "plat", Kind: KindPlatform, Scope: "*", Subject: "*", Issuer: "root"})
	eng := p.store.Engine()
	ev := Evidence{Tenant: "t0", ChipID: "chip-0", TCB: testTCB, HasPlatform: true}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cert, err := eng.Evaluate(ev, ms(int64(i)))
				if err == nil {
					eng.Valid(cert, ms(int64(i)))
				}
				p.store.Version()
				if i%10 == 0 {
					p.store.Stats()
				}
			}
		}(g)
	}
	// Two writers share one signer, as fleet shards share their broker's.
	root := p.signers["root"]
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := p.store.File(root, Claim{ID: "m-" + string(rune('a'+10*w+i)), Kind: KindMeasurement, Scope: "*", Subject: "00"}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.store.RevokeKind("*", KindMeasurement, ms(1000)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}
