package policy

import (
	"reflect"
	"sync"
	"testing"
)

// runEvaluations drives an identical evaluation sequence — grants and
// denials across two tenants, a revocation mid-sequence — against a
// fresh store, and returns its Stats.
func runEvaluations(t *testing.T) Stats {
	t.Helper()
	p := newPKI(t)
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
	return p.store.Stats()
}

// TestPolicyTelemetryDeterminism pins the store's evaluation and
// per-rule denial counters and requires them identical across two
// identical runs.
func TestPolicyTelemetryDeterminism(t *testing.T) {
	s1, s2 := runEvaluations(t), runEvaluations(t)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("Stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if s1.Evals != 7 || s1.Grants != 3 || s1.Denials != 4 {
		t.Errorf("evals/grants/denials = %d/%d/%d, want 7/3/4", s1.Evals, s1.Grants, s1.Denials)
	}
	want := map[string]int{"platform/tcb-below-floor": 3, "measurement/claim-expired": 1}
	if !reflect.DeepEqual(s1.DenialsByRule, want) {
		t.Errorf("DenialsByRule = %v, want %v", s1.DenialsByRule, want)
	}
}

// TestStoreEvaluateRace exercises concurrent evaluation, mutation, and
// claim filing under -race: the store and its signers are shared between
// engine processes and cache-publish callbacks in fleet runs.
func TestStoreEvaluateRace(t *testing.T) {
	p := newPKI(t)
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
