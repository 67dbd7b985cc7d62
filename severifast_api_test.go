package severifast

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/severifast/severifast/internal/kbs"
	"github.com/severifast/severifast/internal/verifier"
)

// TestErrorTaxonomy: every config-validation failure is classifiable with
// errors.Is against the exported sentinels.
func TestErrorTaxonomy(t *testing.T) {
	if _, err := Boot(Config{Scheme: "grub"}); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("bad scheme: %v, want ErrUnknownScheme", err)
	}
	if _, err := Boot(Config{Kernel: "gentoo"}); !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("bad kernel: %v, want ErrUnknownKernel", err)
	}
	if _, err := Boot(Config{Codec: "zstd"}); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("bad codec: %v, want ErrUnknownCodec", err)
	}
	if _, err := ExpectedLaunchDigest(Config{Codec: "xz"}); !errors.Is(err, ErrUnknownCodec) {
		t.Fatal("ExpectedLaunchDigest skipped codec validation")
	}
}

// TestClassifyInternalErrors feeds classifyErr genuine internal failure
// chains — the ones firecracker, fleet and the key broker wrap with %w —
// and checks the facade sentinel mapping.
func TestClassifyInternalErrors(t *testing.T) {
	// A real attestation denial from a guest owner: an unknown tenant.
	_, denial := NewGuestOwner(NewHost(), []byte("s")).broker.Challenge("mallory", 0)
	if denial == nil {
		t.Fatal("owner challenged an unknown tenant")
	}
	cases := []struct {
		name string
		err  error
		want error
	}{
		{"verifier mismatch", fmt.Errorf("firecracker: %w", fmt.Errorf("%w: kernel hash", verifier.ErrVerification)), ErrMeasurementMismatch},
		{"attest denial", fmt.Errorf("firecracker: attestation: %w", denial), ErrAttestationDenied},
		{"kbs denial", fmt.Errorf("fleet: %w", &kbs.Denial{Reason: kbs.ReasonReplay}), ErrAttestationDenied},
		{"kbs measurement", fmt.Errorf("fleet: %w", &kbs.Denial{Reason: kbs.ReasonMeasurement}), ErrMeasurementMismatch},
	}
	for _, tc := range cases {
		got := classifyErr(tc.err)
		if !errors.Is(got, tc.want) {
			t.Fatalf("%s: classifyErr(%v) = %v, does not match facade sentinel", tc.name, tc.err, got)
		}
		// The internal chain must survive for errors.Is against the
		// internal sentinel too.
		if !errors.Is(got, errors.Unwrap(tc.err)) && !errors.Is(got, tc.err) {
			t.Fatalf("%s: original chain lost", tc.name)
		}
	}
	if classifyErr(nil) != nil {
		t.Fatal("classifyErr(nil) != nil")
	}
	plain := errors.New("plumbing")
	if classifyErr(plain) != plain {
		t.Fatal("unclassifiable errors must pass through unchanged")
	}
}

// TestSequentialHostBootsOwnTheirEvents: boots run one after another on
// one host share a track, and each Result's Events and rendered timeline
// are its own boot's: the same six milestones at the same offsets, with
// no event of the boot before, whose last one falls on the next boot's
// start.
func TestSequentialHostBootsOwnTheirEvents(t *testing.T) {
	host := NewHost()
	var first []Event
	var render string
	for i := 0; i < 3; i++ {
		res, err := host.Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, render = res.Events(), res.RenderTimeline(80)
			if len(first) != 6 || first[len(first)-1].Name != "init exec" {
				t.Fatalf("first boot's events = %+v, want six ending at init exec", first)
			}
			continue
		}
		if got := res.Events(); !reflect.DeepEqual(got, first) {
			t.Fatalf("boot %d's events = %+v, want the first boot's %+v", i, got, first)
		}
		if got := res.RenderTimeline(80); got != render {
			t.Fatalf("boot %d's timeline:\n%s\nwant the first boot's:\n%s", i, got, render)
		}
	}
}

// TestResultSpans: a boot exposes its span tree and milestone events.
func TestResultSpans(t *testing.T) {
	res, err := Boot(Config{Kernel: KernelLupine, InitrdMiB: 2})
	if err != nil {
		t.Fatal(err)
	}
	spans := res.Spans()
	if len(spans) == 0 {
		t.Fatal("Spans() empty after a boot")
	}
	if spans[0].Name != "vm.boot" || spans[0].Depth != 0 || spans[0].Start != 0 {
		t.Fatalf("root span = %+v, want vm.boot at depth 0, start 0", spans[0])
	}
	if spans[0].Attrs["scheme"] != "severifast-bz" || spans[0].Attrs["vmm"] != "firecracker" {
		t.Fatalf("root attrs = %v, want scheme=severifast-bz vmm=firecracker", spans[0].Attrs)
	}
	if spans[0].Attrs["asid"] == "" {
		t.Fatalf("root attrs = %v, want an asid annotation", spans[0].Attrs)
	}
	byName := map[string]bool{}
	for _, s := range spans {
		if s.Duration < 0 || s.Start < 0 {
			t.Fatalf("span %s has negative time: %+v", s.Name, s)
		}
		if s.Name != "vm.boot" && s.Depth == 0 {
			t.Fatalf("span %s at depth 0 alongside the root", s.Name)
		}
		byName[s.Name] = true
	}
	for _, want := range []string{"vmm.stage", "bootstrap", "linux.boot"} {
		if !byName[want] {
			t.Fatalf("span %q missing; have %v", want, byName)
		}
	}
	events := res.Events()
	if len(events) == 0 {
		t.Fatal("Events() empty after a boot")
	}
	var sawEntry bool
	for _, e := range events {
		if e.Name == "kernel entry" {
			sawEntry = true
		}
	}
	if !sawEntry {
		t.Fatalf("no kernel-entry event; events = %v", events)
	}
	if got := res.RenderTimeline(100); got == "" || got == "(no timeline)\n" {
		t.Fatal("RenderTimeline empty for a booted result")
	}
}

// TestHostTelemetryExports: the host's exporters produce valid output and
// same-seed hosts produce byte-identical bytes.
func TestHostTelemetryExports(t *testing.T) {
	var traces [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		h := NewHostSeed(5)
		if _, err := h.Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if err := h.Telemetry().WriteChromeTrace(&traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatal("same-seed hosts exported different traces")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traces[0].Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var prom, sum bytes.Buffer
	h := NewHostSeed(5)
	if _, err := h.Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := h.Telemetry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := h.Telemetry().WriteJSONSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(sum.Bytes()) {
		t.Fatal("JSON summary invalid")
	}
}

// TestWarmBootSpans: warm restores carry a span tree too, annotated as
// warm-restore.
func TestWarmBootSpans(t *testing.T) {
	host := NewHost()
	cold, err := host.Boot(Config{Kernel: KernelLupine, InitrdMiB: 2, AllowKeySharing: true})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := host.Snapshot(cold)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := host.WarmBoot(snap)
	if err != nil {
		t.Fatal(err)
	}
	spans := warm.Spans()
	if len(spans) == 0 {
		t.Fatal("warm boot has no spans")
	}
	if spans[0].Attrs["scheme"] != "warm-restore" {
		t.Fatalf("warm root attrs = %v, want scheme=warm-restore", spans[0].Attrs)
	}
	var restored bool
	for _, s := range spans {
		if s.Name == "snapshot.restore" {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("no snapshot.restore span; spans = %+v", spans)
	}
}
