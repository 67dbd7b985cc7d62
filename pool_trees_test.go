package severifast

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

const poolTreesGolden = "testdata/pool_trees.golden"

// TestPoolTreesArePinned: the span trees and events of a Pool's cold,
// prewarmed and forked Results equal testdata/pool_trees.golden, span by
// span: name, parent, offset, duration and attributes. A Pool's engine
// has no scheduler tracer and its fleet mirrors nothing into the
// registry, so a boot span that comes to need either shows here as a
// missing line. Each Result is read again after three more boots and
// must not have changed. -update-golden rewrites the file.
func TestPoolTreesArePinned(t *testing.T) {
	var got strings.Builder
	for _, kernel := range []Kernel{KernelLupine, KernelAWS} {
		pool, err := NewPool(Config{Kernel: kernel, Attest: true, Seed: 42, InitrdMiB: 2}, PoolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cold := bootOrFatal(t, pool)
		if _, err := pool.Prewarm(1); err != nil {
			t.Fatal(err)
		}
		prewarmed := bootOrFatal(t, pool)
		forked := bootOrFatal(t, pool)
		results := []*Result{cold, prewarmed, forked}
		trees := make([]string, len(results))
		for i, name := range []string{"cold", "prewarmed", "forked"} {
			trees[i] = describeTree(results[i])
			fmt.Fprintf(&got, "== %s %s\n%s", kernel, name, trees[i])
		}
		for i := 0; i < 3; i++ {
			bootOrFatal(t, pool)
		}
		for i, res := range results {
			if again := describeTree(res); again != trees[i] {
				t.Errorf("%s result %d changed after later boots:\n%s\nwas:\n%s", kernel, i, again, trees[i])
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(poolTreesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(poolTreesGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("pool span trees differ from %s (re-run with -update-golden if intentional):\n%s", poolTreesGolden, got.String())
	}
}

// describeTree renders a Result's spans, one line each with its index,
// its parent's index (-1 for the root), offset, duration and sorted
// attributes, then its events.
func describeTree(res *Result) string {
	var sb strings.Builder
	parents := relativeParents(res.timeline.Spans())
	for i, s := range res.Spans() {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for j, k := range keys {
			keys[j] = k + "=" + s.Attrs[k]
		}
		fmt.Fprintf(&sb, "%d parent=%d %s +%v %v [%s]\n", i, parents[i], s.Name, s.Start, s.Duration, strings.Join(keys, " "))
	}
	for _, e := range res.Events() {
		fmt.Fprintf(&sb, "event %s +%v\n", e.Name, e.At)
	}
	return sb.String()
}
