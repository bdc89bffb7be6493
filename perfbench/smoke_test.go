package main

import (
	"strings"
	"testing"
	"time"
)

// Smoke-size runs of every workload: the whole harness and the real
// program, shrunk to seconds. Samples are too few for the tail
// percentiles, so the percentile rule's own complaints are expected;
// every other correctness gate must pass.

func smokeParams(t *testing.T, seconds time.Duration, trace bool) params {
	return params{seed: 2, seconds: seconds, trace: trace, log: t.Logf}
}

func checkSmoke(t *testing.T, o *outcome, traced bool) {
	t.Helper()
	for _, p := range o.problems {
		if !strings.Contains(p, "samples beyond it") {
			t.Errorf("correctness gate failed: %s", p)
		}
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Errorf("attempted %d, failed %d", o.attempted, o.failed)
	}
	for _, name := range []string{"setup_s", "windows_per_s", "cpu_ms_per_window", "peak_heap_mb", "ok_frac"} {
		if o.e2e[name] <= 0 {
			t.Errorf("%s = %g", name, o.e2e[name])
		}
	}
	if traced {
		for _, d := range perLayer {
			if _, ok := o.layer[d.name]; !ok {
				t.Errorf("traced run lacks %s", d.name)
			}
		}
	}
}

func TestSmokePaperGrid(t *testing.T) {
	o, err := runPaperGrid(smokeParams(t, 200*time.Millisecond, true))
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, o, true)
	if o.layer["core.solve2d_p1_ms"] <= 0 || o.layer["rfprism.pool_busy_frac"] <= 0 {
		t.Errorf("solver layer metrics missing: %v", o.layer)
	}
}

func TestSmokeShelf(t *testing.T) {
	// 4 tags on 3 s rounds: gentle enough to keep to schedule under the
	// race detector.
	spec, err := shelfSpec(2, 1500*time.Millisecond, 4, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	o, err := runService(smokeParams(t, 0, true), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, o, true)
	if o.layer["rfprism.cache_hit_ratio"] <= 0 || o.layer["serve.read_ms_p50"] <= 0 {
		t.Errorf("fast-path or read metrics missing: %v", o.layer)
	}
	if e := o.layer["hop.sum_err_max_ms"]; e > 1e-6 {
		t.Errorf("hops do not add up to freshness: max gap %g ms", e)
	}
}
