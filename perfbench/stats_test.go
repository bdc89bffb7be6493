package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{20, 0.50, true},   // 10 samples above the median
		{19, 0.50, false},  // only 9
		{100, 0.90, true},  // exactly 10 above p90
		{99, 0.90, false},  //
		{200, 0.95, true},  // exactly 10 above p95
		{199, 0.95, false}, //
		{1000, 0.99, true}, // exactly 10 above p99
		{1000, 0.999, false},
		{0, 0.50, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v (beyond=%d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
	for n, want := range map[int]float64{5: 0, 20: 0.50, 150: 0.90, 265: 0.95, 8100: 0.99, 20000: 0.999} {
		if got := highest(n); got != want {
			t.Errorf("highest(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestDistQuantiles(t *testing.T) {
	d := newDist("x", "ms")
	for i := 200; i >= 1; i-- {
		d.add(float64(i))
	}
	if got := d.q(0.5); got != 100 {
		t.Errorf("p50 = %g, want 100 (nearest rank)", got)
	}
	if got, err := d.need(0.95); err != nil || got != 190 {
		t.Errorf("need(p95) = %g, %v; want 190", got, err)
	}
	d.add(201)
	if _, err := d.need(0.99); err == nil {
		t.Errorf("need(p99) on 201 samples should fail the percentile rule")
	}
	if !strings.Contains(d.summary(), "n=201") {
		t.Errorf("summary lacks the sample count: %s", d.summary())
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// metricName is the pattern every emitted metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames keeps every catalogue name inside the name pattern
// and BENCHMARK.json in step with the catalogue.
func TestMetricNames(t *testing.T) {
	loose := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !loose.MatchString(d.name) || !metricName.MatchString(d.name) {
			t.Errorf("metric name %q breaks the name pattern", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q breaks the unit pattern", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, bad := range []string{"", "fresh p50", "-lead", "a/b", "x{y}"} {
		if metricName.MatchString(bad) {
			t.Errorf("pattern accepts %q", bad)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json %s: %d metrics, catalogue has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), catalogue has %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(bench.Workloads), len(workloads))
	}
}
