package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so a tail figure never
// rests on a handful of outliers.
const minTail = 10

// ladder is the set of percentiles a summary considers, low to high.
var ladder = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// rank returns the nearest-rank index of quantile q in n sorted
// samples.
func rank(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx
}

// beyond returns how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// supported reports whether the q-quantile of n samples satisfies the
// percentile rule.
func supported(n int, q float64) bool { return beyond(n, q) >= minTail }

// highest returns the highest ladder percentile that n samples
// support, or 0 when not even the median is supported.
func highest(n int) float64 {
	best := 0.0
	for _, q := range ladder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// dist is a sample distribution (milliseconds, metres or degrees).
type dist struct {
	name string
	unit string
	v    []float64
	done bool
}

func newDist(name, unit string) *dist { return &dist{name: name, unit: unit} }

func (d *dist) add(x float64)          { d.v = append(d.v, x); d.done = false }
func (d *dist) addDur(x time.Duration) { d.add(float64(x.Nanoseconds()) / 1e6) }
func (d *dist) n() int                 { return len(d.v) }
func (d *dist) sorted() []float64 {
	if !d.done {
		sort.Float64s(d.v)
		d.done = true
	}
	return d.v
}

// q returns the nearest-rank q-quantile (NaN for an empty
// distribution).
func (d *dist) q(q float64) float64 {
	s := d.sorted()
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rank(len(s), q)]
}

// need returns the q-quantile, or an error when the distribution is
// too small for the percentile rule.
func (d *dist) need(q float64) (float64, error) {
	if !supported(d.n(), q) {
		return 0, fmt.Errorf("%s: p%g needs at least %d samples beyond it, have %d samples",
			d.name, q*100, minTail, d.n())
	}
	return d.q(q), nil
}

// summary renders the distribution for the log: sample count, median,
// and the highest percentile the percentile rule allows.
func (d *dist) summary() string {
	n := d.n()
	if n == 0 {
		return fmt.Sprintf("%s: n=0", d.name)
	}
	top := highest(n)
	if top == 0 {
		return fmt.Sprintf("%s: n=%d (too few samples for any percentile) max=%.4g%s", d.name, n, d.q(1), d.unit)
	}
	mid := ""
	if top > 0.90 {
		mid = fmt.Sprintf(" p90=%.4g%s", d.q(0.9), d.unit)
	}
	return fmt.Sprintf("%s: n=%d p50=%.4g%s%s p%g=%.4g%s (highest percentile with >=%d samples beyond)",
		d.name, n, d.q(0.5), d.unit, mid, top*100, d.q(top), d.unit, minTail)
}

// mean returns the arithmetic mean (NaN for an empty distribution).
func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range d.v {
		sum += x
	}
	return sum / float64(len(d.v))
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
