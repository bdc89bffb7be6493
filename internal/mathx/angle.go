// Package mathx provides the numerical kernels RF-Prism needs and that
// the Go standard library lacks: small dense linear algebra, linear and
// nonlinear least squares, basic optimizers, descriptive statistics and
// circular (angular) statistics.
//
// Everything here is deterministic and allocation-conscious; the solver
// hot paths reuse caller-provided buffers where that matters.
package mathx

import (
	"fmt"
	"math"
)

// TwoPi is the full circle in radians.
const TwoPi = 2 * math.Pi

// Mod returns math.Mod(x, p) bit for bit, several times faster. For a
// finite x and p > 0 whose quotient |x/p| is below 2^40 it takes the
// integer quotient q = trunc(x/p) and the remainder x − q·p in one
// fused multiply-add. The fmod result is always representable, so the
// FMA's single rounding returns it exactly once q is right. The
// rounded division can overshoot the true quotient by at most one and
// never undershoots; an overshoot leaves a nonzero remainder whose
// sign differs from x's, and one correction step repairs it. An exact
// zero takes the sign of x, as in fmod. math.FMA is exactly rounded
// on every platform, so the result is host-independent. Anything else
// (NaN, ±Inf, p ≤ 0, larger quotients) falls back to math.Mod.
func Mod(x, p float64) float64 {
	q := math.Trunc(x / p)
	if !(math.Abs(q) < 1<<40) || !(p > 0 && p <= math.MaxFloat64) {
		return math.Mod(x, p)
	}
	r := math.FMA(-q, p, x)
	if math.Signbit(r) != math.Signbit(x) {
		if r == 0 {
			return math.Copysign(0, x)
		}
		r = math.FMA(-(q - math.Copysign(1, x)), p, x)
	}
	return r
}

// Wrap2Pi wraps x into [0, 2π).
func Wrap2Pi(x float64) float64 {
	x = Mod(x, TwoPi)
	if x < 0 {
		x += TwoPi
	}
	return x
}

// WrapPi wraps x into (-π, π].
func WrapPi(x float64) float64 {
	x = Mod(x+math.Pi, TwoPi)
	if x <= 0 {
		x += TwoPi
	}
	return x - math.Pi
}

// AngDiff returns the signed minimal angular difference a-b in (-π, π].
func AngDiff(a, b float64) float64 {
	return WrapPi(a - b)
}

// AngDiffPeriod returns the signed minimal difference a-b for angles
// with the given period (e.g. π for dipole orientations that alias
// every 180°). The result lies in (-period/2, period/2].
func AngDiffPeriod(a, b, period float64) float64 {
	d := Mod(a-b, period)
	half := period / 2
	if d > half {
		d -= period
	} else if d <= -half {
		d += period
	}
	return d
}

// Unwrap removes 2π jumps from a sequence of wrapped phases, returning
// a new slice. Consecutive samples are assumed to differ by less than π
// in the underlying continuous signal.
func Unwrap(phase []float64) []float64 {
	out := make([]float64, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		if d > math.Pi {
			offset -= TwoPi
		} else if d < -math.Pi {
			offset += TwoPi
		}
		out[i] = phase[i] + offset
	}
	return out
}

// UnwrapHalfPi is like Unwrap but additionally corrects the "sudden π
// jump" that commodity RFID readers introduce (the reader resolves the
// backscatter constellation only up to a sign, so reported phase can
// hop by exactly π between reads). Any consecutive step closer to π
// than to 0 (mod 2π) is treated as a π artifact and removed.
func UnwrapHalfPi(phase []float64) []float64 {
	out := make([]float64, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	for i := 1; i < len(phase); i++ {
		prev := out[i-1]
		cand := phase[i]
		// Choose among cand + k*π the value closest to prev: this
		// simultaneously undoes 2π folding and π sign flips.
		k := math.Round((prev - cand) / math.Pi)
		out[i] = cand + k*math.Pi
	}
	return out
}

// CircMean returns the circular mean of the given angles in radians,
// wrapped into [0, 2π). For an empty slice it returns 0.
func CircMean(angles []float64) float64 {
	if len(angles) == 0 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	return Wrap2Pi(math.Atan2(s, c))
}

// CircStd returns the circular standard deviation of the given angles,
// computed from the resultant length R as sqrt(-2 ln R).
func CircStd(angles []float64) float64 {
	if len(angles) < 2 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	n := float64(len(angles))
	r := math.Hypot(s/n, c/n)
	if r >= 1 {
		return 0
	}
	if r <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(-2 * math.Log(r))
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// FmtDeg renders an angle (radians) as degrees with one decimal — a
// small convenience for diagnostics and examples.
func FmtDeg(rad float64) string {
	d := Deg(Wrap2Pi(rad))
	return fmt.Sprintf("%6.1f", d)
}
