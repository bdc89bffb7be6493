package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b are the same float64 bit for bit,
// treating every NaN as equal (math.Mod and Mod may return different
// NaN payloads; only NaN-ness is specified).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkMod(t *testing.T, x, p float64) {
	t.Helper()
	if got, want := Mod(x, p), math.Mod(x, p); !sameFloat(got, want) {
		t.Fatalf("Mod(%v [%#x], %v) = %v [%#x], math.Mod = %v [%#x]",
			x, math.Float64bits(x), p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestModMatchesMathMod: the remainder kernel must return exactly what
// math.Mod returns — the solver's golden bits depend on it. Inputs
// cover the solver's working range, the quotient-overshoot boundaries
// (a few ulps either side of every k·p), signed zeros, the non-finite
// and huge-quotient fallbacks.
func TestModMatchesMathMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []float64{TwoPi, math.Pi} {
		for i := 0; i < 200000; i++ {
			x := math.Exp(math.Log(1e-3) + rng.Float64()*math.Log(1e8))
			if rng.Intn(2) == 0 {
				x = -x
			}
			checkMod(t, x, p)
		}
		for k := -2000; k <= 2000; k++ {
			kp := float64(k) * p
			up, down := kp, kp
			for u := 0; u <= 50; u++ {
				checkMod(t, up, p)
				checkMod(t, down, p)
				up = math.Nextafter(up, math.Inf(1))
				down = math.Nextafter(down, math.Inf(-1))
			}
		}
		for _, x := range []float64{
			0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			1e300, -1e300, p, -p, p / 2, -p / 2,
			0x1p40 * p, -0x1p40 * p, math.SmallestNonzeroFloat64, -math.MaxFloat64,
		} {
			checkMod(t, x, p)
		}
	}
	// Periods outside the fast path must fall back, not misbehave.
	for _, p := range []float64{0, -TwoPi, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64} {
		for _, x := range []float64{0, 1, -7.5, 1e300} {
			checkMod(t, x, p)
		}
	}
}

// FuzzModExact compares Mod with math.Mod for the solver's periods and
// for an arbitrary fuzzed period.
func FuzzModExact(f *testing.F) {
	for _, seed := range [][2]float64{
		{0, 1}, {TwoPi, TwoPi}, {-math.Pi, math.Pi}, {1e300, 3}, {7 * math.Pi, 0.5},
		{math.Nextafter(4*TwoPi, 0), TwoPi}, {-1e-320, 1e-300},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, x, p float64) {
		checkMod(t, x, TwoPi)
		checkMod(t, x, math.Pi)
		checkMod(t, x, p)
	})
}

// TestSincosMatchesSinCos: rf.TagPolarization2D and geom.FromSpherical
// use math.Sincos in place of separate Sin/Cos calls, which is only
// bit-neutral if the two agree everywhere. Sample every binary
// exponent, so the |x| ≥ 2^29 Payne–Hanek reduction path is covered
// as well as the Cody–Waite one.
func TestSincosMatchesSinCos(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(x float64) {
		s, c := math.Sincos(x)
		if !sameFloat(s, math.Sin(x)) || !sameFloat(c, math.Cos(x)) {
			t.Fatalf("Sincos(%v [%#x]) = (%v, %v), Sin/Cos = (%v, %v)",
				x, math.Float64bits(x), s, c, math.Sin(x), math.Cos(x))
		}
	}
	for exp := -1074; exp <= 1023; exp++ {
		for i := 0; i < 64; i++ {
			x := math.Ldexp(1+rng.Float64(), exp)
			check(x)
			check(-x)
		}
	}
	for i := 0; i < 200000; i++ {
		check((rng.Float64()*2 - 1) * 1e4)
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0x1p29, math.Nextafter(0x1p29, 0), math.MaxFloat64,
	} {
		check(x)
	}
}

func BenchmarkWrapPi(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = (rng.Float64()*2 - 1) * 40
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += WrapPi(xs[i&1023])
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN")
	}
}
