//go:build amd64

// The golden bits below are architecture-specific. On arm64, ppc64le,
// ppc64, s390x and riscv64 the Go compiler fuses x*y+z into one FMA
// instruction, which rounds once instead of twice and so moves the
// last bits of every cost evaluation; amd64 never fuses implicitly.
// The pins therefore hold on amd64 only, which is the build tag above.

package core

import (
	"math"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// estimateBits holds an Estimate's fields as IEEE-754 bit patterns,
// which print exactly (%v on a float rounds) and tell -0 from +0.
type estimateBits struct {
	X, Y, Z, Alpha, Azimuth, Elevation, Kt, Bt0, Cost uint64
}

func bitsOf(e Estimate) estimateBits {
	b := math.Float64bits
	return estimateBits{
		X: b(e.Pos.X), Y: b(e.Pos.Y), Z: b(e.Pos.Z),
		Alpha: b(e.Alpha), Azimuth: b(e.Azimuth), Elevation: b(e.Elevation),
		Kt: b(e.Kt), Bt0: b(e.Bt0), Cost: b(e.Cost),
	}
}

// golden2D holds the seeded 2D golden windows: a clean tag, a tag on
// water, a tag in the region's corner on wood, and a second window of
// the clean tag (the warm-start case). They are observed in this
// order from one scene, so every caller sees identical windows.
type golden2D struct {
	clean, water, corner, cleanAgain []Observation
	bounds                           Bounds
}

func goldenWindows2D(t *testing.T) golden2D {
	t.Helper()
	rig := newGoldenRig(t, 11, sim.PaperAntennas2D)
	place := func(x, y, alphaDeg float64, material string) sim.Static {
		return rig.place(geom.Vec3{X: x, Y: y},
			rf.TagPolarization2D(mathx.Rad(alphaDeg)), goldenMaterial(t, material))
	}
	return golden2D{
		clean:      rig.observe(t, place(0.9, 1.4, 40, "none")),
		water:      rig.observe(t, place(1.3, 1.9, 120, "water")),
		corner:     rig.observe(t, place(0.05, 0.55, 170, "wood")),
		cleanAgain: rig.observe(t, place(0.9, 1.4, 40, "none")),
		bounds:     Bounds{XMin: 0, XMax: 2, YMin: 0.5, YMax: 2.5},
	}
}

// TestGoldenEstimateBits pins the exact output bits of the solvers on
// seeded simulated windows. Every other bit-identity test compares two
// runs of the same build (serial vs parallel, daemon vs cluster), so a
// kernel change that moves bits would pass them all; this one compares
// against constants recorded before any such change.
//
// When a change is *meant* to move bits, re-record: the failure message
// prints each case's new estimateBits literal.
func TestGoldenEstimateBits(t *testing.T) {
	bounds3D := Bounds{XMin: 0, XMax: 2, YMin: 0.5, YMax: 2.5, ZMin: 0, ZMax: 0.8}
	w := goldenWindows2D(t)
	clean, water, corner, cleanAgain, bounds2D := w.clean, w.water, w.corner, w.cleanAgain, w.bounds
	rig3D := newGoldenRig(t, 12, sim.PaperAntennas3D)
	tilted := rig3D.observe(t, rig3D.place(geom.Vec3{X: 0.8, Y: 1.3, Z: 0.35},
		rf.TagPolarization3D(mathx.Rad(40), mathx.Rad(25)), goldenMaterial(t, "glass")))

	solve := func(solver func([]Observation, Bounds, Options) (Estimate, error), obs []Observation, b Bounds, opts Options) Estimate {
		t.Helper()
		est, err := solver(obs, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	warmSeed := solve(Solve2D, clean, bounds2D, Options{})
	var warmStats SolveStats
	warm := solve(Solve2D, cleanAgain, bounds2D, Options{WarmStart: &warmSeed, Stats: &warmStats})
	if warmStats.WarmAttempts.Load() != 1 || warmStats.WarmFallbacks.Load() != 0 {
		t.Fatalf("warm case fell back to the cold path (attempts=%d fallbacks=%d)",
			warmStats.WarmAttempts.Load(), warmStats.WarmFallbacks.Load())
	}

	cases := []struct {
		name string
		got  Estimate
		want estimateBits
	}{
		{"2d-clean", warmSeed, estimateBits{X: 0x3feb81864598b24a, Y: 0x3ff53b520c1877da, Z: 0x0, Alpha: 0x3fd069196af81a63, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e2e1229f594301c, Bt0: 0x3fed1448c6ecae80, Cost: 0x40246263bda1526c}},
		{"2d-material", solve(Solve2D, water, bounds2D, Options{}), estimateBits{X: 0x3ff30339f57dac07, Y: 0x4001483cf044824a, Z: 0x0, Alpha: 0x3fccd1eb356183a0, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e03a32b2f57a917, Bt0: 0x40124c3d42338dae, Cost: 0x402095d60085c460}},
		{"2d-corner", solve(Solve2D, corner, bounds2D, Options{}), estimateBits{X: 0x3f9723392093d7bf, Y: 0x3fe307331f829169, Z: 0x0, Alpha: 0x3fbb18bb8b3a2491, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e3b053cff40b83d, Bt0: 0x40160e015e306a52, Cost: 0x4024f403e4389376}},
		{"3d", solve(Solve3D, tilted, bounds3D, Options{}), estimateBits{X: 0x3fe6953d1c21c39a, Y: 0x3ff591552cb987eb, Z: 0x3fd60085daa6c74d, Alpha: 0x0, Azimuth: 0x3fc0dfa99cbdbe16, Elevation: 0x3ff330be69cdfaa2, Kt: 0x3e32bc63cecbc3ca, Bt0: 0x40058d84fc0fb8d3, Cost: 0x3fc6a6c8ff778c1c}},
		{"2d-warm", warm, estimateBits{X: 0x3feb7b31f0fd7a80, Y: 0x3ff53b8c28c0945c, Z: 0x0, Alpha: 0x3fcf186828c7c9b9, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e1e98caa07e72a7, Bt0: 0x4017bf4841bb584d, Cost: 0x402d960fda1a2c57}},
		{"2d-no-fine-phase", solve(Solve2D, water, bounds2D, Options{DisableFinePhase: true}), estimateBits{X: 0x3ff1d306c2fc01b0, Y: 0x4001d52abd6c33a6, Z: 0x0, Alpha: 0x3faacee9f37bebd6, Azimuth: 0x0, Elevation: 0x0, Kt: 0xbe1dd49036a5fe71, Bt0: 0x4001b124c33372af, Cost: 0x3fb720106c09d419}},
	}
	for _, c := range cases {
		if got := bitsOf(c.got); got != c.want {
			t.Errorf("%s: estimate bits changed (%+v)\n got  %#v\n want %#v", c.name, c.got, got, c.want)
		}
	}
}

// TestSolve2DMatchesNelderMeadMinima: the joint stage used to be a
// Nelder–Mead multistart with a long fine pass. Its estimates on the
// golden windows, recorded below before the Levenberg–Marquardt kernel
// replaced it, are converged minima of the same objective; the LM
// solver must land on the same minima to well under any accuracy that
// matters (the literals differ from the current golden bits only in
// the last converged digits).
func TestSolve2DMatchesNelderMeadMinima(t *testing.T) {
	w := goldenWindows2D(t)
	type minimum struct{ X, Y, Alpha, Bt0, Cost float64 }
	nm := map[string]minimum{
		"2d-clean":    {X: 0.8595610943351183, Y: 1.326982549111762, Alpha: 0.25641472913521446, Bt0: 0.9087258986601241, Cost: 10.192167211477983},
		"2d-material": {X: 1.1882877025368064, Y: 2.160272513581775, Alpha: 0.22515637416033193, Bt0: 4.574451628083317, Cost: 8.29264833100239},
		"2d-corner":   {X: 0.022595303614681053, Y: 0.5946288724574775, Alpha: 0.10584617800039231, Bt0: 5.513677133297618, Cost: 10.476592189699502},
		"2d-warm":     {X: 0.8587884654272588, Y: 1.3270379879376584, Alpha: 0.24293248790605437, Bt0: 5.936798654480572, Cost: 14.793089690871309},
	}
	solve := func(obs []Observation, opts Options) Estimate {
		t.Helper()
		est, err := Solve2D(obs, w.bounds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	seed := solve(w.clean, Options{})
	got := map[string]Estimate{
		"2d-clean":    seed,
		"2d-material": solve(w.water, Options{}),
		"2d-corner":   solve(w.corner, Options{}),
		"2d-warm":     solve(w.cleanAgain, Options{WarmStart: &seed}),
	}
	for name, want := range nm {
		e := got[name]
		if d := math.Hypot(e.Pos.X-want.X, e.Pos.Y-want.Y); d > 1e-6 {
			t.Errorf("%s: position %.3g m from the Nelder–Mead minimum", name, d)
		}
		if d := math.Abs(mathx.AngDiffPeriod(e.Alpha, want.Alpha, math.Pi)); d > 1e-5 {
			t.Errorf("%s: α %.3g rad from the Nelder–Mead minimum", name, d)
		}
		if d := math.Abs(mathx.AngDiff(e.Bt0, want.Bt0)); d > 1e-5 {
			t.Errorf("%s: b_t %.3g rad from the Nelder–Mead minimum", name, d)
		}
		if r := math.Abs(e.Cost-want.Cost) / want.Cost; r > 1e-9 {
			t.Errorf("%s: cost %v vs Nelder–Mead %v (relative %.3g)", name, e.Cost, want.Cost, r)
		}
	}
}
