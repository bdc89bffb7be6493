//go:build amd64

// The golden bits below are architecture-specific. On arm64, ppc64le,
// ppc64, s390x and riscv64 the Go compiler fuses x*y+z into one FMA
// instruction, which rounds once instead of twice and so moves the
// last bits of every cost evaluation; amd64 never fuses implicitly.
// The pins therefore hold on amd64 only, which is the build tag above.

package core

import (
	"math"
	"math/rand"
	"testing"

	"rfprism/internal/fit"
	"rfprism/internal/geom"
	"rfprism/internal/mathx"
	"rfprism/internal/preprocess"
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

// goldenRig is a seeded simulated deployment with its antennas
// calibrated from a bare reference tag, as exp.NewSetup does: every
// window it observes runs the production front end (sim → preprocess
// → robust line fit → antenna correction), so the pinned bits also
// cover the simulator's phase quantization and polarization geometry.
type goldenRig struct {
	scene *sim.Scene
	cal   AntennaCal
}

func newGoldenRig(t *testing.T, seed int64, deploy func(*rand.Rand) []sim.Antenna) *goldenRig {
	t.Helper()
	scene, err := sim.NewScene(deploy(rand.New(rand.NewSource(seed))),
		rf.LabMultipath(), sim.DefaultConfig(), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	r := &goldenRig{scene: scene}
	calPos := geom.Vec3{X: 1.0, Y: 1.5}
	none := goldenMaterial(t, "none")
	ref := r.observe(t, sim.Static{
		Pos:          calPos,
		Polarization: rf.TagPolarization2D(0),
		Material:     none,
		Attach:       rf.Attach(none, rf.AttachmentJitter{}, nil),
	})
	if r.cal, err = CalibrateAntennas(ref, calPos, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

func goldenMaterial(t *testing.T, name string) rf.Material {
	t.Helper()
	m, err := rf.MaterialByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// place is a static tag on material m with placement jitter drawn
// from the scene RNG.
func (r *goldenRig) place(pos geom.Vec3, pol geom.Vec3, m rf.Material) sim.Static {
	return sim.Static{Pos: pos, Polarization: pol, Material: m,
		Attach: rf.Attach(m, rf.DefaultAttachmentJitter(), r.scene.Rand())}
}

// observe collects one window of a static tag and returns its
// calibrated observations.
func (r *goldenRig) observe(t *testing.T, pl sim.Static) []Observation {
	t.Helper()
	win := r.scene.CollectWindow(r.scene.NewTag("golden"), pl)
	spectra, err := preprocess.BuildSpectra(win, preprocess.Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]Observation, len(spectra))
	for i, sp := range spectra {
		line, err := fit.FitLineRobust(sp.Freqs(), sp.Phases(), sp.RSSIs(), fit.RobustOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ant := r.scene.Antennas[i]
		obs[i] = Observation{ID: ant.ID, Pos: ant.Pos, Frame: ant.Frame(), Line: line}
	}
	return r.cal.Apply(obs)
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
	bounds2D := Bounds{XMin: 0, XMax: 2, YMin: 0.5, YMax: 2.5}
	bounds3D := Bounds{XMin: 0, XMax: 2, YMin: 0.5, YMax: 2.5, ZMin: 0, ZMax: 0.8}
	rig2D := newGoldenRig(t, 11, sim.PaperAntennas2D)
	rig3D := newGoldenRig(t, 12, sim.PaperAntennas3D)

	place2D := func(x, y, alphaDeg float64, material string) sim.Static {
		return rig2D.place(geom.Vec3{X: x, Y: y},
			rf.TagPolarization2D(mathx.Rad(alphaDeg)), goldenMaterial(t, material))
	}
	clean := rig2D.observe(t, place2D(0.9, 1.4, 40, "none"))
	water := rig2D.observe(t, place2D(1.3, 1.9, 120, "water"))
	corner := rig2D.observe(t, place2D(0.05, 0.55, 170, "wood"))
	cleanAgain := rig2D.observe(t, place2D(0.9, 1.4, 40, "none"))
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
		{"2d-clean", warmSeed, estimateBits{X: 0x3feb818644a2aa6d, Y: 0x3ff53b520dacc382, Z: 0x0, Alpha: 0x3fd0691952f64cea, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e2e1229efe4366b, Bt0: 0x3fed144855f8c00c, Cost: 0x40246263bda152aa}},
		{"2d-material", solve(Solve2D, water, bounds2D, Options{}), estimateBits{X: 0x3ff30339f74a2728, Y: 0x4001483cf4a24063, Z: 0x0, Alpha: 0x3fccd1ec8fc09597, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e03a3289ddd0582, Bt0: 0x40124c3d0c2f01d8, Cost: 0x402095d60085c4bc}},
		{"2d-corner", solve(Solve2D, corner, bounds2D, Options{}), estimateBits{X: 0x3f9723392845e234, Y: 0x3fe30733210eca84, Z: 0x0, Alpha: 0x3fbb18bc30eb1460, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e3b053cf4f6320c, Bt0: 0x40160e0160e0dd7e, Cost: 0x4024f403e43893a8}},
		{"3d", solve(Solve3D, tilted, bounds3D, Options{}), estimateBits{X: 0x3fe6953d1c21c39a, Y: 0x3ff591552cb987eb, Z: 0x3fd60085daa6c74d, Alpha: 0x0, Azimuth: 0x3fc0dfa99cbdbe16, Elevation: 0x3ff330be69cdfaa2, Kt: 0x3e32bc63cecbc3ca, Bt0: 0x40058d84fc0fb8d3, Cost: 0x3fc6a6c8ff778c1c}},
		{"2d-warm", warm, estimateBits{X: 0x3feb7b31f2a625b6, Y: 0x3ff53b8c2f6bdec3, Z: 0x0, Alpha: 0x3fcf18696958a130, Azimuth: 0x0, Elevation: 0x0, Kt: 0x3e1e98ca267b3226, Bt0: 0x4017bf48257fb934, Cost: 0x402d960fda1a2c8e}},
		{"2d-no-fine-phase", solve(Solve2D, water, bounds2D, Options{DisableFinePhase: true}), estimateBits{X: 0x3ff1d306c2fc01b0, Y: 0x4001d52abd6c33a6, Z: 0x0, Alpha: 0x3faacee9f37bebd6, Azimuth: 0x0, Elevation: 0x0, Kt: 0xbe1dd49036a5fe71, Bt0: 0x4001b124c33372af, Cost: 0x3fb720106c09d419}},
	}
	for _, c := range cases {
		if got := bitsOf(c.got); got != c.want {
			t.Errorf("%s: estimate bits changed (%+v)\n got  %#v\n want %#v", c.name, c.got, got, c.want)
		}
	}
}
